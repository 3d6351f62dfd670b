package faults

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzParsePlan drives the plan language through the whole injector:
// ParsePlan, then Apply on an injector with a recorder on every surface
// under every name the seed corpus uses, then 10ms of virtual time.
// Nothing may panic, no event ParsePlan returns may set an option its
// kind does not read, and every event Apply accepts must lie within
// validate's bounds.
func FuzzParsePlan(f *testing.F) {
	for _, clause := range strings.Split(allKindsSpec, ";") {
		f.Add(strings.TrimSpace(clause))
	}
	f.Add("crash:torctl0@-1s")
	f.Add("crash:torctl0@1s+-5ms")
	f.Add("loss:uplink0@1s+1s,p=NaN")
	for _, spec := range misplacedOptionSpecs {
		f.Add(spec)
	}
	names := []string{"up0", "ctl0", "tcam0", "proc0", "vm0", "me0", "nic0",
		"tor0", "tor1", "tor2", "torctl0", "uplink0"}
	f.Fuzz(func(t *testing.T, spec string) {
		// A long spec adds clauses, not paths: keep each run's schedule
		// small.
		if len(spec) > 256 {
			return
		}
		plan, err := ParsePlan(spec)
		if err != nil {
			return
		}
		for _, ev := range plan.Events {
			set := map[string]bool{"p": ev.Prob != 0, "period": ev.Period != 0,
				"delay": ev.Delay != 0, "seed": ev.Seed != 0, "rate": ev.Rate != 0}
			for o, on := range set {
				if on && !slices.Contains(kinds[ev.Kind].opts, o) {
					t.Fatalf("ParsePlan set an option %s does not read: %+v", ev.Kind, ev)
				}
			}
		}
		eng := sim.NewEngine(1)
		inj := NewInjector(eng, 1)
		rec := &recorder{eng: eng}
		for _, n := range names {
			inj.RegisterLink(n, rec)
			inj.RegisterChannel(n, rec, rec)
			inj.RegisterTable(n, rec)
			inj.RegisterController(n, rec)
			inj.RegisterStormer(n, rec)
			inj.RegisterStatsTap(n, rec)
			inj.RegisterNIC(n, rec)
			inj.RegisterPartition(n, []Channel{rec}, []Channel{rec})
			inj.RegisterPausable(n, rec)
		}
		if err := inj.Apply(plan); err != nil {
			return
		}
		for _, ev := range plan.Events {
			if ev.At < 0 || ev.Duration < 0 || ev.Period < 0 || ev.Delay < 0 ||
				!(ev.Prob >= 0 && ev.Prob <= 1) ||
				math.IsNaN(ev.Rate) || math.IsInf(ev.Rate, 0) || ev.Rate < 0 {
				t.Fatalf("Apply accepted %+v", ev)
			}
		}
		eng.RunUntil(10 * time.Millisecond)
	})
}
