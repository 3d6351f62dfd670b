// Command fastrak-trace inspects a Chrome trace-event JSON file written
// by the telemetry subsystem (the fastrak-sim traced and fig12 rows, or
// Telemetry.WriteTrace). The same file loads in Perfetto;
// this tool answers the questions a timeline view makes you scroll for:
//
//	fastrak-trace -flows  trace.json   # per-flow lifecycle timelines
//	fastrak-trace -drops  trace.json   # per-tenant drop ledger by cause
//	fastrak-trace -churn  trace.json   # per-pattern decision churn
//	fastrak-trace trace.json           # all three sections
//
// Filters: -tenant N keeps one tenant's events; -since/-until bound the
// window in simulated time (e.g. -since 1s -until 2.5s).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/telemetry"
)

func main() {
	flows := flag.Bool("flows", false, "print per-flow lifecycle timelines")
	drops := flag.Bool("drops", false, "print the per-tenant drop ledger")
	churn := flag.Bool("churn", false, "print per-pattern decision churn")
	tenant := flag.Uint("tenant", 0, "only this tenant's events (0 = all)")
	since := flag.Duration("since", 0, "ignore events before this simulated time")
	until := flag.Duration("until", 0, "ignore events after this simulated time (0 = end)")
	maxFlows := flag.Int("max-flows", 20, "cap on flows printed by -flows")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fastrak-trace [-flows|-drops|-churn] [-tenant N] <trace.json>")
		os.Exit(2)
	}
	all := !*flows && !*drops && !*churn

	events, threads, err := telemetry.ReadChromeTraceFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastrak-trace: %v\n", err)
		os.Exit(1)
	}

	// Keep structured flight-recorder events within the filter window.
	var evs []telemetry.TraceEvent
	for _, te := range events {
		if te.Args == nil {
			continue
		}
		at := time.Duration(te.Ts * float64(time.Microsecond))
		if at < *since || (*until > 0 && at > *until) {
			continue
		}
		if *tenant != 0 && te.Args.Tenant != uint32(*tenant) {
			continue
		}
		evs = append(evs, te)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Args.Seq < evs[j].Args.Seq })
	fmt.Printf("%s: %d events, %d scopes\n", flag.Arg(0), len(evs), len(threads))

	if all || *flows {
		printFlows(evs, threads, *maxFlows)
	}
	if all || *drops {
		printDrops(evs)
	}
	if all || *churn {
		printChurn(evs, threads)
	}
}

func ts(te telemetry.TraceEvent) string {
	return time.Duration(te.Ts * float64(time.Microsecond)).Round(time.Microsecond).String()
}

func scopeOf(te telemetry.TraceEvent, threads map[int]string) string {
	if n, ok := threads[te.Tid]; ok {
		return n
	}
	return fmt.Sprintf("tid%d", te.Tid)
}

// flowID renders the 5-tuple+tenant of a flow-keyed event, or "" when the
// event carries no flow.
func flowID(a *telemetry.TraceArgs) string {
	if a.Src == "" && a.Dst == "" {
		return ""
	}
	return fmt.Sprintf("t%d %s:%d > %s:%d p%d", a.Tenant, a.Src, a.SPort, a.Dst, a.DPort, a.Proto)
}

// printFlows reconstructs each flow's lifecycle — upcall, cache installs
// and hits, drops — as one timeline per 5-tuple, ordered by first
// appearance.
func printFlows(evs []telemetry.TraceEvent, threads map[int]string, max int) {
	byFlow := map[string][]telemetry.TraceEvent{}
	var order []string
	for _, te := range evs {
		id := flowID(te.Args)
		if id == "" {
			continue
		}
		if _, ok := byFlow[id]; !ok {
			order = append(order, id)
		}
		byFlow[id] = append(byFlow[id], te)
	}
	fmt.Printf("\n== flow lifecycles (%d flows) ==\n", len(order))
	for i, id := range order {
		if i >= max {
			fmt.Printf("  ... %d more flows (raise -max-flows)\n", len(order)-max)
			break
		}
		fmt.Printf("\n%s\n", id)
		for _, te := range byFlow[id] {
			a := te.Args
			line := fmt.Sprintf("  %-12s %-14s %s", ts(te), scopeOf(te, threads), a.Kind)
			if a.Cause != "" {
				line += " [" + a.Cause + "]"
			}
			if a.Kind == "exact-hit" || a.Kind == "megaflow-hit" {
				line += fmt.Sprintf(" (1-in-%.0f sample)", a.V1)
			}
			fmt.Println(line)
		}
	}
}

// printDrops tallies every drop event by tenant and cause — the unified
// ledger across vswitch, ToR, NIC and links.
func printDrops(evs []telemetry.TraceEvent) {
	type key struct {
		tenant uint32
		cause  string
	}
	counts := map[key]int{}
	for _, te := range evs {
		if te.Args.Kind != "drop" {
			continue
		}
		counts[key{te.Args.Tenant, te.Args.Cause}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].cause < keys[j].cause
	})
	fmt.Printf("\n== drop ledger (%d drop events) ==\n", len(evs)-countNonDrops(evs))
	if len(keys) == 0 {
		fmt.Println("  no drops recorded")
		return
	}
	fmt.Printf("  %-8s %-14s %s\n", "tenant", "cause", "drops")
	for _, k := range keys {
		fmt.Printf("  %-8d %-14s %d\n", k.tenant, k.cause, counts[k])
	}
}

func countNonDrops(evs []telemetry.TraceEvent) int {
	n := 0
	for _, te := range evs {
		if te.Args.Kind != "drop" {
			n++
		}
	}
	return n
}

// printChurn summarizes per-pattern control-plane activity — decisions,
// installs, retries, repairs — plus migration episodes, exposing rule
// flapping and recovery cost at a glance.
func printChurn(evs []telemetry.TraceEvent, threads map[int]string) {
	type stats struct {
		offload, demote, install, remove, retry, giveup, reject, repair, orphan int
		first, last                                                             telemetry.TraceEvent
		seen                                                                    bool
	}
	byPat := map[string]*stats{}
	var order []string
	var migrations []telemetry.TraceEvent
	for _, te := range evs {
		a := te.Args
		switch a.Kind {
		case "migration-start", "migration-end":
			migrations = append(migrations, te)
			continue
		}
		if a.Pat == "" {
			continue
		}
		st := byPat[a.Pat]
		if st == nil {
			st = &stats{}
			byPat[a.Pat] = st
			order = append(order, a.Pat)
		}
		if !st.seen {
			st.first, st.seen = te, true
		}
		st.last = te
		switch a.Kind {
		case "offload-decision":
			st.offload++
		case "demote-decision":
			st.demote++
		case "tcam-install":
			st.install++
		case "tcam-remove":
			st.remove++
		case "install-retry":
			st.retry++
		case "install-giveup":
			st.giveup++
		case "tcam-reject":
			st.reject++
		case "repair":
			st.repair++
		case "orphan-sweep":
			st.orphan++
		}
	}
	fmt.Printf("\n== decision churn (%d patterns) ==\n", len(order))
	if len(order) > 0 {
		fmt.Printf("  %-44s %s\n", "pattern", "offload/demote install/remove retry/giveup reject repair orphan window")
		for _, p := range order {
			st := byPat[p]
			fmt.Printf("  %-44s %d/%-8d %d/%-8d %d/%-8d %-6d %-6d %-6d %s..%s\n",
				p, st.offload, st.demote, st.install, st.remove, st.retry, st.giveup,
				st.reject, st.repair, st.orphan, ts(st.first), ts(st.last))
		}
	}
	if len(migrations) > 0 {
		fmt.Println("\n  migrations:")
		for _, te := range migrations {
			fmt.Printf("    %-12s %-10s %s vm=%s from=%.0f to=%.0f\n",
				ts(te), scopeOf(te, threads), te.Args.Kind, te.Args.Cause, te.Args.V1, te.Args.V2)
		}
	}
}
