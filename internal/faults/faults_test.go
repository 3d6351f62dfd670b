package faults

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// ---- fake targets ----

type fakeLink struct {
	eng    *sim.Engine
	events []string
}

func (f *fakeLink) SetDown(down bool) {
	f.events = append(f.events, fmt.Sprintf("%v down=%v", f.eng.Now(), down))
}
func (f *fakeLink) SetLoss(p float64, _ *rand.Rand) {
	f.events = append(f.events, fmt.Sprintf("%v loss=%.2f", f.eng.Now(), p))
}

type fakeChan struct {
	fakeLink
	delays []time.Duration
}

func (f *fakeChan) SetExtraDelay(d time.Duration) { f.delays = append(f.delays, d) }

type fakeTable struct {
	fault func() error
	sets  int
}

func (f *fakeTable) SetInstallFault(fn func() error) { f.fault = fn; f.sets++ }

type fakeCtrl struct{ crashes, restarts int }

func (f *fakeCtrl) Crash()   { f.crashes++ }
func (f *fakeCtrl) Restart() { f.restarts++ }

func rig(t *testing.T) (*sim.Engine, *Injector, *fakeLink, *fakeChan, *fakeTable, *fakeCtrl) {
	t.Helper()
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 42)
	l := &fakeLink{eng: eng}
	ch := &fakeChan{fakeLink: fakeLink{eng: eng}}
	tbl := &fakeTable{}
	ctl := &fakeCtrl{}
	inj.RegisterLink("up0", l)
	inj.RegisterChannel("ctl0", ch)
	inj.RegisterTable("tcam0", tbl)
	inj.RegisterController("proc0", ctl)
	return eng, inj, l, ch, tbl, ctl
}

// ---- scheduling semantics ----

func TestLinkDownWindow(t *testing.T) {
	eng, inj, l, _, _, _ := rig(t)
	if err := inj.Apply(Plan{Events: []Event{
		{At: 10 * time.Millisecond, Kind: LinkDown, Target: "up0", Duration: 20 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	want := []string{"10ms down=true", "30ms down=false"}
	if !reflect.DeepEqual(l.events, want) {
		t.Fatalf("events %v, want %v", l.events, want)
	}
	if inj.Applied != 2 {
		t.Errorf("Applied = %d, want 2", inj.Applied)
	}
}

func TestLinkDownPermanent(t *testing.T) {
	eng, inj, l, _, _, _ := rig(t)
	if err := inj.Apply(Plan{Events: []Event{
		{At: 5 * time.Millisecond, Kind: LinkDown, Target: "up0"},
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	want := []string{"5ms down=true"}
	if !reflect.DeepEqual(l.events, want) {
		t.Fatalf("events %v, want %v (no recovery for Duration=0)", l.events, want)
	}
}

func TestLinkFlapTogglesAndEndsUp(t *testing.T) {
	eng, inj, l, _, _, _ := rig(t)
	if err := inj.Apply(Plan{Events: []Event{
		{At: 10 * time.Millisecond, Kind: LinkFlap, Target: "up0",
			Duration: 40 * time.Millisecond, Period: 10 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	want := []string{
		"10ms down=true", "20ms down=false", "30ms down=true",
		"40ms down=false", "50ms down=false", // final transition: flap end (up)
	}
	if !reflect.DeepEqual(l.events, want) {
		t.Fatalf("events %v, want %v", l.events, want)
	}
	last := l.events[len(l.events)-1]
	if last != "50ms down=false" {
		t.Errorf("flap must end in the up state, last transition %q", last)
	}
}

func TestPacketLossWindow(t *testing.T) {
	eng, inj, l, _, _, _ := rig(t)
	if err := inj.Apply(Plan{Events: []Event{
		{At: time.Millisecond, Kind: PacketLoss, Target: "up0", Duration: time.Millisecond, Prob: 0.25},
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	want := []string{"1ms loss=0.25", "2ms loss=0.00"}
	if !reflect.DeepEqual(l.events, want) {
		t.Fatalf("events %v, want %v", l.events, want)
	}
}

func TestChannelFaultsHitEveryDirection(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 1)
	a := &fakeChan{fakeLink: fakeLink{eng: eng}}
	b := &fakeChan{fakeLink: fakeLink{eng: eng}}
	inj.RegisterChannel("ctl0", a, b)
	if err := inj.Apply(Plan{Events: []Event{
		{At: time.Millisecond, Kind: ChannelDown, Target: "ctl0", Duration: time.Millisecond},
		{At: 3 * time.Millisecond, Kind: ChannelDelay, Target: "ctl0", Duration: time.Millisecond, Delay: 500 * time.Microsecond},
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	wantDown := []string{"1ms down=true", "2ms down=false"}
	for i, c := range []*fakeChan{a, b} {
		if !reflect.DeepEqual(c.events, wantDown) {
			t.Errorf("dir %d events %v, want %v", i, c.events, wantDown)
		}
		wantDelay := []time.Duration{500 * time.Microsecond, 0}
		if !reflect.DeepEqual(c.delays, wantDelay) {
			t.Errorf("dir %d delays %v, want %v", i, c.delays, wantDelay)
		}
	}
}

func TestTCAMRejectDefaultsToCertain(t *testing.T) {
	eng, inj, _, _, tbl, _ := rig(t)
	if err := inj.Apply(Plan{Events: []Event{
		{At: time.Millisecond, Kind: TCAMReject, Target: "tcam0", Duration: 2 * time.Millisecond}, // Prob 0 → 1
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Millisecond) // inside the window (end event not yet run)
	if tbl.fault == nil {
		t.Fatal("install fault not set inside window")
	}
	for i := 0; i < 10; i++ {
		if err := tbl.fault(); err != ErrInjected {
			t.Fatalf("fault() = %v, want ErrInjected every time at default prob", err)
		}
	}
	eng.RunUntil(time.Second)
	if tbl.fault != nil {
		t.Error("install fault not cleared after window")
	}
	if tbl.sets != 2 {
		t.Errorf("SetInstallFault called %d times, want 2 (set+clear)", tbl.sets)
	}
}

func TestControllerCrashRestart(t *testing.T) {
	eng, inj, _, _, _, ctl := rig(t)
	if err := inj.Apply(Plan{Events: []Event{
		{At: time.Millisecond, Kind: ControllerCrash, Target: "proc0", Duration: 5 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * time.Millisecond)
	if ctl.crashes != 1 || ctl.restarts != 0 {
		t.Fatalf("mid-window: crashes=%d restarts=%d, want 1/0", ctl.crashes, ctl.restarts)
	}
	eng.RunUntil(time.Second)
	if ctl.crashes != 1 || ctl.restarts != 1 {
		t.Fatalf("after window: crashes=%d restarts=%d, want 1/1", ctl.crashes, ctl.restarts)
	}
}

// ---- validation ----

func TestApplyRejectsInvalidEvents(t *testing.T) {
	eng, inj, _, _, _, _ := rig(t)
	eng.RunUntil(time.Second)
	cases := []Event{
		{Kind: LinkDown, Target: "nope"},
		{Kind: ChannelDown, Target: "nope"},
		{Kind: TCAMReject, Target: "nope"},
		{Kind: ControllerCrash, Target: "nope"},
		{Kind: Kind(99), Target: "up0"},
		{At: time.Second, Kind: PacketLoss, Target: "up0", Prob: 1.5},
		{At: time.Second, Kind: PacketLoss, Target: "up0", Prob: math.NaN()},
		{At: time.Second - 1, Kind: LinkDown, Target: "up0"},
		{At: time.Second, Kind: ControllerCrash, Target: "proc0", Duration: -5 * time.Millisecond},
		{At: time.Second, Kind: LinkFlap, Target: "up0", Duration: time.Second, Period: -time.Millisecond},
		{At: time.Second, Kind: ChannelDelay, Target: "ctl0", Delay: -time.Millisecond},
		{At: time.Second, Kind: LinkDown, Target: "up0", Rate: math.NaN()},
		{At: time.Second, Kind: LinkDown, Target: "up0", Rate: math.Inf(1)},
		{At: time.Second, Kind: LinkDown, Target: "up0", Rate: -1},
		{At: time.Second, Kind: ControllerCrash, Target: "proc0", Duration: math.MaxInt64},
		{At: time.Second, Kind: LinkFlap, Target: "up0", Duration: time.Second, Period: 10 * time.Microsecond},
	}
	for _, ev := range cases {
		if err := inj.Apply(Plan{Events: []Event{ev}}); err == nil {
			t.Errorf("Apply accepted invalid event %+v", ev)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("(%s %s)", ev.Kind, ev.Target)) {
			t.Errorf("error %q does not name the event", err)
		}
	}
	// A plan spec with a negative time parses, but no engine can run it.
	plan, err := ParsePlan("crash:proc0@-1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Apply(plan); err == nil {
		t.Error("Apply accepted crash:proc0@-1s")
	}
	// A spec naming an option its kind does not read is refused, not
	// dropped.
	for _, spec := range misplacedOptionSpecs {
		if _, err := ParsePlan(spec); err == nil || !strings.Contains(err.Error(), "reads no option") {
			t.Errorf("ParsePlan(%q) = %v; want the option refused", spec, err)
		}
	}
	if inj.Applied != 0 {
		t.Errorf("invalid plans must not schedule anything, Applied = %d", inj.Applied)
	}
}

// misplacedOptionSpecs each name an option their kind does not read.
var misplacedOptionSpecs = []string{
	"linkdown:up0@1s+1s,p=0.5,rate=9,delay=3ms",
	"crash:proc0@1s+1s,period=5ms",
	"ctldelay:ctl0@1s+1s,p=0.3",
	"ctlloss:ctl0@1s+1s,p=0.3,delay=1ms",
	"storm:vm0@1s+1s,seed=4",
	"loss:up0@1s+1s,rate=5",
	"statsdelay:me0@1s+1s,seed=3",
	"linkflap:up0@1s+1s,delay=1ms",
	"nicreset:nic0@1s,p=0.5",
	"pause:tor0@1s+1s,period=1ms",
}

func TestTargets(t *testing.T) {
	_, inj, _, _, _, _ := rig(t)
	want := TargetSet{Links: []string{"up0"}, Channels: []string{"ctl0"},
		Tables: []string{"tcam0"}, Controllers: []string{"proc0"}}
	if got := inj.TargetSet(); !reflect.DeepEqual(got, want) {
		t.Errorf("TargetSet() = %+v, want %+v", got, want)
	}
}

// ---- DSL parsing ----

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan(
		"linkflap:up0@100ms+200ms,period=20ms; tcamreject:tcam0@50ms+300ms,p=0.5,seed=7;" +
			"crash:proc0@400ms+150ms; ctldelay:ctl0@1s,delay=2ms; loss:up0@0s+1s,p=0.1",
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 100 * time.Millisecond, Kind: LinkFlap, Target: "up0", Duration: 200 * time.Millisecond, Period: 20 * time.Millisecond},
		{At: 50 * time.Millisecond, Kind: TCAMReject, Target: "tcam0", Duration: 300 * time.Millisecond, Prob: 0.5, Seed: 7},
		{At: 400 * time.Millisecond, Kind: ControllerCrash, Target: "proc0", Duration: 150 * time.Millisecond},
		{At: time.Second, Kind: ChannelDelay, Target: "ctl0", Delay: 2 * time.Millisecond},
		{At: 0, Kind: PacketLoss, Target: "up0", Duration: time.Second, Prob: 0.1},
	}
	if !reflect.DeepEqual(plan.Events, want) {
		t.Fatalf("ParsePlan = %+v, want %+v", plan.Events, want)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"",
		"   ;  ; ",
		"up0@100ms",                 // missing kind
		"warp:up0@100ms",            // unknown kind
		"linkdown:up0",              // missing @at
		"linkdown:up0@notatime",     // bad at
		"linkdown:up0@1s+notatime",  // bad duration
		"loss:up0@1s+1s,p=high",     // bad p
		"loss:up0@1s+1s,volume=11",  // unknown option
		"linkflap:up0@1s+1s,period", // malformed option
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

// ---- random plans ----

func TestRandomPlanDeterministicAndBounded(t *testing.T) {
	ts := TargetSet{
		Links:       []string{"up0", "down0"},
		Channels:    []string{"ctl0"},
		Tables:      []string{"tcam0"},
		Controllers: []string{"proc0"},
	}
	horizon := 10 * time.Second
	a := RandomPlan(99, horizon, ts)
	b := RandomPlan(99, horizon, ts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := RandomPlan(100, horizon, ts)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("empty random plan")
	}
	known := map[string]bool{"up0": true, "down0": true, "ctl0": true, "tcam0": true, "proc0": true}
	for _, ev := range a.Events {
		if !known[ev.Target] {
			t.Errorf("event targets unregistered %q", ev.Target)
		}
		if ev.At < horizon/10 {
			t.Errorf("event at %v starts before horizon/10", ev.At)
		}
		if end := ev.At + ev.Duration; end > horizon {
			t.Errorf("event window [%v,%v] outruns the horizon", ev.At, end)
		}
		if ev.Prob < 0 || ev.Prob > 1 {
			t.Errorf("event probability %v out of range", ev.Prob)
		}
	}
	// A random plan must validate against an injector holding the same
	// target set.
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 1)
	inj.RegisterLink("up0", &fakeLink{eng: eng})
	inj.RegisterLink("down0", &fakeLink{eng: eng})
	inj.RegisterChannel("ctl0", &fakeChan{fakeLink: fakeLink{eng: eng}})
	inj.RegisterTable("tcam0", &fakeTable{})
	inj.RegisterController("proc0", &fakeCtrl{})
	if err := inj.Apply(a); err != nil {
		t.Fatalf("random plan failed validation: %v", err)
	}
	eng.RunUntil(horizon)
	if inj.Applied == 0 {
		t.Error("random plan applied no transitions")
	}
}

func TestRandomPlanDegenerateTargets(t *testing.T) {
	p := RandomPlan(3, time.Second, TargetSet{Links: []string{"up0"}})
	if len(p.Events) == 0 {
		t.Fatal("plan for links-only target set is empty")
	}
	for _, ev := range p.Events {
		switch ev.Kind {
		case LinkDown, LinkFlap, PacketLoss:
		default:
			t.Errorf("links-only plan contains %v event", ev.Kind)
		}
	}
}

// ---- log determinism ----

func TestInjectorLogDeterministic(t *testing.T) {
	run := func() []string {
		eng, inj, _, _, _, _ := rig(t)
		plan := Plan{Events: []Event{
			{At: time.Millisecond, Kind: LinkFlap, Target: "up0", Duration: 10 * time.Millisecond, Period: 2 * time.Millisecond},
			{At: 5 * time.Millisecond, Kind: TCAMReject, Target: "tcam0", Duration: 5 * time.Millisecond, Prob: 0.5},
			{At: 8 * time.Millisecond, Kind: ControllerCrash, Target: "proc0", Duration: 2 * time.Millisecond},
		}}
		if err := inj.Apply(plan); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(time.Second)
		return inj.Log()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("logs differ:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty log")
	}
}

// ---- HA-era kinds: partitions and pauses ----

type fakePausable struct {
	eng    *sim.Engine
	events []string
}

func (f *fakePausable) Pause()  { f.events = append(f.events, fmt.Sprintf("%v pause", f.eng.Now())) }
func (f *fakePausable) Resume() { f.events = append(f.events, fmt.Sprintf("%v resume", f.eng.Now())) }

// allKindsSpec holds one clause of every kind.
const allKindsSpec = "linkdown:up0@1ms+2ms; linkflap:up0@3ms+4ms,period=1ms; loss:up0@5ms+6ms,p=0.1,seed=3;" +
	"ctldown:ctl0@7ms+8ms; ctlloss:ctl0@9ms+10ms,p=0.2; ctldelay:ctl0@11ms,delay=1ms;" +
	"tcamreject:tcam0@13ms+14ms,p=0.3; crash:proc0@15ms+16ms; storm:vm0@17ms+18ms,rate=5000;" +
	"statsloss:me0@19ms+20ms,p=0.4; statsdelay:me0@21ms+22ms,delay=2ms;" +
	"nicreset:nic0@23ms; niccorrupt:nic0@25ms,p=0.5,seed=9;" +
	"partition:tor1@27ms+28ms; apartition:tor2@29ms+30ms; pause:tor0@31ms+32ms"

func TestParsePlanAllKinds(t *testing.T) {
	// Every kind keyword must round-trip through the DSL into the exact
	// Event it denotes — including the HA-era partition/apartition/pause
	// clauses.
	plan, err := ParsePlan(allKindsSpec)
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	want := []Event{
		{At: ms(1), Kind: LinkDown, Target: "up0", Duration: ms(2)},
		{At: ms(3), Kind: LinkFlap, Target: "up0", Duration: ms(4), Period: ms(1)},
		{At: ms(5), Kind: PacketLoss, Target: "up0", Duration: ms(6), Prob: 0.1, Seed: 3},
		{At: ms(7), Kind: ChannelDown, Target: "ctl0", Duration: ms(8)},
		{At: ms(9), Kind: ChannelLoss, Target: "ctl0", Duration: ms(10), Prob: 0.2},
		{At: ms(11), Kind: ChannelDelay, Target: "ctl0", Delay: ms(1)},
		{At: ms(13), Kind: TCAMReject, Target: "tcam0", Duration: ms(14), Prob: 0.3},
		{At: ms(15), Kind: ControllerCrash, Target: "proc0", Duration: ms(16)},
		{At: ms(17), Kind: MissStorm, Target: "vm0", Duration: ms(18), Rate: 5000},
		{At: ms(19), Kind: StatsLoss, Target: "me0", Duration: ms(20), Prob: 0.4},
		{At: ms(21), Kind: StatsDelay, Target: "me0", Duration: ms(22), Delay: ms(2)},
		{At: ms(23), Kind: NICReset, Target: "nic0"},
		{At: ms(25), Kind: NICCorrupt, Target: "nic0", Prob: 0.5, Seed: 9},
		{At: ms(27), Kind: PartitionNode, Target: "tor1", Duration: ms(28)},
		{At: ms(29), Kind: PartitionAsym, Target: "tor2", Duration: ms(30)},
		{At: ms(31), Kind: ControllerPause, Target: "tor0", Duration: ms(32)},
	}
	if !reflect.DeepEqual(plan.Events, want) {
		t.Fatalf("ParsePlan = %+v, want %+v", plan.Events, want)
	}
}

func TestPartitionAndPauseApply(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 7)
	in := &fakeChan{fakeLink: fakeLink{eng: eng}}
	out := &fakeChan{fakeLink: fakeLink{eng: eng}}
	p := &fakePausable{eng: eng}
	inj.RegisterPartition("node0", []Channel{in}, []Channel{out})
	inj.RegisterPausable("proc0", p)
	plan := Plan{Events: []Event{
		{At: time.Millisecond, Kind: PartitionNode, Target: "node0", Duration: 2 * time.Millisecond},
		{At: 5 * time.Millisecond, Kind: PartitionAsym, Target: "node0", Duration: 2 * time.Millisecond},
		{At: 9 * time.Millisecond, Kind: ControllerPause, Target: "proc0", Duration: 3 * time.Millisecond},
	}}
	if err := inj.Apply(plan); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	// Symmetric partition severs and heals both directions; asymmetric
	// touches only outbound.
	wantOut := []string{"1ms down=true", "3ms down=false", "5ms down=true", "7ms down=false"}
	wantIn := []string{"1ms down=true", "3ms down=false"}
	if !reflect.DeepEqual(out.events, wantOut) {
		t.Errorf("outbound events = %v, want %v", out.events, wantOut)
	}
	if !reflect.DeepEqual(in.events, wantIn) {
		t.Errorf("inbound events = %v, want %v", in.events, wantIn)
	}
	wantP := []string{"9ms pause", "12ms resume"}
	if !reflect.DeepEqual(p.events, wantP) {
		t.Errorf("pausable events = %v, want %v", p.events, wantP)
	}
}

func TestUnknownTargetErrorListsRegistered(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := NewInjector(eng, 7)
	inj.RegisterPartition("tor0", nil, nil)
	inj.RegisterPartition("tor1", nil, nil)
	inj.RegisterPausable("proc0", &fakePausable{eng: eng})
	err := inj.Apply(Plan{Events: []Event{{Kind: PartitionNode, Target: "nope"}}})
	if err == nil {
		t.Fatal("unknown partition target accepted")
	}
	for _, name := range []string{"tor0", "tor1"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered target %q", err, name)
		}
	}
	err = inj.Apply(Plan{Events: []Event{{Kind: ControllerPause, Target: "nope"}}})
	if err == nil {
		t.Fatal("unknown pausable target accepted")
	}
	if !strings.Contains(err.Error(), "proc0") {
		t.Errorf("error %q does not list registered target proc0", err)
	}
}

func TestRandomPlanExtendedTargets(t *testing.T) {
	ts := TargetSet{
		Links:       []string{"up0"},
		Channels:    []string{"ctl0"},
		Tables:      []string{"tcam0"},
		Controllers: []string{"proc0"},
		Partitions:  []string{"tor0", "tor1"},
		Pausables:   []string{"tor0", "tor1", "tor2"},
	}
	horizon := 10 * time.Second
	a := RandomPlan(42, horizon, ts)
	b := RandomPlan(42, horizon, ts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans over extended targets")
	}
	// Across a spread of seeds the widened lottery must actually draw the
	// new kinds — a plan generator that never emits partitions or pauses
	// would silently un-test the HA paths.
	seen := map[Kind]bool{}
	for seed := int64(0); seed < 64; seed++ {
		for _, ev := range RandomPlan(seed, horizon, ts).Events {
			seen[ev.Kind] = true
			if ev.Kind == PartitionNode || ev.Kind == PartitionAsym || ev.Kind == ControllerPause {
				if ev.Duration <= 0 {
					t.Errorf("seed %d: %v event without a healing window", seed, ev.Kind)
				}
			}
		}
	}
	for _, k := range []Kind{PartitionNode, PartitionAsym, ControllerPause} {
		if !seen[k] {
			t.Errorf("64 seeds never drew a %v event", k)
		}
	}
	// Widening the target set must not disturb plans drawn without the
	// new categories: the HA lottery slots only open when populated.
	base := TargetSet{Links: ts.Links, Channels: ts.Channels, Tables: ts.Tables, Controllers: ts.Controllers}
	if !reflect.DeepEqual(RandomPlan(7, horizon, base), RandomPlan(7, horizon, TargetSet{
		Links: ts.Links, Channels: ts.Channels, Tables: ts.Tables, Controllers: ts.Controllers,
		Partitions: nil, Pausables: nil,
	})) {
		t.Error("empty extended categories changed the base plan")
	}
}
