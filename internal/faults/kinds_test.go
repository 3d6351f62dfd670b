package faults

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// recorder is a fake for every fault surface at once: each call it
// receives is written down with the virtual time it arrived at. A random
// source handed to it is sampled once, so the list also pins which seed
// an event's private RNG starts from.
type recorder struct {
	eng   *sim.Engine
	calls []string
}

func (r *recorder) add(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf("%v %s", r.eng.Now(), fmt.Sprintf(format, args...)))
}

func draw(rng *rand.Rand) string {
	if rng == nil {
		return "nil"
	}
	return fmt.Sprint(rng.Intn(1000))
}

func (r *recorder) SetDown(down bool)                 { r.add("SetDown(%v)", down) }
func (r *recorder) SetLoss(p float64, rng *rand.Rand) { r.add("SetLoss(%.3f, %s)", p, draw(rng)) }
func (r *recorder) SetExtraDelay(d time.Duration)     { r.add("SetExtraDelay(%v)", d) }
func (r *recorder) Crash()                            { r.add("Crash") }
func (r *recorder) Restart()                          { r.add("Restart") }
func (r *recorder) Pause()                            { r.add("Pause") }
func (r *recorder) Resume()                           { r.add("Resume") }
func (r *recorder) SetStorm(pps float64)              { r.add("SetStorm(%.0f)", pps) }
func (r *recorder) SetStatsDelay(d time.Duration)     { r.add("SetStatsDelay(%v)", d) }
func (r *recorder) ResetTable() int                   { r.add("ResetTable"); return 3 }

func (r *recorder) SetStatsLoss(p float64, rng *rand.Rand) {
	r.add("SetStatsLoss(%.3f, %s)", p, draw(rng))
}

func (r *recorder) CorruptRules(p float64, rng *rand.Rand) int {
	r.add("CorruptRules(%.3f, %s)", p, draw(rng))
	return 2
}

// SetInstallFault records the outcome of the first four installs the
// fault would see.
func (r *recorder) SetInstallFault(f func() error) {
	if f == nil {
		r.add("SetInstallFault(nil)")
		return
	}
	var outcomes []string
	for i := 0; i < 4; i++ {
		if f() == ErrInjected {
			outcomes = append(outcomes, "reject")
		} else {
			outcomes = append(outcomes, "pass")
		}
	}
	r.add("SetInstallFault(%s)", strings.Join(outcomes, ","))
}

// kindRig registers a recorder on each of the nine target surfaces under
// the names the plan in TestEveryKindAppliesAndClears uses.
type kindRig struct {
	eng                              *sim.Engine
	inj                              *Injector
	link, dirA, dirB, table, ctrl    *recorder
	storm, stats, nic, inbound, outb *recorder
}

func newKindRig(seed int64) *kindRig {
	eng := sim.NewEngine(1)
	r := &kindRig{eng: eng, inj: NewInjector(eng, seed)}
	for _, p := range []**recorder{&r.link, &r.dirA, &r.dirB, &r.table, &r.ctrl,
		&r.storm, &r.stats, &r.nic, &r.inbound, &r.outb} {
		*p = &recorder{eng: eng}
	}
	r.inj.RegisterLink("up0", r.link)
	r.inj.RegisterChannel("ctl0", r.dirA, r.dirB)
	r.inj.RegisterTable("tcam0", r.table)
	r.inj.RegisterController("proc0", r.ctrl)
	r.inj.RegisterPausable("proc0", r.ctrl)
	r.inj.RegisterStormer("storm0", r.storm)
	r.inj.RegisterStatsTap("stats0", r.stats)
	r.inj.RegisterNIC("nic0", r.nic)
	r.inj.RegisterPartition("node0", []Channel{r.inbound}, []Channel{r.outb})
	return r
}

// TestEveryKindAppliesAndClears applies one plan holding all sixteen
// kinds, windowed and permanent, and pins the injector's log and every
// call each target saw, byte for byte.
func TestEveryKindAppliesAndClears(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	r := newKindRig(42)
	plan := Plan{Events: []Event{
		{At: ms(1), Kind: LinkDown, Target: "up0", Duration: ms(2)},
		{At: ms(1), Kind: ChannelDown, Target: "ctl0", Duration: ms(2)},
		{At: ms(4), Kind: LinkFlap, Target: "up0", Duration: ms(6), Period: ms(2)},
		{At: ms(12), Kind: LinkFlap, Target: "up0", Duration: ms(16)},
		{At: ms(30), Kind: PacketLoss, Target: "up0", Duration: ms(5), Prob: 0.25},
		{At: ms(40), Kind: PacketLoss, Target: "up0", Prob: 0.5},
		{At: ms(41), Kind: LinkDown, Target: "up0"},
		{At: ms(5), Kind: ChannelLoss, Target: "ctl0", Duration: ms(3), Prob: 0.125},
		{At: ms(9), Kind: ChannelDelay, Target: "ctl0", Duration: ms(2), Delay: 500 * time.Microsecond},
		{At: ms(20), Kind: ChannelDown, Target: "ctl0"},
		{At: ms(21), Kind: ChannelLoss, Target: "ctl0", Prob: 0.75, Seed: 5},
		{At: ms(22), Kind: ChannelDelay, Target: "ctl0", Delay: ms(3)},
		{At: ms(2), Kind: TCAMReject, Target: "tcam0", Duration: ms(4)},
		{At: ms(10), Kind: TCAMReject, Target: "nic0", Prob: 0.5, Seed: 11},
		{At: ms(3), Kind: ControllerCrash, Target: "proc0", Duration: ms(5)},
		{At: ms(30), Kind: ControllerCrash, Target: "proc0"},
		{At: ms(10), Kind: ControllerPause, Target: "proc0", Duration: ms(5)},
		{At: ms(25), Kind: ControllerPause, Target: "proc0"},
		{At: ms(6), Kind: MissStorm, Target: "storm0", Duration: ms(4)},
		{At: ms(15), Kind: MissStorm, Target: "storm0", Rate: 2500},
		{At: ms(7), Kind: StatsLoss, Target: "stats0", Duration: ms(3)},
		{At: ms(12), Kind: StatsDelay, Target: "stats0", Duration: ms(2), Delay: ms(20)},
		{At: ms(16), Kind: StatsLoss, Target: "stats0", Prob: 0.25},
		{At: ms(17), Kind: StatsDelay, Target: "stats0", Delay: ms(1)},
		{At: ms(8), Kind: NICReset, Target: "nic0", Duration: ms(10), Period: ms(3)},
		{At: ms(19), Kind: NICReset, Target: "nic0"},
		{At: ms(20), Kind: NICCorrupt, Target: "nic0"},
		{At: ms(2), Kind: PartitionNode, Target: "node0", Duration: ms(3)},
		{At: ms(6), Kind: PartitionAsym, Target: "node0", Duration: ms(2)},
		{At: ms(18), Kind: PartitionNode, Target: "node0"},
		{At: ms(24), Kind: PartitionAsym, Target: "node0"},
	}}
	if err := r.inj.Apply(plan); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(time.Second)

	check := func(what string, got, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", what, got, want)
		}
	}
	check("log", r.inj.Log(), []string{
		"         1ms link up0 down",
		"         1ms channel ctl0 down",
		"         2ms table tcam0 rejecting installs p=1.000",
		"         2ms partition node0 isolated",
		"         3ms link up0 up",
		"         3ms channel ctl0 up",
		"         3ms controller proc0 crashed",
		"         4ms link up0 flap down",
		"         5ms channel ctl0 loss p=0.125",
		"         5ms partition node0 healed",
		"         6ms table tcam0 install fault cleared",
		"         6ms stormer storm0 storming at 10000 pps",
		"         6ms partition node0 outbound severed",
		"         6ms link up0 flap up",
		"         7ms stats stats0 loss p=1.000",
		"         8ms channel ctl0 loss cleared",
		"         8ms controller proc0 restarted",
		"         8ms nic nic0 reset (3 rules lost)",
		"         8ms partition node0 healed",
		"         8ms link up0 flap down",
		"         9ms channel ctl0 +500µs delay",
		"        10ms table nic0 rejecting installs p=0.500",
		"        10ms controller proc0 paused",
		"        10ms stormer storm0 storm cleared",
		"        10ms stats stats0 loss cleared",
		"        10ms link up0 flap end (up)",
		"        11ms channel ctl0 delay cleared",
		"        11ms nic nic0 reset (3 rules lost)",
		"        12ms link up0 flap down",
		"        12ms stats stats0 +20ms delay",
		"        14ms stats stats0 delay cleared",
		"        14ms nic nic0 reset (3 rules lost)",
		"        14ms link up0 flap up",
		"        15ms controller proc0 resumed",
		"        15ms stormer storm0 storming at 2500 pps",
		"        16ms stats stats0 loss p=0.250",
		"        16ms link up0 flap down",
		"        17ms stats stats0 +1ms delay",
		"        17ms nic nic0 reset (3 rules lost)",
		"        18ms partition node0 isolated",
		"        18ms link up0 flap up",
		"        19ms nic nic0 reset (3 rules lost)",
		"        20ms channel ctl0 down",
		"        20ms nic nic0 corrupted (2 rules lost, p=0.500)",
		"        20ms link up0 flap down",
		"        21ms channel ctl0 loss p=0.750",
		"        22ms channel ctl0 +3ms delay",
		"        22ms link up0 flap up",
		"        24ms partition node0 outbound severed",
		"        24ms link up0 flap down",
		"        25ms controller proc0 paused",
		"        26ms link up0 flap up",
		"        28ms link up0 flap end (up)",
		"        30ms link up0 loss p=0.250",
		"        30ms controller proc0 crashed",
		"        35ms link up0 loss cleared",
		"        40ms link up0 loss p=0.500",
		"        41ms link up0 down",
	})
	check("link", r.link.calls, []string{
		"1ms SetDown(true)",
		"3ms SetDown(false)",
		"4ms SetDown(true)",
		"6ms SetDown(false)",
		"8ms SetDown(true)",
		"10ms SetDown(false)",
		"12ms SetDown(true)",
		"14ms SetDown(false)",
		"16ms SetDown(true)",
		"18ms SetDown(false)",
		"20ms SetDown(true)",
		"22ms SetDown(false)",
		"24ms SetDown(true)",
		"26ms SetDown(false)",
		"28ms SetDown(false)",
		"30ms SetLoss(0.250, 697)",
		"35ms SetLoss(0.000, nil)",
		"40ms SetLoss(0.500, 651)",
		"41ms SetDown(true)",
	})
	check("channel dir A", r.dirA.calls, []string{
		"1ms SetDown(true)",
		"3ms SetDown(false)",
		"5ms SetLoss(0.125, 652)",
		"8ms SetLoss(0.000, nil)",
		"9ms SetExtraDelay(500µs)",
		"11ms SetExtraDelay(0s)",
		"20ms SetDown(true)",
		"21ms SetLoss(0.750, 626)",
		"22ms SetExtraDelay(3ms)",
	})
	check("channel dir B", r.dirB.calls, []string{
		"1ms SetDown(true)",
		"3ms SetDown(false)",
		"5ms SetLoss(0.125, 856)",
		"8ms SetLoss(0.000, nil)",
		"9ms SetExtraDelay(500µs)",
		"11ms SetExtraDelay(0s)",
		"20ms SetDown(true)",
		"21ms SetLoss(0.750, 836)",
		"22ms SetExtraDelay(3ms)",
	})
	check("table", r.table.calls, []string{
		"2ms SetInstallFault(reject,reject,reject,reject)",
		"6ms SetInstallFault(nil)",
	})
	check("controller", r.ctrl.calls, []string{
		"3ms Crash",
		"8ms Restart",
		"10ms Pause",
		"15ms Resume",
		"25ms Pause",
		"30ms Crash",
	})
	check("stormer", r.storm.calls, []string{
		"6ms SetStorm(10000)",
		"10ms SetStorm(0)",
		"15ms SetStorm(2500)",
	})
	check("stats tap", r.stats.calls, []string{
		"7ms SetStatsLoss(1.000, 784)",
		"10ms SetStatsLoss(0.000, nil)",
		"12ms SetStatsDelay(20ms)",
		"14ms SetStatsDelay(0s)",
		"16ms SetStatsLoss(0.250, 845)",
		"17ms SetStatsDelay(1ms)",
	})
	check("nic", r.nic.calls, []string{
		"8ms ResetTable",
		"10ms SetInstallFault(reject,pass,pass,pass)",
		"11ms ResetTable",
		"14ms ResetTable",
		"17ms ResetTable",
		"19ms ResetTable",
		"20ms CorruptRules(0.500, 130)",
	})
	check("partition inbound", r.inbound.calls, []string{
		"2ms SetDown(true)",
		"5ms SetDown(false)",
		"18ms SetDown(true)",
	})
	check("partition outbound", r.outb.calls, []string{
		"2ms SetDown(true)",
		"5ms SetDown(false)",
		"6ms SetDown(true)",
		"8ms SetDown(false)",
		"18ms SetDown(true)",
		"24ms SetDown(true)",
	})
	if r.inj.Applied != 58 {
		t.Errorf("Applied = %d, want 58 (one per log line)", r.inj.Applied)
	}
}
