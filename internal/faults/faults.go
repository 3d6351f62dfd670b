// Package faults is the testbed's deterministic fault-injection
// subsystem. The paper's headline claims beyond raw speed are
// seamlessness (§4.1.2: offloaded flows survive disruption without
// blackholing) and scalability without coordination (§4.3.3); this
// package supplies the adversary those claims are tested against.
//
// A Plan is a declarative list of timed Events — link failures and flaps,
// probabilistic packet loss, control-channel severance and delay,
// hardware rule-install rejection, controller crash/restart and pause,
// node partitions, miss storms, stats loss and delay, SmartNIC resets and
// corruption. An Injector binds the plan to named targets registered by
// the testbed and schedules everything on the sim engine, so a chaos run
// is exactly as reproducible as a fault-free one: same seed, same
// byte-identical event log.
//
// One table (kinds) gives every Kind its plan-DSL name, the options it
// reads and the target surface it acts on; one registry keyed by surface and name holds every
// target. A new kind is a constant, a table row and a case in schedule.
//
// The package deliberately knows nothing about fabric/openflow/tor/core —
// targets plug in through the small interfaces below, which those
// packages implement.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// ErrInjected is the error surfaced by injected hardware rejections.
var ErrInjected = errors.New("faults: injected hardware rejection")

// Kind discriminates fault event types.
type Kind uint8

// Fault kinds.
const (
	// LinkDown fails a link for Duration (0 = permanently).
	LinkDown Kind = iota + 1
	// LinkFlap toggles a link down/up every Period within
	// [At, At+Duration), ending in the up state.
	LinkFlap
	// PacketLoss drops each packet on a link with probability Prob for
	// Duration.
	PacketLoss
	// ChannelDown severs a control connection (both directions) for
	// Duration — the OpenFlow-disconnect fault.
	ChannelDown
	// ChannelLoss drops each control message with probability Prob for
	// Duration.
	ChannelLoss
	// ChannelDelay adds Delay of extra one-way latency to a control
	// connection for Duration.
	ChannelDelay
	// TCAMReject makes hardware rule installs fail with probability
	// Prob (default 1) for Duration (0 = permanently).
	TCAMReject
	// ControllerCrash crashes a controller at At and restarts it after
	// Duration (0 = it stays down).
	ControllerCrash
	// MissStorm drives a registered storm source at Rate new-flow misses
	// per second for Duration — the slow-path overload adversary.
	MissStorm
	// StatsLoss drops each stats report from a measurement engine with
	// probability Prob for Duration.
	StatsLoss
	// StatsDelay defers each stats report from a measurement engine by
	// Delay for Duration.
	StatsDelay
	// NICReset clears a SmartNIC's entire rule table at At (a firmware
	// reset); with Period > 0 and Duration > 0 the reset repeats every
	// Period within the window.
	NICReset
	// NICCorrupt silently drops each SmartNIC rule with probability Prob
	// (default 0.5) at At — partial table corruption the controller must
	// detect and repair by reasserting desired state.
	NICCorrupt
	// PartitionNode severs every registered control channel touching a
	// node — both directions — for Duration (0 = permanently): the node
	// is isolated from switch, locals and replica peers but keeps
	// running. The HA experiments' symmetric network partition.
	PartitionNode
	// PartitionAsym severs only the node's outbound channel directions:
	// the node still hears the world but nothing it says gets out — the
	// asymmetric partition that exercises epoch fencing (a mute
	// ex-leader resumes sending with a stale term after the heal).
	PartitionAsym
	// ControllerPause freezes a pausable controller at At and resumes it
	// after Duration (0 = it stays frozen). Distinct from
	// ControllerCrash: state survives the freeze, but leadership does
	// not — a resumed process must rejoin as a follower.
	ControllerPause
)

// surface is a kind of fault target: what a registered name stands for.
type surface uint8

const (
	linkSurface surface = iota
	channelSurface
	tableSurface
	controllerSurface
	stormerSurface
	statsSurface
	nicSurface
	partitionSurface
	pausableSurface
)

// surfaces names each surface as validation errors call it (category)
// and as the injector log calls it (noun).
var surfaces = [...]struct{ category, noun string }{
	linkSurface:       {"link", "link"},
	channelSurface:    {"channel", "channel"},
	tableSurface:      {"table", "table"},
	controllerSurface: {"controller", "controller"},
	stormerSurface:    {"stormer", "stormer"},
	statsSurface:      {"stats tap", "stats"},
	nicSurface:        {"nic", "nic"},
	partitionSurface:  {"partition node", "partition"},
	pausableSurface:   {"pausable controller", "controller"},
}

// options parses each plan-DSL option into the Event field it names.
var options = map[string]func(ev *Event, v string) error{
	"p":      func(ev *Event, v string) (err error) { ev.Prob, err = strconv.ParseFloat(v, 64); return err },
	"period": func(ev *Event, v string) (err error) { ev.Period, err = time.ParseDuration(v); return err },
	"delay":  func(ev *Event, v string) (err error) { ev.Delay, err = time.ParseDuration(v); return err },
	"seed":   func(ev *Event, v string) (err error) { ev.Seed, err = strconv.ParseInt(v, 10, 64); return err },
	"rate":   func(ev *Event, v string) (err error) { ev.Rate, err = strconv.ParseFloat(v, 64); return err },
}

// kinds gives each Kind its plan-DSL name, the surface its target is
// registered on and the options it reads; a plan naming any other option
// for it is refused.
var kinds = [...]struct {
	name    string
	surface surface
	opts    []string
}{
	LinkDown:        {"linkdown", linkSurface, nil},
	LinkFlap:        {"linkflap", linkSurface, []string{"period"}},
	PacketLoss:      {"loss", linkSurface, []string{"p", "seed"}},
	ChannelDown:     {"ctldown", channelSurface, nil},
	ChannelLoss:     {"ctlloss", channelSurface, []string{"p", "seed"}},
	ChannelDelay:    {"ctldelay", channelSurface, []string{"delay"}},
	TCAMReject:      {"tcamreject", tableSurface, []string{"p", "seed"}},
	ControllerCrash: {"crash", controllerSurface, nil},
	MissStorm:       {"storm", stormerSurface, []string{"rate"}},
	StatsLoss:       {"statsloss", statsSurface, []string{"p", "seed"}},
	StatsDelay:      {"statsdelay", statsSurface, []string{"delay"}},
	NICReset:        {"nicreset", nicSurface, []string{"period"}},
	NICCorrupt:      {"niccorrupt", nicSurface, []string{"p", "seed"}},
	PartitionNode:   {"partition", partitionSurface, nil},
	PartitionAsym:   {"apartition", partitionSurface, nil},
	ControllerPause: {"pause", pausableSurface, nil},
}

func (k Kind) known() bool { return k > 0 && int(k) < len(kinds) }

func (k Kind) String() string {
	if !k.known() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kinds[k].name
}

// Event is one scheduled fault.
type Event struct {
	// At is when the fault strikes (virtual time).
	At time.Duration
	// Kind selects the fault; Target names the registered victim.
	Kind   Kind
	Target string
	// Duration is the fault window; 0 means permanent (except LinkFlap,
	// where it bounds the flapping).
	Duration time.Duration
	// Prob parameterizes probabilistic kinds (PacketLoss, ChannelLoss,
	// TCAMReject and StatsLoss, the last two defaulting to 1 when 0;
	// NICCorrupt, defaulting to 0.5).
	Prob float64
	// Period is the LinkFlap toggle interval (default Duration/8) or the
	// NICReset repeat interval (0 = one reset).
	Period time.Duration
	// Delay is the ChannelDelay (or StatsDelay) extra latency.
	Delay time.Duration
	// Rate is the MissStorm intensity in new-flow misses per second
	// (default 10000).
	Rate float64
	// Seed derives the event's private RNG for probabilistic kinds, so
	// two plans differing only in one event's seed stay otherwise
	// comparable. 0 falls back to the injector seed + event index.
	Seed int64
}

// Plan is a declarative fault schedule.
type Plan struct {
	Events []Event
}

// Link is the fault surface of a physical wire (fabric.Link implements
// it).
type Link interface {
	SetDown(down bool)
	SetLoss(prob float64, rng *rand.Rand)
}

// Channel is the fault surface of one control-connection direction
// (openflow.Transport implements it). A registered connection is the set
// of its directions; faults apply to all of them.
type Channel interface {
	SetDown(down bool)
	SetLoss(prob float64, rng *rand.Rand)
	SetExtraDelay(d time.Duration)
}

// HardwareTable is the fault surface of a switch rule memory (tor.TOR
// implements it).
type HardwareTable interface {
	SetInstallFault(f func() error)
}

// Controller is the fault surface of a crashable control process
// (core.TORController implements it).
type Controller interface {
	Crash()
	Restart()
}

// Pausable is the fault surface of a freezable control process
// (core.TORController implements it): Pause stops the process without
// losing its state — timers stop firing and in-flight messages are lost,
// as for a live-migrated or GC-stalled VM — and Resume thaws it as a
// follower.
type Pausable interface {
	Pause()
	Resume()
}

// conn is a registered control connection: every direction of it. A
// channel fault acts on all of them, so conn is itself a Channel.
type conn []Channel

func (c conn) SetDown(down bool) {
	for _, d := range c {
		d.SetDown(down)
	}
}

func (c conn) SetLoss(prob float64, rng *rand.Rand) {
	for _, d := range c {
		d.SetLoss(prob, rng)
	}
}

func (c conn) SetExtraDelay(x time.Duration) {
	for _, d := range c {
		d.SetExtraDelay(x)
	}
}

// partition is one node's registered channel directions: all of them,
// which a symmetric partition severs, and the outbound ones (what the
// node says), which an asymmetric partition severs while it still hears.
type partition struct {
	all, outbound conn
}

// Stormer is the fault surface of a miss-storm source: something that can
// generate fresh-flow slow-path misses at a controlled rate (the overload
// experiment's storm driver implements it). SetStorm(0) stops the storm.
type Stormer interface {
	SetStorm(pps float64)
}

// StatsTap is the fault surface of a statistics reporting path
// (measure.Engine implements it): reports can be probabilistically lost
// or uniformly delayed, modelling a congested or flaky control network
// between the measurement engine and the decision engine.
type StatsTap interface {
	SetStatsLoss(prob float64, rng *rand.Rand)
	SetStatsDelay(d time.Duration)
}

// NICTable is the fault surface of a SmartNIC match-action table
// (smartnic.NIC implements it): firmware resets lose the whole table,
// corruption loses a random subset, and installs can be made to fail like
// any hardware table's.
type NICTable interface {
	HardwareTable
	ResetTable() int
	CorruptRules(prob float64, rng *rand.Rand) int
}

// target names one registered victim.
type target struct {
	surface surface
	name    string
}

// Injector binds fault plans to registered targets on a sim engine.
type Injector struct {
	eng  *sim.Engine
	seed int64

	// targets holds every registered victim as the type its surface's
	// Register method takes (a conn for channels, a partition for
	// partition nodes).
	targets map[target]any

	log []string
	// Applied counts fault transitions executed.
	Applied uint64
}

// NewInjector returns an injector for the engine. seed drives the
// per-event RNGs of probabilistic faults (not the engine's own RNG, so
// fault randomness is isolated from model randomness).
func NewInjector(eng *sim.Engine, seed int64) *Injector {
	return &Injector{eng: eng, seed: seed, targets: make(map[target]any)}
}

func (in *Injector) register(s surface, name string, v any) { in.targets[target{s, name}] = v }

// RegisterLink names a wire target.
func (in *Injector) RegisterLink(name string, l Link) { in.register(linkSurface, name, l) }

// RegisterChannel names a control connection; pass every direction of the
// connection so a ChannelDown severs it completely.
func (in *Injector) RegisterChannel(name string, dirs ...Channel) {
	in.register(channelSurface, name, conn(dirs))
}

// RegisterTable names a hardware rule table target.
func (in *Injector) RegisterTable(name string, t HardwareTable) { in.register(tableSurface, name, t) }

// RegisterController names a crashable controller target.
func (in *Injector) RegisterController(name string, c Controller) {
	in.register(controllerSurface, name, c)
}

// RegisterStormer names a miss-storm source target.
func (in *Injector) RegisterStormer(name string, s Stormer) { in.register(stormerSurface, name, s) }

// RegisterStatsTap names a statistics reporting path target.
func (in *Injector) RegisterStatsTap(name string, s StatsTap) { in.register(statsSurface, name, s) }

// RegisterNIC names a SmartNIC table target. The NIC is also registered
// as a hardware table under the same name, so TCAMReject (install-fault)
// events apply to it too.
func (in *Injector) RegisterNIC(name string, n NICTable) {
	in.register(nicSurface, name, n)
	in.register(tableSurface, name, n)
}

// RegisterPartition names a partitionable node by the full set of its
// control-channel directions: inbound carries what the node hears,
// outbound what it says. PartitionNode severs both, PartitionAsym only
// outbound.
func (in *Injector) RegisterPartition(name string, inbound, outbound []Channel) {
	all := append(append(conn(nil), inbound...), outbound...)
	in.register(partitionSurface, name, partition{all: all, outbound: outbound})
}

// RegisterPausable names a freezable controller target.
func (in *Injector) RegisterPausable(name string, p Pausable) { in.register(pausableSurface, name, p) }

// names lists the targets registered on a surface, sorted.
func (in *Injector) names(s surface) []string {
	var out []string
	for t := range in.targets {
		if t.surface == s {
			out = append(out, t.name)
		}
	}
	sort.Strings(out)
	return out
}

// TargetSet lists every registered target by surface, sorted. A caller
// that wants a random plan over fewer surfaces clears their fields before
// handing the set to RandomPlan.
func (in *Injector) TargetSet() TargetSet {
	return TargetSet{
		Links:       in.names(linkSurface),
		Channels:    in.names(channelSurface),
		Tables:      in.names(tableSurface),
		Controllers: in.names(controllerSurface),
		Stormers:    in.names(stormerSurface),
		StatsTaps:   in.names(statsSurface),
		NICs:        in.names(nicSurface),
		Partitions:  in.names(partitionSurface),
		Pausables:   in.names(pausableSurface),
	}
}

// Log returns the chronological record of applied fault transitions. Two
// runs with identical seeds produce byte-identical logs — the determinism
// harness diffs them.
func (in *Injector) Log() []string { return in.log }

func (in *Injector) logf(format string, args ...any) {
	in.Applied++
	in.log = append(in.log, fmt.Sprintf("%12v %s", in.eng.Now(), fmt.Sprintf(format, args...)))
}

// Apply validates every event and schedules the whole plan. Events are
// scheduled in plan order; equal-time events fire in plan order too (the
// engine's FIFO tie-break).
func (in *Injector) Apply(p Plan) error {
	for i, ev := range p.Events {
		if err := in.validate(ev); err != nil {
			return fmt.Errorf("faults: event %d (%s %s): %w", i, ev.Kind, ev.Target, err)
		}
	}
	for i, ev := range p.Events {
		in.schedule(i, ev)
	}
	return nil
}

const (
	// maxTime bounds every time an event names (about 73 years), so no
	// sum of At, Duration and Period overflows.
	maxTime = time.Duration(1) << 61
	// maxSteps bounds how many times a LinkFlap toggles or a NICReset
	// repeats: a period far below its window would otherwise schedule
	// more events than the engine can hold.
	maxSteps = 10000
)

// validate refuses an event the engine cannot run: an unknown kind or
// target, a time before now, a negative or overlong time, a period that
// splits the window into more than maxSteps steps, or a probability or
// rate that is not a finite number in range.
func (in *Injector) validate(ev Event) error {
	if !ev.Kind.known() {
		return fmt.Errorf("unknown kind %d", ev.Kind)
	}
	s := kinds[ev.Kind].surface
	if _, ok := in.targets[target{s, ev.Target}]; !ok {
		category, valid := surfaces[s].category, in.names(s)
		if len(valid) == 0 {
			return fmt.Errorf("unknown %s %q (no %ss registered)", category, ev.Target, category)
		}
		return fmt.Errorf("unknown %s %q (registered %ss: %s)",
			category, ev.Target, category, strings.Join(valid, ", "))
	}
	switch {
	case math.IsNaN(ev.Rate) || math.IsInf(ev.Rate, 0):
		return fmt.Errorf("storm rate %v not finite", ev.Rate)
	case ev.Rate < 0:
		return fmt.Errorf("negative storm rate %v", ev.Rate)
	case !(ev.Prob >= 0 && ev.Prob <= 1):
		return fmt.Errorf("probability %v out of [0,1]", ev.Prob)
	case ev.At < in.eng.Now():
		return fmt.Errorf("at %v before now %v", ev.At, in.eng.Now())
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"at", ev.At}, {"duration", ev.Duration}, {"period", ev.Period}, {"delay", ev.Delay}} {
		if d.v < 0 {
			return fmt.Errorf("negative %s %v", d.name, d.v)
		}
		if d.v > maxTime {
			return fmt.Errorf("%s %v beyond %v", d.name, d.v, maxTime)
		}
	}
	if (ev.Kind == LinkFlap || ev.Kind == NICReset) && ev.Period > 0 && ev.Duration/ev.Period > maxSteps {
		return fmt.Errorf("period %v splits duration %v into more than %d steps", ev.Period, ev.Duration, maxSteps)
	}
	return nil
}

// rng builds the event's private deterministic source.
func (in *Injector) rng(idx int, ev Event) *rand.Rand {
	seed := ev.Seed
	if seed == 0 {
		seed = in.seed + int64(idx)*7919
	}
	return rand.New(rand.NewSource(seed))
}

// orDefault returns v, or def when v is zero: the default of an unset
// probability or rate.
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// schedule makes the engine calls that play ev. LinkFlap, NICReset and
// NICCorrupt keep timing of their own; every other kind is a window.
func (in *Injector) schedule(idx int, ev Event) {
	t := in.targets[target{kinds[ev.Kind].surface, ev.Target}]
	switch ev.Kind {
	case LinkDown, ChannelDown:
		l := t.(Link)
		in.window(ev, func() { l.SetDown(true) }, func() { l.SetDown(false) }, "down", "up")
	case PartitionNode, PartitionAsym:
		dirs, applied := t.(partition).all, "isolated"
		if ev.Kind == PartitionAsym {
			dirs, applied = t.(partition).outbound, "outbound severed"
		}
		in.window(ev, func() { dirs.SetDown(true) }, func() { dirs.SetDown(false) }, applied, "healed")
	case PacketLoss, ChannelLoss:
		l, rng := t.(Link), in.rng(idx, ev)
		in.window(ev, func() { l.SetLoss(ev.Prob, rng) }, func() { l.SetLoss(0, nil) },
			fmt.Sprintf("loss p=%.3f", ev.Prob), "loss cleared")
	case ChannelDelay:
		c := t.(Channel)
		in.window(ev, func() { c.SetExtraDelay(ev.Delay) }, func() { c.SetExtraDelay(0) },
			fmt.Sprintf("+%v delay", ev.Delay), "delay cleared")
	case TCAMReject:
		tbl, prob, rng := t.(HardwareTable), orDefault(ev.Prob, 1), in.rng(idx, ev)
		reject := func() error {
			if prob >= 1 || rng.Float64() < prob {
				return ErrInjected
			}
			return nil
		}
		in.window(ev, func() { tbl.SetInstallFault(reject) }, func() { tbl.SetInstallFault(nil) },
			fmt.Sprintf("rejecting installs p=%.3f", prob), "install fault cleared")
	case ControllerCrash:
		c := t.(Controller)
		in.window(ev, c.Crash, c.Restart, "crashed", "restarted")
	case ControllerPause:
		p := t.(Pausable)
		in.window(ev, p.Pause, p.Resume, "paused", "resumed")
	case MissStorm:
		s, rate := t.(Stormer), orDefault(ev.Rate, 10000)
		in.window(ev, func() { s.SetStorm(rate) }, func() { s.SetStorm(0) },
			fmt.Sprintf("storming at %.0f pps", rate), "storm cleared")
	case StatsLoss:
		s, prob, rng := t.(StatsTap), orDefault(ev.Prob, 1), in.rng(idx, ev)
		in.window(ev, func() { s.SetStatsLoss(prob, rng) }, func() { s.SetStatsLoss(0, nil) },
			fmt.Sprintf("loss p=%.3f", prob), "loss cleared")
	case StatsDelay:
		s := t.(StatsTap)
		in.window(ev, func() { s.SetStatsDelay(ev.Delay) }, func() { s.SetStatsDelay(0) },
			fmt.Sprintf("+%v delay", ev.Delay), "delay cleared")
	case LinkFlap:
		in.flap(ev, t.(Link))
	case NICReset:
		n := t.(NICTable)
		fire := func() {
			lost := n.ResetTable()
			in.logf("nic %s reset (%d rules lost)", ev.Target, lost)
		}
		in.eng.At(ev.At, fire)
		if ev.Period > 0 && ev.Duration > 0 {
			for at := ev.At + ev.Period; at < ev.At+ev.Duration; at += ev.Period {
				in.eng.At(at, fire)
			}
		}
	case NICCorrupt:
		n, prob, rng := t.(NICTable), orDefault(ev.Prob, 0.5), in.rng(idx, ev)
		in.eng.At(ev.At, func() {
			lost := n.CorruptRules(prob, rng)
			in.logf("nic %s corrupted (%d rules lost, p=%.3f)", ev.Target, lost, prob)
		})
	}
}

// window applies a fault at ev.At and, when ev.Duration > 0, clears it at
// ev.At+ev.Duration, logging each transition as "<noun> <target> <text>".
func (in *Injector) window(ev Event, apply, clear func(), applied, cleared string) {
	noun := surfaces[kinds[ev.Kind].surface].noun
	in.eng.At(ev.At, func() {
		apply()
		in.logf("%s %s %s", noun, ev.Target, applied)
	})
	if ev.Duration > 0 {
		in.eng.At(ev.At+ev.Duration, func() {
			clear()
			in.logf("%s %s %s", noun, ev.Target, cleared)
		})
	}
}

// flap toggles l down and up every Period (default Duration/8, or 1ms
// when that is 0) from ev.At, ending in the up state at the first toggle
// at or after ev.At+ev.Duration.
func (in *Injector) flap(ev Event, l Link) {
	period := ev.Period
	if period <= 0 {
		period = ev.Duration / 8
	}
	if period <= 0 {
		period = time.Millisecond
	}
	end := ev.At + ev.Duration
	var toggle func(down bool)
	toggle = func(down bool) {
		if in.eng.Now() >= end || ev.Duration == 0 {
			l.SetDown(false)
			in.logf("link %s flap end (up)", ev.Target)
			return
		}
		l.SetDown(down)
		if down {
			in.logf("link %s flap down", ev.Target)
		} else {
			in.logf("link %s flap up", ev.Target)
		}
		in.eng.After(period, func() { toggle(!down) })
	}
	in.eng.At(ev.At, func() { toggle(true) })
}

// ---- plan parsing (CLI) ----

// ParsePlan parses a compact plan DSL, one event per semicolon-separated
// clause:
//
//	kind:target@at+dur[,p=0.3][,period=5ms][,delay=1ms][,rate=5000][,seed=7]
//
// e.g. "linkflap:downlink0@100ms+200ms,period=20ms;
// tcamreject:tor0@50ms+300ms;crash:torctl0@400ms+150ms;
// partition:torctl0@1s+500ms;apartition:torctl0.1@2s+300ms;
// pause:torctl0@3s+250ms". Durations use Go syntax; "+dur" may be
// omitted for permanent faults.
func ParsePlan(spec string) (Plan, error) {
	var plan Plan
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		ev, err := parseEvent(clause)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: %q: %w", clause, err)
		}
		plan.Events = append(plan.Events, ev)
	}
	if len(plan.Events) == 0 {
		return Plan{}, errors.New("faults: empty plan")
	}
	return plan, nil
}

func parseEvent(clause string) (Event, error) {
	var ev Event
	head, opts, _ := strings.Cut(clause, ",")
	kindStr, rest, ok := strings.Cut(head, ":")
	if !ok {
		return ev, errors.New("missing kind: separator")
	}
	for k, row := range kinds {
		if row.name != "" && row.name == strings.TrimSpace(kindStr) {
			ev.Kind = Kind(k)
		}
	}
	if ev.Kind == 0 {
		return ev, fmt.Errorf("unknown kind %q", kindStr)
	}
	target, timing, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, errors.New("missing @at")
	}
	ev.Target = strings.TrimSpace(target)
	atStr, durStr, hasDur := strings.Cut(timing, "+")
	at, err := time.ParseDuration(strings.TrimSpace(atStr))
	if err != nil {
		return ev, fmt.Errorf("bad at: %w", err)
	}
	ev.At = at
	if hasDur {
		d, err := time.ParseDuration(strings.TrimSpace(durStr))
		if err != nil {
			return ev, fmt.Errorf("bad duration: %w", err)
		}
		ev.Duration = d
	}
	if opts != "" {
		for _, opt := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return ev, fmt.Errorf("bad option %q", opt)
			}
			parse, known := options[k]
			switch {
			case !known:
				return ev, fmt.Errorf("unknown option %q", k)
			case !slices.Contains(kinds[ev.Kind].opts, k):
				return ev, fmt.Errorf("%s reads no option %q", ev.Kind, k)
			}
			if err := parse(&ev, v); err != nil {
				return ev, fmt.Errorf("bad %s: %w", k, err)
			}
		}
	}
	return ev, nil
}

// ---- random plan generation ----

// TargetSet names the registered targets a random plan may pick from.
// Links, Channels, Tables and Controllers always hold lottery slots;
// every later field opens its slot only when non-empty, so a plan drawn
// without it is bit-identical to what earlier versions drew for the same
// seed.
type TargetSet struct {
	Links       []string
	Channels    []string
	Tables      []string
	Controllers []string
	Stormers    []string
	StatsTaps   []string
	NICs        []string
	Partitions  []string
	Pausables   []string
}

// RandomPlan draws a randomized but deterministic plan from seed: a
// handful of windowed faults spread over [horizon/10, horizon*3/4], every
// window closing before the horizon so recovery is observable. The same
// seed and targets always produce the same plan.
func RandomPlan(seed int64, horizon time.Duration, ts TargetSet) Plan {
	rng := rand.New(rand.NewSource(seed))
	var plan Plan
	window := func() (at, dur time.Duration) {
		span := horizon * 3 / 4
		at = horizon/10 + time.Duration(rng.Int63n(int64(span)))
		maxDur := horizon*9/10 - at
		if maxDur < time.Millisecond {
			maxDur = time.Millisecond
		}
		dur = time.Duration(rng.Int63n(int64(maxDur))) + time.Millisecond
		return
	}
	// A slot draws a target from names (nothing when names is empty) and
	// appends the event fill makes of it.
	type slot func(at, dur time.Duration)
	draw := func(names []string, fill func(ev *Event)) slot {
		return func(at, dur time.Duration) {
			if len(names) == 0 {
				return
			}
			ev := Event{At: at, Target: names[rng.Intn(len(names))], Duration: dur}
			fill(&ev)
			plan.Events = append(plan.Events, ev)
		}
	}
	slots := []slot{
		draw(ts.Links, func(ev *Event) {
			ev.Kind, ev.Period = LinkFlap, ev.Duration/time.Duration(2+rng.Intn(6))
		}),
		draw(ts.Links, func(ev *Event) {
			ev.Kind, ev.Prob, ev.Seed = PacketLoss, 0.02+rng.Float64()*0.2, rng.Int63()
		}),
		draw(ts.Channels, func(ev *Event) {
			ev.Kind = ChannelDown
			if rng.Intn(2) == 0 {
				ev.Kind, ev.Delay = ChannelDelay, time.Duration(rng.Intn(2000))*time.Microsecond
			}
		}),
		draw(ts.Tables, func(ev *Event) {
			ev.Kind, ev.Prob, ev.Seed = TCAMReject, 0.5+rng.Float64()*0.5, rng.Int63()
		}),
		draw(ts.Controllers, func(ev *Event) { ev.Kind = ControllerCrash }),
	}
	// Later slots take the top lottery indices in the order they were
	// introduced, so existing seeded plans are untouched while they are
	// empty.
	if len(ts.Stormers) > 0 {
		slots = append(slots, draw(ts.Stormers, func(ev *Event) {
			ev.Kind, ev.Rate = MissStorm, 5000+float64(rng.Intn(20000))
		}))
	}
	if len(ts.StatsTaps) > 0 {
		slots = append(slots, draw(ts.StatsTaps, func(ev *Event) {
			ev.Kind, ev.Prob, ev.Seed = StatsLoss, 0.3+rng.Float64()*0.7, rng.Int63()
			if rng.Intn(2) == 0 {
				ev.Kind, ev.Prob, ev.Delay = StatsDelay, 0, time.Duration(1+rng.Intn(50))*time.Millisecond
			}
		}))
	}
	if len(ts.NICs) > 0 {
		slots = append(slots, draw(ts.NICs, func(ev *Event) {
			ev.Kind, ev.Duration = NICReset, 0
			if rng.Intn(2) == 0 {
				ev.Kind, ev.Prob, ev.Seed = NICCorrupt, 0.3+rng.Float64()*0.6, rng.Int63()
			}
		}))
	}
	if len(ts.Partitions) > 0 {
		slots = append(slots, draw(ts.Partitions, func(ev *Event) {
			ev.Kind = PartitionNode
			if rng.Intn(2) == 0 {
				ev.Kind = PartitionAsym
			}
		}))
	}
	if len(ts.Pausables) > 0 {
		slots = append(slots, draw(ts.Pausables, func(ev *Event) { ev.Kind = ControllerPause }))
	}
	n := 3 + rng.Intn(4)
	for i := 0; i < n; i++ {
		at, dur := window()
		slots[rng.Intn(len(slots))](at, dur)
	}
	if len(plan.Events) == 0 {
		// Degenerate target set; at least perturb something registered.
		draw(ts.Links, func(ev *Event) { ev.Kind = LinkDown })(horizon/4, horizon/8)
	}
	return plan
}
