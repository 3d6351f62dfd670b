// Package faults is the testbed's deterministic fault-injection
// subsystem. The paper's headline claims beyond raw speed are
// seamlessness (§4.1.2: offloaded flows survive disruption without
// blackholing) and scalability without coordination (§4.3.3); this
// package supplies the adversary those claims are tested against.
//
// A Plan is a declarative list of timed Events — link failures and flaps,
// probabilistic packet loss, control-channel severance and delay,
// hardware rule-install rejection, and controller crash/restart. An
// Injector binds the plan to named targets registered by the testbed
// (fabric links, openflow transports, ToR TCAMs, TOR controllers) and
// schedules everything on the sim engine, so a chaos run is exactly as
// reproducible as a fault-free one: same seed, same byte-identical event
// log.
//
// The package deliberately knows nothing about fabric/openflow/tor/core —
// targets plug in through the small interfaces below, which those
// packages implement.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
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

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "linkdown"
	case LinkFlap:
		return "linkflap"
	case PacketLoss:
		return "loss"
	case ChannelDown:
		return "ctldown"
	case ChannelLoss:
		return "ctlloss"
	case ChannelDelay:
		return "ctldelay"
	case TCAMReject:
		return "tcamreject"
	case ControllerCrash:
		return "crash"
	case MissStorm:
		return "storm"
	case StatsLoss:
		return "statsloss"
	case StatsDelay:
		return "statsdelay"
	case NICReset:
		return "nicreset"
	case NICCorrupt:
		return "niccorrupt"
	case PartitionNode:
		return "partition"
	case PartitionAsym:
		return "apartition"
	case ControllerPause:
		return "pause"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
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
	// TCAMReject; the latter defaults to 1 when 0).
	Prob float64
	// Period is the LinkFlap toggle interval (default Duration/8).
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

// partition is one node's registered channel directions, split by
// orientation so asymmetric partitions can sever only what the node says
// (outbound) while it still hears (inbound).
type partition struct {
	inbound  []Channel
	outbound []Channel
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

// Injector binds fault plans to registered targets on a sim engine.
type Injector struct {
	eng  *sim.Engine
	seed int64

	links      map[string]Link
	chans      map[string][]Channel
	tables     map[string]HardwareTable
	ctrls      map[string]Controller
	stormers   map[string]Stormer
	stats      map[string]StatsTap
	nics       map[string]NICTable
	partitions map[string]partition
	pausables  map[string]Pausable

	log []string
	// Applied counts fault transitions executed.
	Applied uint64
}

// NewInjector returns an injector for the engine. seed drives the
// per-event RNGs of probabilistic faults (not the engine's own RNG, so
// fault randomness is isolated from model randomness).
func NewInjector(eng *sim.Engine, seed int64) *Injector {
	return &Injector{
		eng:        eng,
		seed:       seed,
		links:      make(map[string]Link),
		chans:      make(map[string][]Channel),
		tables:     make(map[string]HardwareTable),
		ctrls:      make(map[string]Controller),
		stormers:   make(map[string]Stormer),
		stats:      make(map[string]StatsTap),
		nics:       make(map[string]NICTable),
		partitions: make(map[string]partition),
		pausables:  make(map[string]Pausable),
	}
}

// RegisterLink names a wire target.
func (in *Injector) RegisterLink(name string, l Link) { in.links[name] = l }

// RegisterChannel names a control connection; pass every direction of the
// connection so a ChannelDown severs it completely.
func (in *Injector) RegisterChannel(name string, dirs ...Channel) { in.chans[name] = dirs }

// RegisterTable names a hardware rule table target.
func (in *Injector) RegisterTable(name string, t HardwareTable) { in.tables[name] = t }

// RegisterController names a crashable controller target.
func (in *Injector) RegisterController(name string, c Controller) { in.ctrls[name] = c }

// RegisterStormer names a miss-storm source target.
func (in *Injector) RegisterStormer(name string, s Stormer) { in.stormers[name] = s }

// RegisterStatsTap names a statistics reporting path target.
func (in *Injector) RegisterStatsTap(name string, s StatsTap) { in.stats[name] = s }

// RegisterNIC names a SmartNIC table target. The NIC is also registered
// as a hardware table under the same name, so TCAMReject (install-fault)
// events apply to it too.
func (in *Injector) RegisterNIC(name string, n NICTable) {
	in.nics[name] = n
	in.tables[name] = n
}

// RegisterPartition names a partitionable node by the full set of its
// control-channel directions: inbound carries what the node hears,
// outbound what it says. PartitionNode severs both, PartitionAsym only
// outbound.
func (in *Injector) RegisterPartition(name string, inbound, outbound []Channel) {
	in.partitions[name] = partition{inbound: inbound, outbound: outbound}
}

// RegisterPausable names a freezable controller target.
func (in *Injector) RegisterPausable(name string, p Pausable) { in.pausables[name] = p }

// PartitionTargets lists registered partitionable nodes, sorted.
func (in *Injector) PartitionTargets() []string { return sortedNames(in.partitions) }

// PausableTargets lists registered pausable controllers, sorted.
func (in *Injector) PausableTargets() []string { return sortedNames(in.pausables) }

// NICTargets lists registered SmartNIC targets, sorted.
func (in *Injector) NICTargets() []string {
	var out []string
	for n := range in.nics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Targets lists registered target names for the four original
// categories, sorted — handy for CLI help and for random plan
// generation. It deliberately covers only links, channels, tables and
// controllers; the categories added since live in their own accessors so
// existing callers (and seeded random plans) are unchanged: SmartNIC
// tables in NICTargets, and partitionable nodes / pausable controllers in
// PartitionTargets and PausableTargets.
func (in *Injector) Targets() (links, channels, tables, controllers []string) {
	for n := range in.links {
		links = append(links, n)
	}
	for n := range in.chans {
		channels = append(channels, n)
	}
	for n := range in.tables {
		tables = append(tables, n)
	}
	for n := range in.ctrls {
		controllers = append(controllers, n)
	}
	sort.Strings(links)
	sort.Strings(channels)
	sort.Strings(tables)
	sort.Strings(controllers)
	return
}

// Log returns the chronological record of applied fault transitions. Two
// runs with identical seeds produce byte-identical logs — the determinism
// harness diffs them.
func (in *Injector) Log() []string { return in.log }

func (in *Injector) logf(format string, args ...any) {
	in.Applied++
	in.log = append(in.log, fmt.Sprintf("%12v %s", in.eng.Now(), fmt.Sprintf(format, args...)))
}

// Apply validates every event's target and schedules the whole plan.
// Events are scheduled in plan order; equal-time events fire in plan
// order too (the engine's FIFO tie-break).
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

// sortedNames returns a map's keys in sorted order — the "valid targets"
// list validation errors carry.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// unknownTarget builds the validation error for a bad target name,
// listing the targets actually registered for the kind so a typo in a
// plan spec is diagnosable without reading the rig's wiring code.
func unknownTarget[V any](category, target string, m map[string]V) error {
	valid := sortedNames(m)
	if len(valid) == 0 {
		return fmt.Errorf("unknown %s %q (no %ss registered)", category, target, category)
	}
	return fmt.Errorf("unknown %s %q (registered %ss: %s)",
		category, target, category, strings.Join(valid, ", "))
}

func (in *Injector) validate(ev Event) error {
	switch ev.Kind {
	case LinkDown, LinkFlap, PacketLoss:
		if _, ok := in.links[ev.Target]; !ok {
			return unknownTarget("link", ev.Target, in.links)
		}
	case ChannelDown, ChannelLoss, ChannelDelay:
		if _, ok := in.chans[ev.Target]; !ok {
			return unknownTarget("channel", ev.Target, in.chans)
		}
	case TCAMReject:
		if _, ok := in.tables[ev.Target]; !ok {
			return unknownTarget("table", ev.Target, in.tables)
		}
	case ControllerCrash:
		if _, ok := in.ctrls[ev.Target]; !ok {
			return unknownTarget("controller", ev.Target, in.ctrls)
		}
	case MissStorm:
		if _, ok := in.stormers[ev.Target]; !ok {
			return unknownTarget("stormer", ev.Target, in.stormers)
		}
		if ev.Rate < 0 {
			return fmt.Errorf("negative storm rate %v", ev.Rate)
		}
	case StatsLoss, StatsDelay:
		if _, ok := in.stats[ev.Target]; !ok {
			return unknownTarget("stats tap", ev.Target, in.stats)
		}
	case NICReset, NICCorrupt:
		if _, ok := in.nics[ev.Target]; !ok {
			return unknownTarget("nic", ev.Target, in.nics)
		}
	case PartitionNode, PartitionAsym:
		if _, ok := in.partitions[ev.Target]; !ok {
			return unknownTarget("partition node", ev.Target, in.partitions)
		}
	case ControllerPause:
		if _, ok := in.pausables[ev.Target]; !ok {
			return unknownTarget("pausable controller", ev.Target, in.pausables)
		}
	default:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	}
	if ev.Prob < 0 || ev.Prob > 1 {
		return fmt.Errorf("probability %v out of [0,1]", ev.Prob)
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

func (in *Injector) schedule(idx int, ev Event) {
	switch ev.Kind {
	case LinkDown:
		l := in.links[ev.Target]
		in.eng.At(ev.At, func() {
			l.SetDown(true)
			in.logf("link %s down", ev.Target)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				l.SetDown(false)
				in.logf("link %s up", ev.Target)
			})
		}
	case LinkFlap:
		l := in.links[ev.Target]
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
			now := in.eng.Now()
			if now >= end || ev.Duration == 0 {
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
	case PacketLoss:
		l := in.links[ev.Target]
		rng := in.rng(idx, ev)
		in.eng.At(ev.At, func() {
			l.SetLoss(ev.Prob, rng)
			in.logf("link %s loss p=%.3f", ev.Target, ev.Prob)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				l.SetLoss(0, nil)
				in.logf("link %s loss cleared", ev.Target)
			})
		}
	case ChannelDown:
		dirs := in.chans[ev.Target]
		in.eng.At(ev.At, func() {
			for _, d := range dirs {
				d.SetDown(true)
			}
			in.logf("channel %s down", ev.Target)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				for _, d := range dirs {
					d.SetDown(false)
				}
				in.logf("channel %s up", ev.Target)
			})
		}
	case ChannelLoss:
		dirs := in.chans[ev.Target]
		rng := in.rng(idx, ev)
		in.eng.At(ev.At, func() {
			for _, d := range dirs {
				d.SetLoss(ev.Prob, rng)
			}
			in.logf("channel %s loss p=%.3f", ev.Target, ev.Prob)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				for _, d := range dirs {
					d.SetLoss(0, nil)
				}
				in.logf("channel %s loss cleared", ev.Target)
			})
		}
	case ChannelDelay:
		dirs := in.chans[ev.Target]
		in.eng.At(ev.At, func() {
			for _, d := range dirs {
				d.SetExtraDelay(ev.Delay)
			}
			in.logf("channel %s +%v delay", ev.Target, ev.Delay)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				for _, d := range dirs {
					d.SetExtraDelay(0)
				}
				in.logf("channel %s delay cleared", ev.Target)
			})
		}
	case TCAMReject:
		tbl := in.tables[ev.Target]
		prob := ev.Prob
		if prob == 0 {
			prob = 1
		}
		rng := in.rng(idx, ev)
		in.eng.At(ev.At, func() {
			tbl.SetInstallFault(func() error {
				if prob >= 1 || rng.Float64() < prob {
					return ErrInjected
				}
				return nil
			})
			in.logf("table %s rejecting installs p=%.3f", ev.Target, prob)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				tbl.SetInstallFault(nil)
				in.logf("table %s install fault cleared", ev.Target)
			})
		}
	case ControllerCrash:
		c := in.ctrls[ev.Target]
		in.eng.At(ev.At, func() {
			c.Crash()
			in.logf("controller %s crashed", ev.Target)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				c.Restart()
				in.logf("controller %s restarted", ev.Target)
			})
		}
	case MissStorm:
		s := in.stormers[ev.Target]
		rate := ev.Rate
		if rate == 0 {
			rate = 10000
		}
		in.eng.At(ev.At, func() {
			s.SetStorm(rate)
			in.logf("stormer %s storming at %.0f pps", ev.Target, rate)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				s.SetStorm(0)
				in.logf("stormer %s storm cleared", ev.Target)
			})
		}
	case StatsLoss:
		s := in.stats[ev.Target]
		prob := ev.Prob
		if prob == 0 {
			prob = 1
		}
		rng := in.rng(idx, ev)
		in.eng.At(ev.At, func() {
			s.SetStatsLoss(prob, rng)
			in.logf("stats %s loss p=%.3f", ev.Target, prob)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				s.SetStatsLoss(0, nil)
				in.logf("stats %s loss cleared", ev.Target)
			})
		}
	case StatsDelay:
		s := in.stats[ev.Target]
		in.eng.At(ev.At, func() {
			s.SetStatsDelay(ev.Delay)
			in.logf("stats %s +%v delay", ev.Target, ev.Delay)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				s.SetStatsDelay(0)
				in.logf("stats %s delay cleared", ev.Target)
			})
		}
	case NICReset:
		n := in.nics[ev.Target]
		fire := func() {
			lost := n.ResetTable()
			in.logf("nic %s reset (%d rules lost)", ev.Target, lost)
		}
		in.eng.At(ev.At, fire)
		if ev.Period > 0 && ev.Duration > 0 {
			for t := ev.At + ev.Period; t < ev.At+ev.Duration; t += ev.Period {
				in.eng.At(t, fire)
			}
		}
	case NICCorrupt:
		n := in.nics[ev.Target]
		prob := ev.Prob
		if prob == 0 {
			prob = 0.5
		}
		rng := in.rng(idx, ev)
		in.eng.At(ev.At, func() {
			lost := n.CorruptRules(prob, rng)
			in.logf("nic %s corrupted (%d rules lost, p=%.3f)", ev.Target, lost, prob)
		})
	case PartitionNode:
		pt := in.partitions[ev.Target]
		all := append(append([]Channel(nil), pt.inbound...), pt.outbound...)
		in.eng.At(ev.At, func() {
			for _, d := range all {
				d.SetDown(true)
			}
			in.logf("partition %s isolated", ev.Target)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				for _, d := range all {
					d.SetDown(false)
				}
				in.logf("partition %s healed", ev.Target)
			})
		}
	case PartitionAsym:
		pt := in.partitions[ev.Target]
		in.eng.At(ev.At, func() {
			for _, d := range pt.outbound {
				d.SetDown(true)
			}
			in.logf("partition %s outbound severed", ev.Target)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				for _, d := range pt.outbound {
					d.SetDown(false)
				}
				in.logf("partition %s healed", ev.Target)
			})
		}
	case ControllerPause:
		p := in.pausables[ev.Target]
		in.eng.At(ev.At, func() {
			p.Pause()
			in.logf("controller %s paused", ev.Target)
		})
		if ev.Duration > 0 {
			in.eng.At(ev.At+ev.Duration, func() {
				p.Resume()
				in.logf("controller %s resumed", ev.Target)
			})
		}
	}
}

// ---- plan parsing (CLI) ----

// ParsePlan parses a compact plan DSL, one event per semicolon-separated
// clause:
//
//	kind:target@at+dur[,p=0.3][,period=5ms][,delay=1ms][,seed=7]
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
	switch strings.TrimSpace(kindStr) {
	case "linkdown":
		ev.Kind = LinkDown
	case "linkflap":
		ev.Kind = LinkFlap
	case "loss":
		ev.Kind = PacketLoss
	case "ctldown":
		ev.Kind = ChannelDown
	case "ctlloss":
		ev.Kind = ChannelLoss
	case "ctldelay":
		ev.Kind = ChannelDelay
	case "tcamreject":
		ev.Kind = TCAMReject
	case "crash":
		ev.Kind = ControllerCrash
	case "storm":
		ev.Kind = MissStorm
	case "statsloss":
		ev.Kind = StatsLoss
	case "statsdelay":
		ev.Kind = StatsDelay
	case "nicreset":
		ev.Kind = NICReset
	case "niccorrupt":
		ev.Kind = NICCorrupt
	case "partition":
		ev.Kind = PartitionNode
	case "apartition":
		ev.Kind = PartitionAsym
	case "pause":
		ev.Kind = ControllerPause
	default:
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
			switch k {
			case "p":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return ev, fmt.Errorf("bad p: %w", err)
				}
				ev.Prob = p
			case "period":
				d, err := time.ParseDuration(v)
				if err != nil {
					return ev, fmt.Errorf("bad period: %w", err)
				}
				ev.Period = d
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil {
					return ev, fmt.Errorf("bad delay: %w", err)
				}
				ev.Delay = d
			case "seed":
				s, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return ev, fmt.Errorf("bad seed: %w", err)
				}
				ev.Seed = s
			case "rate":
				r, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return ev, fmt.Errorf("bad rate: %w", err)
				}
				ev.Rate = r
			default:
				return ev, fmt.Errorf("unknown option %q", k)
			}
		}
	}
	return ev, nil
}

// ---- random plan generation ----

// TargetSet names the registered targets a random plan may pick from.
// Stormers and StatsTaps only widen the kind lottery when non-empty, so
// plans drawn from the four original categories are bit-identical to what
// earlier versions produced for the same seed.
type TargetSet struct {
	Links       []string
	Channels    []string
	Tables      []string
	Controllers []string
	Stormers    []string
	StatsTaps   []string
	// NICs widens the kind lottery with SmartNIC reset/corruption only
	// when non-empty, like Stormers and StatsTaps: plans drawn without
	// NICs stay bit-identical to earlier versions for the same seed.
	NICs []string
	// Partitions (node-level symmetric/asymmetric partitions) and
	// Pausables (controller freeze/resume) widen the lottery only when
	// non-empty, preserving the same seed-stability contract.
	Partitions []string
	Pausables  []string
}

// RandomPlan draws a randomized but deterministic plan from seed: a
// handful of windowed faults spread over [horizon/10, horizon*3/4], every
// window closing before the horizon so recovery is observable. The same
// seed and targets always produce the same plan.
func RandomPlan(seed int64, horizon time.Duration, ts TargetSet) Plan {
	rng := rand.New(rand.NewSource(seed))
	var plan Plan
	pick := func(names []string) (string, bool) {
		if len(names) == 0 {
			return "", false
		}
		return names[rng.Intn(len(names))], true
	}
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
	kinds := 5
	if len(ts.Stormers) > 0 {
		kinds++
	}
	if len(ts.StatsTaps) > 0 {
		kinds++
	}
	// Later-era slots always take the top lottery indices, in the order
	// they were introduced (NIC, then partitions, then pausables), so
	// the existing case numbering (and thus existing seeded plans) is
	// untouched when the new target lists are empty.
	nicCase, partitionCase, pauseCase := -1, -1, -1
	if len(ts.NICs) > 0 {
		nicCase = kinds
		kinds++
	}
	if len(ts.Partitions) > 0 {
		partitionCase = kinds
		kinds++
	}
	if len(ts.Pausables) > 0 {
		pauseCase = kinds
		kinds++
	}
	n := 3 + rng.Intn(4)
	for i := 0; i < n; i++ {
		at, dur := window()
		k := rng.Intn(kinds)
		if k == nicCase {
			if t, ok := pick(ts.NICs); ok {
				ev := Event{At: at, Kind: NICReset, Target: t}
				if rng.Intn(2) == 0 {
					ev.Kind = NICCorrupt
					ev.Prob = 0.3 + rng.Float64()*0.6
					ev.Seed = rng.Int63()
				}
				plan.Events = append(plan.Events, ev)
			}
			continue
		}
		if k == partitionCase {
			if t, ok := pick(ts.Partitions); ok {
				ev := Event{At: at, Kind: PartitionNode, Target: t, Duration: dur}
				if rng.Intn(2) == 0 {
					ev.Kind = PartitionAsym
				}
				plan.Events = append(plan.Events, ev)
			}
			continue
		}
		if k == pauseCase {
			if t, ok := pick(ts.Pausables); ok {
				plan.Events = append(plan.Events, Event{
					At: at, Kind: ControllerPause, Target: t, Duration: dur,
				})
			}
			continue
		}
		switch k {
		case 0:
			if t, ok := pick(ts.Links); ok {
				plan.Events = append(plan.Events, Event{
					At: at, Kind: LinkFlap, Target: t, Duration: dur,
					Period: dur / time.Duration(2+rng.Intn(6)),
				})
			}
		case 1:
			if t, ok := pick(ts.Links); ok {
				plan.Events = append(plan.Events, Event{
					At: at, Kind: PacketLoss, Target: t, Duration: dur,
					Prob: 0.02 + rng.Float64()*0.2, Seed: rng.Int63(),
				})
			}
		case 2:
			if t, ok := pick(ts.Channels); ok {
				kind := ChannelDown
				ev := Event{At: at, Kind: kind, Target: t, Duration: dur}
				if rng.Intn(2) == 0 {
					ev.Kind = ChannelDelay
					ev.Delay = time.Duration(rng.Intn(2000)) * time.Microsecond
				}
				plan.Events = append(plan.Events, ev)
			}
		case 3:
			if t, ok := pick(ts.Tables); ok {
				plan.Events = append(plan.Events, Event{
					At: at, Kind: TCAMReject, Target: t, Duration: dur,
					Prob: 0.5 + rng.Float64()*0.5, Seed: rng.Int63(),
				})
			}
		case 4:
			if t, ok := pick(ts.Controllers); ok {
				plan.Events = append(plan.Events, Event{
					At: at, Kind: ControllerCrash, Target: t, Duration: dur,
				})
			}
		case 5:
			// Fifth slot is stormers when present, stats taps otherwise
			// (kinds only reaches 6 when at least one of them is).
			if len(ts.Stormers) > 0 {
				if t, ok := pick(ts.Stormers); ok {
					plan.Events = append(plan.Events, Event{
						At: at, Kind: MissStorm, Target: t, Duration: dur,
						Rate: 5000 + float64(rng.Intn(20000)),
					})
				}
			} else if t, ok := pick(ts.StatsTaps); ok {
				plan.Events = append(plan.Events, Event{
					At: at, Kind: StatsLoss, Target: t, Duration: dur,
					Prob: 0.3 + rng.Float64()*0.7, Seed: rng.Int63(),
				})
			}
		case 6:
			if t, ok := pick(ts.StatsTaps); ok {
				ev := Event{At: at, Kind: StatsLoss, Target: t, Duration: dur,
					Prob: 0.3 + rng.Float64()*0.7, Seed: rng.Int63()}
				if rng.Intn(2) == 0 {
					ev.Kind = StatsDelay
					ev.Prob = 0
					ev.Delay = time.Duration(1+rng.Intn(50)) * time.Millisecond
				}
				plan.Events = append(plan.Events, ev)
			}
		}
	}
	if len(plan.Events) == 0 {
		// Degenerate target set; at least perturb something registered.
		if t, ok := pick(ts.Links); ok {
			plan.Events = append(plan.Events, Event{At: horizon / 4, Kind: LinkDown, Target: t, Duration: horizon / 8})
		}
	}
	return plan
}
