package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The interleaving checker: the installer, alone, drives a model rack of
// two locals and a switch with a two-slot TCAM through three scripted
// decision ticks over three patterns, and a breadth-first search visits
// every state any ordering of the rack's messages and timers reaches.
//
// The model's channels:
//
//   - controller → switch is FIFO, and a FlowMod shares its fate with the
//     barrier sent behind it (one TCP connection loses both or neither, and
//     the switch answers the barrier only after the FlowMod). An entry may
//     be delivered, dropped or duplicated; it is never overtaken, because
//     the installer's supersede rule relies on that order (install);
//   - switch → controller carries each barrier reply with the ErrorMsg
//     before it, and table replies; an entry may be delivered, dropped,
//     duplicated or overtaken by the one behind it;
//   - each local's RuleSync and the SyncAck it answers with form one round
//     trip, delivered or lost. Acks are taken as a maximum, so a repeated
//     or overtaken one changes nothing a lost one does not.
//
// Timers fire earliest first once every message is delivered; one that
// fires while messages are in flight is a late message. Every drop,
// duplicate, overtake or late message spends one of checkFaults, and the
// checker logs how many states it explored and how deep. In every
// reachable state it asserts:
//
//   - TCAM occupancy never exceeds its capacity;
//   - a pattern is announced as offloaded only inside the delivery of a
//     barrier reply the switch sent with the pattern's rule installed;
//   - an ACL's removal is sent only once every local has acked a RuleSync
//     published after the last one that carried the pattern, and after
//     its express lane was announced (no placer still steers to it);
//   - in a state reached with no fault, no FlowAdd was rejected: an install
//     is sent only into a slot nothing else holds, so a displacing install
//     waits for the removal it displaces;
//   - once messages stop being lost — messages delivered oldest first,
//     timers in order, the controller publishing and reconciling each
//     interval — every flight lands: each pattern ends installed (and in
//     the TCAM), given up or demoted.

const (
	checkSlots    = 2
	checkLocals   = 2
	checkPatterns = 3
	checkFaults   = 4
	// checkInterval is the model's decision interval; the channel delay
	// that paces the installer's timers is checkDelay.
	checkInterval = 40 * time.Millisecond
	checkDelay    = time.Millisecond
	// checkDrainTicks bounds the fault-free drain that checks liveness.
	checkDrainTicks = 16
)

// checkScript is the desired set of each decision tick, as pattern bits:
// A and B; then C displaces A; then A comes back and B goes.
var checkScript = []uint8{0b011, 0b110, 0b101}

var checkPats = [checkPatterns]rules.Pattern{syncPattern(0), syncPattern(1), syncPattern(2)}

func checkIndex(p rules.Pattern) int { return slices.Index(checkPats[:], p) }

type opKind uint8

const (
	opAdd opKind = iota
	opDelete
	opTable
)

// swOp is one controller → switch entry: a FlowMod with the barrier behind
// it (bar 0: an abort's bare delete), or a TableRequest.
type swOp struct {
	kind opKind
	p    int
	mod  uint32
	bar  uint32
}

// swReply is one switch → controller entry: a barrier reply with the
// ErrorMsg before it (err 0 for none) and whether the rule was installed
// when the switch answered, or a table reply.
type swReply struct {
	table bool
	p     int
	err   uint32
	bar   uint32
	had   bool
	rules uint8
}

type checkTimer struct {
	at  sim.Time
	p   int
	gen uint64
}

// rack is one state of the model: the installer under test and everything
// around it. It implements installHost.
type rack struct {
	inst   *installer
	counts installCounts
	now    sim.Time
	ticks  int
	xid    uint32

	tcam      uint8
	offloaded map[rules.Pattern]bool
	seq       uint32
	acked     [checkLocals]uint32
	dirty     bool
	since     int

	toSwitch   []swOp
	fromSwitch []swReply
	toLocal    [checkLocals][]uint32
	timers     []checkTimer
	// faults counts the drops, duplicates, overtakes and late messages so
	// far, budget how many a run may have.
	faults, budget int

	// delivering is the barrier reply being handed to the installer;
	// violation is the first invariant this state broke, rejected the
	// FlowAdds the TCAM refused on the way here.
	delivering *swReply
	violation  string
	rejected   int
	// steeredTo is, per pattern, the last RuleSync sequence after which a
	// local may still steer to its rule: the sync that last carried it, or
	// the one current when its express lane was announced.
	steeredTo [checkPatterns]uint32
}

func newRack() *rack {
	r := &rack{offloaded: make(map[rules.Pattern]bool)}
	r.inst = newInstaller(r, &r.counts, checkDelay)
	return r
}

func (r *rack) clone() *rack {
	c := *r
	c.inst = &installer{fx: &c, n: &c.counts, delay: r.inst.delay, gen: r.inst.gen,
		flights: make(map[rules.Pattern]*flight, len(r.inst.flights)), byXID: make(map[uint32]*flight, len(r.inst.byXID))}
	for p, f := range r.inst.flights {
		g := *f
		c.inst.flights[p] = &g
	}
	for x, f := range r.inst.byXID {
		c.inst.byXID[x] = c.inst.flights[f.p]
	}
	for _, f := range r.inst.waiting {
		c.inst.waiting = append(c.inst.waiting, c.inst.flights[f.p])
	}
	c.offloaded = maps.Clone(r.offloaded)
	c.toSwitch = slices.Clone(r.toSwitch)
	c.fromSwitch = slices.Clone(r.fromSwitch)
	for i := range c.toLocal {
		c.toLocal[i] = slices.Clone(r.toLocal[i])
	}
	c.timers = slices.Clone(r.timers)
	return &c
}

// ---- installHost over the model ----

func (r *rack) flowAdd(p rules.Pattern, _ int) uint32 {
	r.xid++
	r.toSwitch = append(r.toSwitch, swOp{kind: opAdd, p: checkIndex(p), mod: r.xid})
	return r.xid
}

func (r *rack) flowDelete(p rules.Pattern) {
	r.xid++
	r.toSwitch = append(r.toSwitch, swOp{kind: opDelete, p: checkIndex(p)})
}

func (r *rack) barrier() uint32 {
	r.xid++
	last := &r.toSwitch[len(r.toSwitch)-1]
	if last.kind == opTable || last.bar != 0 {
		panic("a barrier with no FlowMod before it")
	}
	last.bar = r.xid
	if _, floor := r.syncState(); last.kind == opDelete && floor <= r.steeredTo[last.p] && r.violation == "" {
		r.violation = fmt.Sprintf("%s's ACL removal sent before every local acked a RuleSync after %d", checkName(last.p), r.steeredTo[last.p])
	}
	return r.xid
}

func (r *rack) arm(d time.Duration, p rules.Pattern, gen uint64) *sim.Event {
	r.timers = append(r.timers, checkTimer{at: r.now + d, p: checkIndex(p), gen: gen})
	return nil
}

func (r *rack) jitter(int64) int64               { return 0 }
func (r *rack) policy(rules.Pattern) (int, bool) { return 0, true }

func (r *rack) syncState() (seq, floor uint32) {
	floor = r.acked[0]
	for _, a := range r.acked[1:] {
		floor = min(floor, a)
	}
	return r.seq, floor
}

func (r *rack) slots() (capacity, confirmed int) { return checkSlots, len(r.offloaded) }

func (r *rack) confirmed(p rules.Pattern) {
	r.steeredTo[checkIndex(p)] = r.seq
	if d := r.delivering; r.violation == "" && (d == nil || d.table || d.p != checkIndex(p) || !d.had) {
		r.violation = fmt.Sprintf("%s announced offloaded without a barrier confirming its rule", checkName(checkIndex(p)))
	}
	r.offloaded[p] = true
	r.dirty = true
}

func (r *rack) withdraw(p rules.Pattern) {
	delete(r.offloaded, p)
	r.dirty = true
}

func (r *rack) announce(openflow.OffloadAction) {}

func (r *rack) publish() {
	r.seq++
	r.dirty, r.since = false, 0
	for i, p := range checkPats {
		if r.offloaded[p] {
			r.steeredTo[i] = r.seq
		}
	}
	for i := range r.toLocal {
		r.toLocal[i] = append(r.toLocal[i], r.seq)
	}
}

func (r *rack) emit(telemetry.Kind, rules.Pattern, string, float64, float64) {}

// ---- the model's moves ----

func checkName(p int) string { return string(rune('A' + p)) }

// tick runs a decision interval: the scripted changes while the script
// lasts, then the RuleSync publish as the controller's tick does it; from
// the last scripted tick on, a table read-back too.
func (r *rack) tick() {
	r.ticks++
	if r.ticks <= len(checkScript) {
		want := checkScript[r.ticks-1]
		for i, p := range checkPats {
			if want&(1<<i) != 0 {
				continue
			}
			if r.offloaded[p] {
				r.inst.demote(r.now, p)
			} else if r.inst.installing(p) {
				r.inst.abort(p)
			}
		}
		for i, p := range checkPats {
			if want&(1<<i) != 0 && !r.offloaded[p] && !r.inst.installing(p) {
				r.inst.install(p)
			}
		}
	}
	r.since++
	if r.dirty || r.inst.needsSync(r.seq) || r.since >= syncRefreshTicks {
		r.publish()
	}
	if r.ticks >= len(checkScript) {
		r.toSwitch = append(r.toSwitch, swOp{kind: opTable})
	}
}

// live drops timers the installer has moved past (a cancel in the engine).
func (r *rack) live() {
	r.timers = slices.DeleteFunc(r.timers, func(t checkTimer) bool {
		if t.gen == 0 {
			return false
		}
		f := r.inst.flights[checkPats[t.p]]
		return f == nil || f.gen != t.gen
	})
}

// nextTimer returns the earliest pending timer (a tick is one), or -1.
func (r *rack) nextTimer(maxTicks int) (i int, tick bool, at sim.Time) {
	i, at = -1, -1
	if r.ticks < maxTicks {
		tick, at = true, sim.Time(r.ticks+1)*checkInterval
	}
	for j, t := range r.timers {
		if at < 0 || t.at < at {
			i, tick, at = j, false, t.at
		}
	}
	return i, tick, at
}

func (r *rack) fireTimer(i int, tick bool, at sim.Time) {
	r.now = at
	if tick {
		r.tick()
		return
	}
	t := r.timers[i]
	r.timers = slices.Delete(r.timers, i, i+1)
	r.inst.fire(r.now, checkPats[t.p], t.gen)
}

// switchDo is the switch agent processing one entry.
func (r *rack) switchDo(o swOp) {
	bit := uint8(1) << o.p
	switch o.kind {
	case opTable:
		r.fromSwitch = append(r.fromSwitch, swReply{table: true, rules: r.tcam})
		return
	case opAdd:
		var err uint32
		if r.tcam&bit == 0 {
			if bits.OnesCount8(r.tcam) < checkSlots {
				r.tcam |= bit
			} else {
				err = o.mod
				r.rejected++
			}
		}
		r.fromSwitch = append(r.fromSwitch, swReply{p: o.p, err: err, bar: o.bar, had: r.tcam&bit != 0})
	case opDelete:
		r.tcam &^= bit
		if o.bar != 0 {
			r.fromSwitch = append(r.fromSwitch, swReply{p: o.p, bar: o.bar})
		}
	}
}

// controllerDo is the controller taking one reply from the switch.
func (r *rack) controllerDo(m swReply) {
	if m.table {
		var table []openflow.TableRule
		for i, p := range checkPats {
			if m.rules&(1<<i) != 0 {
				table = append(table, openflow.TableRule{Pattern: p, Priority: hwPriority})
			}
		}
		r.inst.reconcile(r.now, table, r.offloaded)
		return
	}
	if m.err != 0 {
		r.inst.rejected(m.err)
	}
	r.delivering = &m
	r.inst.barrierReply(m.bar)
	r.delivering = nil
}

// step is one move: what happens to the entry at the head of a channel,
// or a timer firing.
type step struct {
	ch   int // 0 to the switch, 1 to the controller, 2+i local i's round trip; -1 a timer
	what byte
}

const (
	deliver   = 'd'
	drop      = 'x'
	duplicate = '2'
	overtake  = 'o'
	late      = 'l' // a timer fires while messages are still in flight
)

const checkChans = 2 + checkLocals

func (r *rack) chanLen(ch int) int {
	switch ch {
	case 0:
		return len(r.toSwitch)
	case 1:
		return len(r.fromSwitch)
	}
	return len(r.toLocal[ch-2])
}

func (r *rack) inFlight() bool {
	for ch := 0; ch < checkChans; ch++ {
		if r.chanLen(ch) > 0 {
			return true
		}
	}
	return false
}

// moves lists what may happen next. Time passes only once every message
// is delivered; a timer firing before that is a late message, a fault.
func (r *rack) moves() []step {
	var out []step
	spare := r.faults < r.budget
	if i, tick, _ := r.nextTimer(len(checkScript)); (i >= 0 || tick) && (spare || !r.inFlight()) {
		w := byte(deliver)
		if r.inFlight() {
			w = late
		}
		out = append(out, step{-1, w})
	}
	for ch := 0; ch < checkChans; ch++ {
		n := r.chanLen(ch)
		if n == 0 {
			continue
		}
		out = append(out, step{ch, deliver})
		if !spare {
			continue
		}
		out = append(out, step{ch, drop})
		if ch < 2 {
			out = append(out, step{ch, duplicate})
		}
		if ch == 1 && n > 1 {
			out = append(out, step{ch, overtake})
		}
	}
	return out
}

// apply makes one move, then checks the state invariants.
func (r *rack) apply(s step, maxTicks int) {
	if s.what != deliver {
		r.faults++
	}
	at := 0
	if s.what == overtake {
		at = 1
	}
	switch s.ch {
	case -1:
		r.fireTimer(r.nextTimer(maxTicks))
	case 0:
		o := r.toSwitch[at]
		if s.what != duplicate {
			r.toSwitch = slices.Delete(r.toSwitch, at, at+1)
		}
		if s.what != drop {
			r.switchDo(o)
		}
	case 1:
		m := r.fromSwitch[at]
		if s.what != duplicate {
			r.fromSwitch = slices.Delete(r.fromSwitch, at, at+1)
		}
		if s.what != drop {
			r.controllerDo(m)
		}
	default:
		// The local applies the RuleSync and its ack reaches the ToR; a
		// drop loses either. Acks are taken as a maximum, so a repeated
		// or overtaken one changes nothing a drop does not.
		i := s.ch - 2
		seq := r.toLocal[i][0]
		r.toLocal[i] = r.toLocal[i][1:]
		if s.what != drop {
			r.acked[i] = max(r.acked[i], seq)
			r.inst.tryRemovals(r.now)
		}
	}
	r.live()
	if n := bits.OnesCount8(r.tcam); n > checkSlots && r.violation == "" {
		r.violation = fmt.Sprintf("TCAM holds %d rules in %d slots", n, checkSlots)
	}
}

func (s step) String() string {
	names := []string{"to-switch", "to-controller"}
	for i := 0; i < checkLocals; i++ {
		names = append(names, fmt.Sprintf("local%d", i))
	}
	switch {
	case s.ch < 0 && s.what == late:
		return "timer(late)"
	case s.ch < 0:
		return "timer"
	}
	w := map[byte]string{deliver: "", drop: "(drop)", duplicate: "(dup)", overtake: "(overtake)"}[s.what]
	return names[s.ch] + w
}

// key is the state's canonical encoding: xids renumbered by first use and
// timers by what they will do, so states that differ only in names meet.
func (r *rack) key(b []byte) []byte {
	ids := map[uint32]byte{0: 0}
	id := func(x uint32) byte {
		n, ok := ids[x]
		if !ok {
			n = byte(len(ids))
			ids[x] = n
		}
		return n
	}
	t := func(at sim.Time) byte { return byte(at / sim.Time(checkDelay)) }
	b = append(b, byte(r.ticks), t(r.now), byte(r.faults), r.tcam, byte(r.seq), byte(min(r.since, syncRefreshTicks)))
	for _, a := range r.acked {
		b = append(b, byte(a))
	}
	for _, st := range r.steeredTo {
		b = append(b, byte(st))
	}
	if r.dirty {
		b = append(b, 'd')
	}
	for i, p := range checkPats {
		if r.offloaded[p] {
			b = append(b, 'o', byte(i))
		}
		if f := r.inst.flights[p]; f != nil {
			b = append(b, 'f', byte(i), byte(f.phase), byte(f.attempts), byte(f.needSeq), t(f.readyAt), id(f.flowXID), id(f.barXID))
			if f.failed {
				b = append(b, 'x')
			}
		}
	}
	b = append(b, '|')
	for _, f := range r.inst.waiting {
		b = append(b, byte(checkIndex(f.p)))
	}
	b = append(b, '|')
	for _, tm := range r.timers {
		b = append(b, t(tm.at), byte(tm.p))
		if tm.gen == 0 {
			b = append(b, 'g')
		}
	}
	b = append(b, '|')
	for _, o := range r.toSwitch {
		b = append(b, byte(o.kind), byte(o.p), id(o.mod), id(o.bar))
	}
	b = append(b, '|')
	for _, m := range r.fromSwitch {
		b = append(b, byte(m.p), id(m.err), id(m.bar), m.rules)
		if m.table {
			b = append(b, 't')
		}
		if m.had {
			b = append(b, 'h')
		}
	}
	for _, q := range r.toLocal {
		b = append(b, '|')
		for _, seq := range q {
			b = append(b, byte(seq))
		}
	}
	return b
}

// settle makes one fault-free move: the oldest message first, a timer
// when none is left, unless lose says to drop the switch's reply at the
// head of its channel. It returns the move, or false when nothing is left.
func (r *rack) settle(maxTicks int, lose func(swReply) bool) (step, bool) {
	next := step{ch: -1, what: deliver}
	for ch := 0; ch < checkChans; ch++ {
		if r.chanLen(ch) > 0 {
			next.ch = ch
			break
		}
	}
	if next.ch == 1 && lose(r.fromSwitch[0]) {
		next.what = drop
	}
	if i, tick, _ := r.nextTimer(maxTicks); next.ch < 0 && i < 0 && !tick {
		return next, false
	}
	r.apply(next, maxTicks)
	return next, true
}

func loseNothing(swReply) bool { return false }

// drain runs r with no more faults: the oldest message first, timers when
// no message is left, the controller's interval running on. It returns
// nil once every flight has landed, or the moves it made and why r did
// not settle.
func (r *rack) drain(settled map[string]bool) []string {
	var seen, moves []string
	var buf []byte
	for {
		buf = r.key(buf[:0])
		if settled[string(buf)] {
			break
		}
		seen = append(seen, string(buf))
		if r.violation != "" {
			return append(moves, r.violation)
		}
		if len(r.inst.flights) == 0 && r.ticks >= len(checkScript) && !r.inFlight() {
			for i, p := range checkPats {
				if r.offloaded[p] && r.tcam&(1<<i) == 0 {
					return append(moves, fmt.Sprintf("%s offloaded with no rule in the TCAM", checkName(i)))
				}
			}
			break
		}
		if r.ticks >= len(checkScript)+checkDrainTicks {
			return append(moves, fmt.Sprintf("flights still open %d intervals after the last decision", checkDrainTicks))
		}
		next, _ := r.settle(len(checkScript)+checkDrainTicks, loseNothing)
		moves = append(moves, next.String())
	}
	for _, k := range seen {
		settled[k] = true
	}
	return nil
}

// next yields each move r allows and the state it leads to.
func (r *rack) next(yield func(step, *rack) bool) {
	for _, s := range r.moves() {
		c := r.clone()
		c.apply(s, len(checkScript))
		if !yield(s, c) {
			return
		}
	}
}

// explore visits every state reachable from a fresh rack with up to faults
// faults per run.
func explore(faults int) searchResult {
	root := newRack()
	root.budget = faults
	settled := make(map[string]bool)
	return search(root,
		func(r *rack) []string {
			if drained := r.clone().drain(settled); drained != nil {
				return append([]string{"-- no faults from here --"}, drained...)
			}
			return nil
		},
		func(r *rack, _ func() []string) []string {
			if r.violation != "" {
				return []string{r.violation}
			}
			if r.rejected > 0 && r.faults == 0 {
				return []string{fmt.Sprintf("%d FlowAdds rejected with no fault", r.rejected)}
			}
			return nil
		})
}

// TestInstallerInterleavings is the exhaustive check of the installer's
// four invariants over the model rack (see the top of this file).
func TestInstallerInterleavings(t *testing.T) {
	start := time.Now()
	res := explore(checkFaults)
	t.Logf("%d states, deepest %d moves, %d faults per run: %v", res.states, res.depth, checkFaults, time.Since(start).Round(time.Millisecond))
	if res.violation != nil {
		t.Fatalf("invariant broken:\n  %s", strings.Join(res.violation, "\n  "))
	}
}

// TestDisplacingInstallWaitsForItsRemoval replays the shortest path by
// which the installer once sent a FlowAdd the TCAM rejected with no fault —
// tick 1 installs A and B and both confirm, tick 2 demotes A and installs
// C — and runs on without faults: C's FlowAdd leaves only after A's
// removal is confirmed, and no FlowAdd is rejected.
func TestDisplacingInstallWaitsForItsRemoval(t *testing.T) {
	r := newRack()
	for _, s := range []step{{-1, deliver}, {0, deliver}, {0, deliver}, {1, deliver}, {1, deliver}, {-1, deliver}} {
		r.apply(s, len(checkScript))
	}
	a, c := r.inst.flights[checkPats[0]], r.inst.flights[checkPats[2]]
	if a == nil || a.installing() || c == nil || c.phase != installWaiting {
		t.Fatalf("after tick 2: A's flight %+v, C's %+v; want A removing and C waiting", a, c)
	}
	for !r.offloaded[checkPats[2]] {
		if _, ok := r.settle(len(checkScript), loseNothing); !ok {
			break
		}
		removed := r.inst.flights[checkPats[0]] != a
		for _, o := range r.toSwitch {
			if o.kind == opAdd && o.p == 2 && !removed {
				t.Fatalf("C's FlowAdd sent at %v before A's removal was confirmed", r.now)
			}
		}
	}
	if !r.offloaded[checkPats[2]] || r.rejected != 0 || r.counts.Retries != 0 {
		t.Fatalf("C offloaded %v, %d FlowAdds rejected, %d retries; want C offloaded with none", r.offloaded[checkPats[2]], r.rejected, r.counts.Retries)
	}
}

// TestLostRemovalConfirmsBackOff loses every reply to A's removal barrier:
// the FlowDelete is re-sent on the install path's backoff, each gap longer
// than the last, until the attempt budget runs out. The removal then gives
// up without counting as a failed install, and frees its slot for the
// install that waits on it.
func TestLostRemovalConfirmsBackOff(t *testing.T) {
	r := newRack()
	const ticks = 2 // A and B; then C displaces A
	removal := func(m swReply) bool { return !m.table && m.p == 0 && !m.had && m.err == 0 }
	sent := map[uint32]bool{}
	var at []sim.Time
	for r.now < sim.Time(time.Second) {
		if _, ok := r.settle(ticks, removal); !ok {
			break
		}
		for _, o := range r.toSwitch {
			if o.kind == opDelete && o.p == 0 && o.bar != 0 && !sent[o.bar] {
				sent[o.bar] = true
				at = append(at, r.now)
			}
		}
	}
	if len(at) != maxInstallAttempts {
		t.Fatalf("A's FlowDelete sent %d times by %v; want %d", len(at), r.now, maxInstallAttempts)
	}
	for i := 2; i < len(at); i++ {
		if at[i]-at[i-1] <= at[i-1]-at[i-2] {
			t.Fatalf("re-sends at %v: gaps do not grow", at)
		}
	}
	if r.inst.flights[checkPats[0]] != nil || r.counts.GiveUps != 0 || !r.offloaded[checkPats[2]] {
		t.Fatalf("A's flight %+v, %d give-ups, C offloaded %v; want A's removal dropped, no give-up, C offloaded",
			r.inst.flights[checkPats[0]], r.counts.GiveUps, r.offloaded[checkPats[2]])
	}
}
