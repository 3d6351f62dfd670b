package core

import (
	"slices"
	"time"

	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxInstallAttempts caps the sends of one flight, install or removal,
// before the installer gives up on it.
const maxInstallAttempts = 5

// phase is where one pattern's hardware change stands.
type phase uint8

const (
	installWaiting phase = iota // no TCAM slot free yet; nothing sent
	installSent                 // FlowAdd and barrier on the wire
	installBackoff              // rejected or timed out; next attempt waits
	removeGated                 // demoted or orphaned: waits for acks and grace
	removeSent                  // FlowDelete and barrier on the wire
	removeBackoff               // timed out; next attempt waits
)

// flight is one pattern's in-flight hardware change, install or removal.
type flight struct {
	p        rules.Pattern
	phase    phase
	failed   bool // an ErrorMsg echoed this attempt's FlowAdd
	attempts int
	queue    int // QoS queue, carried in the FlowAdd's cookie
	// needSeq is the first RuleSync excluding the pattern, which every
	// local must ack before the ACL may go; readyAt ends the grace.
	needSeq         uint32
	readyAt         sim.Time
	flowXID, barXID uint32
	// gen names the armed timer: a fire carrying an older one is stale, so
	// correctness does not rest on cancellation.
	gen   uint64
	timer *sim.Event
}

func (f *flight) installing() bool { return f.phase <= installBackoff }

// installCounts are the installer's cumulative counters; TORController
// embeds them as its own fields.
type installCounts struct {
	Installs uint64 // barrier-confirmed hardware installs
	Retries  uint64 // install re-sends after a rejection or timeout
	GiveUps  uint64 // installs abandoned after maxInstallAttempts
	Repairs  uint64 // desired rules reconciliation found missing and re-asserted
	Orphans  uint64 // unowned hardware rules reconciliation swept
	Demotes  uint64 // confirmed patterns entering the removal path
}

// installHost is what the installer acts through. TORController implements
// it over the switch agent's channel, the engine and the desired set; the
// interleaving checker over a model rack.
type installHost interface {
	flowAdd(p rules.Pattern, queue int) uint32 // the xid; queue rides in the cookie
	flowDelete(p rules.Pattern)
	barrier() uint32
	// arm calls the installer's fire(p, gen) after d.
	arm(d time.Duration, p rules.Pattern, gen uint64) *sim.Event
	jitter(n int64) int64                           // in [0, n)
	policy(p rules.Pattern) (queue int, allow bool) // tenant policy
	// syncState returns the last RuleSync's sequence and the lowest one
	// every local acked.
	syncState() (seq, floor uint32)
	// slots returns the TCAM's capacity and how many confirmed patterns
	// hold a slot in it.
	slots() (capacity, confirmed int)
	// confirmed adds p to the desired set and announces its express lane;
	// withdraw takes it out and leaves telling placers to the caller.
	confirmed(p rules.Pattern)
	withdraw(p rules.Pattern)
	announce(a openflow.OffloadAction)
	publish()
	emit(k telemetry.Kind, p rules.Pattern, cause string, v1, v2 float64)
}

// installer is the rule manager's hardware side (§4.3). It installs the
// ACLs the DE selects and announces an express lane only once a barrier
// confirmed its ACL, so a rejected or lost install never blackholes; it
// sends an install only into a free TCAM slot, so one displacing a demoted
// pattern waits for that removal; it retries with backoff; it removes a
// demoted pattern's ACL only after every local acked a RuleSync excluding
// it and a grace for packets in flight — software first, then hardware,
// as §4.1.2 orders pull-backs; and it reconciles the switch's table
// against the desired set. It knows no cluster: inputs are the tick's
// changes, the switch agent's replies, RuleSync acks and timer fires, and
// every effect goes through fx.
type installer struct {
	fx installHost
	n  *installCounts
	// delay, the control channel's one-way latency, paces the barrier
	// timeout, the backoff and the grace.
	delay   time.Duration
	flights map[rules.Pattern]*flight
	// byXID finds the flight of each FlowAdd and barrier on the wire. It
	// never shrinks, so its values are pointers, not patterns: it is sized
	// by the largest burst of installs, a TCAM's worth at a cold start.
	byXID map[uint32]*flight
	gen   uint64
	// waiting queues, oldest first, the installs that found no slot free.
	// Every other flight holds a slot or was sent to take one.
	waiting []*flight
}

func newInstaller(fx installHost, n *installCounts, delay time.Duration) *installer {
	return &installer{fx: fx, n: n, delay: delay,
		flights: make(map[rules.Pattern]*flight), byXID: make(map[uint32]*flight)}
}

// timeout bounds waiting for a barrier before an install or removal is
// re-issued; it exceeds the control round trip. grace is the minimum delay
// between demoting a pattern and removing its ACL, covering placer
// reprogramming and express-lane packets already in flight.
func (in *installer) timeout() time.Duration { return 8 * in.delay }
func (in *installer) grace() time.Duration   { return 4 * in.delay }

// backoff returns the delay before attempt n+1: exponential in the number
// of attempts already made, capped, with seeded jitter of up to one base
// so many controllers retrying after one fault don't synchronise.
func (in *installer) backoff(attempts int) time.Duration {
	base := 4 * in.delay
	d := base << uint(attempts-1)
	if max := 32 * base; d > max {
		d = max
	}
	return d + time.Duration(in.fx.jitter(int64(base)))
}

// reset forgets every flight (crash, step-down).
func (in *installer) reset() {
	for _, f := range in.flights {
		f.timer.Cancel()
	}
	in.flights = make(map[rules.Pattern]*flight)
	in.byXID = make(map[uint32]*flight)
	in.waiting = nil
}

// budget is how many patterns may be offloaded or installing at once: the
// TCAM's capacity less the slots removals still hold.
func (in *installer) budget() int {
	n, _ := in.fx.slots()
	for _, f := range in.flights {
		if !f.installing() {
			n--
		}
	}
	return n
}

// installing reports whether p's install is in flight.
func (in *installer) installing(p rules.Pattern) bool {
	f := in.flights[p]
	return f != nil && f.installing()
}

// patterns returns the installs (or removals) in flight, sorted.
func (in *installer) patterns(removals bool) []rules.Pattern {
	var out []rules.Pattern
	for p, f := range in.flights {
		if f.installing() != removals {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, rules.Pattern.Compare)
	return out
}

// needsSync reports whether a removal waits on a RuleSync after seq.
func (in *installer) needsSync(seq uint32) bool {
	for _, f := range in.flights {
		if f.needSeq > seq {
			return true
		}
	}
	return false
}

// drop ends f: its timer is canceled and its xids forgotten.
func (in *installer) drop(f *flight) {
	f.timer.Cancel()
	delete(in.byXID, f.flowXID)
	delete(in.byXID, f.barXID)
	delete(in.flights, f.p)
	if f.phase == installWaiting {
		in.waiting = slices.DeleteFunc(in.waiting, func(w *flight) bool { return w == f })
	}
}

// arm (re)sets f's timer.
func (in *installer) arm(f *flight, d time.Duration) {
	f.timer.Cancel()
	in.gen++
	f.gen = in.gen
	f.timer = in.fx.arm(d, f.p, f.gen)
}

// ---- install path ----

// install begins the confirm-then-announce sequence for p once a TCAM slot
// is free.
func (in *installer) install(p rules.Pattern) {
	queue, allow := in.fx.policy(p)
	if !allow {
		return // denied traffic gains nothing from offload; software drops it
	}
	f := &flight{p: p, queue: queue}
	if old := in.flights[p]; old != nil {
		// Re-offloaded while its removal drains: supersede it and take its
		// slot. A FlowDelete already on the wire lands first: the channel
		// is FIFO.
		in.drop(old)
		in.flights[p] = f
		in.send(f)
		return
	}
	in.flights[p] = f
	in.waiting = append(in.waiting, f)
	in.admit()
}

// admit sends waiting installs, oldest first, while a TCAM slot is free:
// held by no confirmed pattern and no flight but a waiting one. A slot
// whose FlowDelete is still on the wire is free: the FlowAdd lands after it.
func (in *installer) admit() {
	capacity, confirmed := in.fx.slots()
	for len(in.waiting) > 0 && capacity-confirmed > len(in.flights)-len(in.waiting) {
		f := in.waiting[0]
		in.waiting = slices.Delete(in.waiting, 0, 1)
		in.send(f)
	}
}

// send (re)issues the FlowAdd + barrier for one attempt.
func (in *installer) send(f *flight) {
	f.attempts++
	f.failed = false
	delete(in.byXID, f.flowXID)
	f.flowXID = in.fx.flowAdd(f.p, f.queue)
	in.byXID[f.flowXID] = f
	in.fx.emit(telemetry.KindFlowModSend, f.p, "flow-add", float64(f.flowXID), float64(f.attempts))
	// A lost or late barrier reply retries: the agent's upsert is
	// idempotent, so a duplicate FlowAdd is harmless.
	in.await(f, installSent)
}

// await sends the barrier behind f's FlowMod and arms its timeout.
func (in *installer) await(f *flight, ph phase) {
	delete(in.byXID, f.barXID)
	f.barXID = in.fx.barrier()
	in.byXID[f.barXID] = f
	f.phase = ph
	in.arm(f, in.timeout())
}

// retry backs off and re-sends f, or gives up after the attempt budget and
// frees its slot. An install given up leaves the flow on the software
// path, and the DE may try again later; a removal given up leaves an
// orphan ACL, which reconciliation sweeps.
func (in *installer) retry(f *flight) {
	switch {
	case f.attempts >= maxInstallAttempts:
		in.drop(f)
		if f.installing() {
			in.n.GiveUps++
			in.fx.emit(telemetry.KindInstallGiveUp, f.p, "attempt-budget", float64(f.attempts), 0)
		}
		in.admit()
		return
	case f.installing():
		in.n.Retries++
		cause := "timeout"
		if f.failed {
			cause = "rejected"
		}
		in.fx.emit(telemetry.KindInstallRetry, f.p, cause, float64(f.attempts), 0)
		f.phase = installBackoff
	default:
		f.phase = removeBackoff
	}
	in.arm(f, in.backoff(f.attempts))
}

// abort cancels an unconfirmed install. Nothing was announced, so no
// placer steers to it; reconciliation sweeps the rule if the delete is lost.
func (in *installer) abort(p rules.Pattern) {
	f := in.flights[p]
	if f == nil || !f.installing() {
		return
	}
	in.drop(f)
	if f.phase != installWaiting {
		in.fx.flowDelete(p)
		in.admit()
	}
}

// rejected takes an ErrorMsg: the FlowAdd it echoes failed, and the
// attempt's barrier reply retries it.
func (in *installer) rejected(xid uint32) {
	if f := in.byXID[xid]; f != nil && f.phase == installSent && f.flowXID == xid {
		f.failed = true
	}
}

// barrierReply takes a BarrierReply. For an install, the hardware either
// accepted the rule (announce the express lane) or an ErrorMsg preceded
// the barrier (retry or give up); for a removal, the ACL is gone.
func (in *installer) barrierReply(xid uint32) {
	f := in.byXID[xid]
	if f == nil || f.barXID != xid {
		return
	}
	switch {
	case f.phase == installSent && f.failed:
		in.retry(f)
	case f.phase == installSent:
		in.drop(f)
		in.n.Installs++
		in.fx.emit(telemetry.KindBarrierConfirm, f.p, "", float64(f.barXID), float64(f.attempts))
		// Hardware state acknowledged — now, and only now, redirect placers.
		in.fx.confirmed(f.p)
	case f.phase == removeSent:
		in.drop(f)
		in.admit()
	}
}

// fire takes a timer: gen 0 a grace expiry, any other a flight's.
func (in *installer) fire(now sim.Time, p rules.Pattern, gen uint64) {
	if gen == 0 {
		in.tryRemovals(now)
		return
	}
	f := in.flights[p]
	if f == nil || f.gen != gen {
		return
	}
	switch f.phase {
	case installSent, removeSent:
		in.retry(f)
	case installBackoff:
		in.send(f)
	case removeBackoff:
		f.phase = removeGated // its gate opened before: send it again
		in.tryRemovals(now)
	}
}

// ---- remove path ----

// demote takes a confirmed pattern out of the desired set at once, and its
// ACL out of hardware once the removal's gate opens.
func (in *installer) demote(now sim.Time, p rules.Pattern) {
	in.fx.withdraw(p)
	in.remove(now, p, false)
}

// remove gates p's ACL removal. A demoted pattern waits for the RuleSync
// the caller publishes in this same event; an orphan, which no RuleSync
// ever carried, for the current one.
func (in *installer) remove(now sim.Time, p rules.Pattern, orphan bool) {
	if in.flights[p] != nil {
		return
	}
	seq, _ := in.fx.syncState()
	f := &flight{p: p, phase: removeGated, needSeq: seq + 1, readyAt: now + in.grace()}
	if orphan {
		f.needSeq = seq
		in.n.Orphans++
		in.fx.emit(telemetry.KindOrphanSweep, p, "", 0, 0)
	} else {
		in.n.Demotes++
	}
	in.flights[p] = f
	in.fx.arm(in.grace(), p, 0)
}

// tryRemovals sends the FlowDelete of every removal whose gate is open.
func (in *installer) tryRemovals(now sim.Time) {
	if len(in.flights) == 0 {
		return
	}
	_, floor := in.fx.syncState()
	var ready []*flight
	for _, f := range in.flights {
		if f.phase == removeGated && now >= f.readyAt && floor >= f.needSeq {
			ready = append(ready, f)
		}
	}
	slices.SortFunc(ready, func(a, b *flight) int { return a.p.Compare(b.p) })
	for _, f := range ready {
		f.attempts++
		in.fx.flowDelete(f.p)
		in.await(f, removeSent)
	}
}

// ---- reconciliation ----

// reconcile compares the agent's reported hardware table against the
// desired set and repairs divergence in both directions:
//
//   - a desired pattern missing from hardware is immediately degraded to
//     the software path (placers redirected — express-lane packets would
//     otherwise hit the default-deny TCAM) and re-installed through the
//     normal confirm-then-announce sequence;
//   - a reported rule nobody owns (crash remnant, lost delete) is swept
//     through the gated removal path.
//
// A pattern confirmed after the snapshot was taken is in flight or just
// announced, so a healthy FIFO channel never yields a false repair; one
// reordered by faults costs a spell on the software path, never a blackhole.
func (in *installer) reconcile(now sim.Time, table []openflow.TableRule, desired map[rules.Pattern]bool) {
	reported := make(map[rules.Pattern]bool, len(table))
	for _, r := range table {
		if int(r.Priority) == hwPriority {
			reported[r.Pattern] = true
		}
	}

	var lost []rules.Pattern
	for p := range desired {
		if !reported[p] {
			lost = append(lost, p)
		}
	}
	slices.SortFunc(lost, rules.Pattern.Compare)
	for _, p := range lost {
		in.fx.withdraw(p)
		in.n.Repairs++
		in.fx.emit(telemetry.KindRepair, p, "missing-from-hw", 0, 0)
		in.fx.announce(openflow.OffloadAction{Pattern: p, Offload: false})
		in.install(p)
	}
	if len(lost) > 0 {
		in.fx.publish()
	}

	var orphans []rules.Pattern
	for p := range reported {
		if !desired[p] && in.flights[p] == nil {
			orphans = append(orphans, p)
		}
	}
	slices.SortFunc(orphans, rules.Pattern.Compare)
	for _, p := range orphans {
		in.remove(now, p, true)
	}
	in.admit() // a repair the policy now denies freed its slot
}
