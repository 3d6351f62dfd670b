// Overload protection for the vswitch slow path. The user-space slow
// path is the scarce, overloadable resource of the whole design (§3): a
// single tenant opening new flows faster than the handler threads can
// scan rules would — unmanaged — monopolize the host CPUs and collapse
// every co-resident tenant's first-packet latency. This file bounds that
// failure mode with three mechanisms, mirroring what a hardened
// production vswitch does:
//
//   - bounded per-VIF upcall queues with exact tail-drop accounting
//     (a full queue drops the packet and charges DropCounters.UpcallQueue;
//     nothing is silently lost);
//   - deficit-round-robin admission across tenants (and round-robin
//     across a tenant's VIFs) so slow-path service under contention is
//     divided fairly no matter how asymmetric the miss rates are;
//   - a sliding-window CPU overload detector that, instead of letting
//     everyone's latency collapse, degrades gracefully: it clamps the
//     dominant ("storming") tenant's per-VIF miss rate and raises an
//     emergency-offload hint for the controller to move that tenant's
//     flows into hardware, relieving the software path.
package vswitch

import (
	"sort"
	"time"

	"repro/internal/packet"
	"repro/internal/ratelimit"
)

// OverloadConfig parameterizes the slow-path overload protection. The
// zero value is normalized to DefaultOverloadConfig's settings.
type OverloadConfig struct {
	// UpcallQueueDepth bounds each VIF's pending upcall queue; a miss
	// arriving at a full queue is tail-dropped (DropCounters.UpcallQueue).
	UpcallQueueDepth int
	// MaxInFlight is the number of slow-path handler threads: upcalls
	// concurrently in service. It is also the capacity unit of the
	// overload detector.
	MaxInFlight int
	// Window is the sliding window of the CPU overload detector.
	Window time.Duration
	// ClampPPS is the per-VIF miss admission rate imposed on the
	// offending tenant while overloaded.
	ClampPPS float64
	// MinWindowUpcalls suppresses detection on tiny samples.
	MinWindowUpcalls uint64
}

// DefaultOverloadConfig returns the defaults: queues deep enough that a
// healthy workload never notices, detection tuned to fire only under a
// genuine miss storm.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		UpcallQueueDepth: 512,
		MaxInFlight:      4,
		Window:           100 * time.Millisecond,
		ClampPPS:         2000,
		MinWindowUpcalls: 64,
	}
}

// The overload policy's fixed shape.
const (
	// drrQuantum is the deficit-round-robin quantum of slow-path CPU time
	// added to a tenant's deficit per scheduling visit. It is at least
	// one upcall's cost, for single-visit progress (a fairness
	// granularity, not a correctness bound).
	drrQuantum = 200 * time.Microsecond
	// overloadThreshold and recoverThreshold are the slow-path
	// utilization fractions (busy time / (window × MaxInFlight)) that
	// enter and leave the overloaded state; the gap is hysteresis.
	overloadThreshold = 0.75
	recoverThreshold  = 0.40
	// dominanceFraction is the share of windowed miss arrivals a tenant
	// must reach to be singled out as the offender and clamped.
	dominanceFraction = 0.5
)

func (c OverloadConfig) normalized() OverloadConfig {
	d := DefaultOverloadConfig()
	if c.UpcallQueueDepth <= 0 {
		c.UpcallQueueDepth = d.UpcallQueueDepth
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.ClampPPS <= 0 {
		c.ClampPPS = d.ClampPPS
	}
	if c.MinWindowUpcalls == 0 {
		c.MinWindowUpcalls = d.MinWindowUpcalls
	}
	return c
}

// OverloadSignal is the degradation signal delivered to Switch.OnOverload
// on every state transition of the detector: entering overload (with or
// without a clamped offender), an offender change, and recovery.
type OverloadSignal struct {
	// Overloaded is the detector state after the transition.
	Overloaded bool
	// Utilization is the windowed slow-path utilization at the
	// transition.
	Utilization float64
	// Offender is the dominant tenant (0 = no single tenant dominates);
	// OffenderShare its fraction of windowed miss arrivals and MissPPS
	// its windowed miss arrival rate.
	Offender      packet.TenantID
	OffenderShare float64
	MissPPS       float64
	// Clamped reports whether the offender's VIFs are being miss-rate
	// clamped.
	Clamped bool
}

// UpcallStats is one tenant's slow-path service accounting. At
// quiescence (no queued or in-flight upcalls) the identity
// Arrived == Served + QueueDrops + ClampDrops holds exactly.
type UpcallStats struct {
	Tenant packet.TenantID
	// Arrived counts miss arrivals (admitted or not); Served counts
	// completed slow-path scans; QueueDrops and ClampDrops the two
	// rejection causes; Queued and InFlight the current backlog.
	Arrived    uint64
	Served     uint64
	QueueDrops uint64
	ClampDrops uint64
	Queued     uint64
	InFlight   uint64
}

// upcallJob is one pending slow-path scan for a flow. Concurrent misses
// for the same flow coalesce onto one job as waiters.
type upcallJob struct {
	key  packet.FlowKey
	vif  VMKey
	cost time.Duration
	// install is cleared when an Invalidate/DetachVM covering the flow
	// lands while the scan is pending, so a completed upcall cannot
	// resurrect a verdict for a flow the controller just offloaded or
	// detached.
	install bool
	waiters []func(fpVerdict)
}

// vifFIFO is one VIF's bounded upcall queue.
type vifFIFO struct{ jobs []*upcallJob }

// tenantSched is one tenant's slow-path scheduling state: a DRR deficit
// and round-robin over its VIF queues.
type tenantSched struct {
	deficit  time.Duration
	queues   map[VMKey]*vifFIFO
	order    []VMKey
	idx      int
	inFlight uint64
}

func (ts *tenantSched) queueFor(vif VMKey) *vifFIFO {
	q, ok := ts.queues[vif]
	if !ok {
		q = &vifFIFO{}
		ts.queues[vif] = q
		ts.order = append(ts.order, vif)
	}
	return q
}

// current compacts drained VIFs out of the ring and returns the queue at
// the round-robin cursor, or nil when the tenant has no pending work.
func (ts *tenantSched) current() *vifFIFO {
	for len(ts.order) > 0 {
		if ts.idx >= len(ts.order) {
			ts.idx = 0
		}
		q := ts.queues[ts.order[ts.idx]]
		if len(q.jobs) > 0 {
			return q
		}
		delete(ts.queues, ts.order[ts.idx])
		ts.order = append(ts.order[:ts.idx], ts.order[ts.idx+1:]...)
	}
	return nil
}

func (ts *tenantSched) peek() *upcallJob {
	if q := ts.current(); q != nil {
		return q.jobs[0]
	}
	return nil
}

// dequeue pops the current VIF's head job and advances the VIF cursor
// (per-job round-robin across the tenant's VIFs).
func (ts *tenantSched) dequeue() *upcallJob {
	q := ts.current()
	if q == nil {
		return nil
	}
	job := q.jobs[0]
	q.jobs = q.jobs[1:]
	ts.idx++
	return job
}

func (ts *tenantSched) queued() uint64 {
	var n uint64
	for _, q := range ts.queues {
		n += uint64(len(q.jobs))
	}
	return n
}

// loadBucket is one granule of the detector's sliding window.
type loadBucket struct {
	busy     time.Duration
	arrivals map[packet.TenantID]uint64
	total    uint64
}

// loadWindow keeps slow-path busy time and per-tenant miss arrivals over
// a sliding window, bucketed so old load ages out deterministically.
type loadWindow struct {
	span    time.Duration
	gran    time.Duration
	buckets map[int64]*loadBucket
}

const loadWindowBuckets = 8

func newLoadWindow(span time.Duration) *loadWindow {
	gran := span / loadWindowBuckets
	if gran <= 0 {
		gran = time.Millisecond
	}
	return &loadWindow{span: span, gran: gran, buckets: make(map[int64]*loadBucket)}
}

func (w *loadWindow) bucket(now time.Duration) *loadBucket {
	idx := int64(now / w.gran)
	for k := range w.buckets {
		if k <= idx-loadWindowBuckets {
			delete(w.buckets, k)
		}
	}
	b, ok := w.buckets[idx]
	if !ok {
		b = &loadBucket{arrivals: make(map[packet.TenantID]uint64)}
		w.buckets[idx] = b
	}
	return b
}

func (w *loadWindow) chargeBusy(now, d time.Duration) { w.bucket(now).busy += d }

func (w *loadWindow) recordArrival(now time.Duration, t packet.TenantID) {
	b := w.bucket(now)
	b.arrivals[t]++
	b.total++
}

// sums aggregates the window: total busy time, total arrivals, and
// per-tenant arrivals. Aggregation is order-independent, so map
// iteration cannot perturb determinism.
func (w *loadWindow) sums(now time.Duration) (busy time.Duration, total uint64, per map[packet.TenantID]uint64) {
	idx := int64(now / w.gran)
	per = make(map[packet.TenantID]uint64)
	for k, b := range w.buckets {
		if k <= idx-loadWindowBuckets || k > idx {
			continue
		}
		busy += b.busy
		total += b.total
		for t, n := range b.arrivals {
			per[t] += n
		}
	}
	return
}

// admitResult discriminates the outcomes of upcall admission.
type admitResult uint8

const (
	admitOK admitResult = iota
	admitQueueFull
	admitClamped
)

// upcallSched is the switch's slow-path scheduler and overload governor.
type upcallSched struct {
	cfg OverloadConfig

	tenants map[packet.TenantID]*tenantSched
	// ring is the DRR ring of tenants with pending work, in first-
	// activation order (deterministic given the event order).
	ring     []packet.TenantID
	ringIdx  int
	inFlight int

	// pending maps a flow key to its coalescing job (queued or in
	// service).
	pending map[packet.FlowKey]*upcallJob

	window *loadWindow

	// clamped marks tenants under miss-rate clamping; clampBuckets holds
	// the per-VIF admission buckets (1 token ≡ 8 "bits" ≡ one miss).
	clamped      map[packet.TenantID]bool
	clampBuckets map[VMKey]*ratelimit.TokenBucket

	overloaded bool
	offender   packet.TenantID

	stats map[packet.TenantID]*UpcallStats

	// Entered/Recovered count overload state transitions.
	Entered   uint64
	Recovered uint64
}

func newUpcallSched(cfg OverloadConfig) *upcallSched {
	cfg = cfg.normalized()
	return &upcallSched{
		cfg:          cfg,
		tenants:      make(map[packet.TenantID]*tenantSched),
		pending:      make(map[packet.FlowKey]*upcallJob),
		window:       newLoadWindow(cfg.Window),
		clamped:      make(map[packet.TenantID]bool),
		clampBuckets: make(map[VMKey]*ratelimit.TokenBucket),
		stats:        make(map[packet.TenantID]*UpcallStats),
	}
}

func (u *upcallSched) statsFor(t packet.TenantID) *UpcallStats {
	st, ok := u.stats[t]
	if !ok {
		st = &UpcallStats{Tenant: t}
		u.stats[t] = st
	}
	return st
}

// admit runs clamping and queue-bound admission for a fresh miss. On
// admitOK the job is queued (and registered in pending); on either drop
// the packet is gone and the drop is accounted per cause.
func (u *upcallSched) admit(now time.Duration, job *upcallJob) admitResult {
	t := job.vif.Tenant
	st := u.statsFor(t)
	st.Arrived++
	u.window.recordArrival(now, t)
	if u.clamped[t] {
		b, ok := u.clampBuckets[job.vif]
		if !ok {
			b = ratelimit.NewTokenBucket(u.cfg.ClampPPS*8, 8*16)
			u.clampBuckets[job.vif] = b
		}
		if !b.Allow(now, 1) {
			st.ClampDrops++
			return admitClamped
		}
	}
	ts, ok := u.tenants[t]
	if !ok {
		ts = &tenantSched{queues: make(map[VMKey]*vifFIFO)}
		u.tenants[t] = ts
	}
	q := ts.queueFor(job.vif)
	if len(q.jobs) >= u.cfg.UpcallQueueDepth {
		st.QueueDrops++
		return admitQueueFull
	}
	q.jobs = append(q.jobs, job)
	u.activate(t)
	u.pending[job.key] = job
	return admitOK
}

// activate puts a tenant on the DRR ring if absent.
func (u *upcallSched) activate(t packet.TenantID) {
	for _, cur := range u.ring {
		if cur == t {
			return
		}
	}
	u.ring = append(u.ring, t)
}

// compactRing drops drained tenants (resetting their deficit, as classic
// DRR does for emptied queues) and keeps the cursor stable.
func (u *upcallSched) compactRing() {
	removedBefore := 0
	out := u.ring[:0]
	for i, t := range u.ring {
		ts := u.tenants[t]
		if ts == nil || ts.peek() == nil {
			if ts != nil {
				ts.deficit = 0
			}
			if i < u.ringIdx {
				removedBefore++
			}
			continue
		}
		out = append(out, t)
	}
	u.ring = out
	u.ringIdx -= removedBefore
	if u.ringIdx < 0 || u.ringIdx >= len(u.ring) {
		u.ringIdx = 0
	}
}

// next picks the next upcall to serve by deficit round robin across
// tenants. Each full pass tops every queued tenant's deficit by one
// quantum, so the pass bound is a safety net, not a scheduling limit.
func (u *upcallSched) next() *upcallJob {
	u.compactRing()
	if len(u.ring) == 0 {
		return nil
	}
	for iter := 0; iter < 1024*len(u.ring); iter++ {
		if u.ringIdx >= len(u.ring) {
			u.ringIdx = 0
		}
		ts := u.tenants[u.ring[u.ringIdx]]
		job := ts.peek()
		if job == nil {
			// Drained since compaction (can't happen mid-call, but be
			// safe).
			u.compactRing()
			if len(u.ring) == 0 {
				return nil
			}
			continue
		}
		if ts.deficit >= job.cost {
			ts.deficit -= job.cost
			return u.take(ts)
		}
		ts.deficit += drrQuantum
		u.ringIdx++
	}
	// Degenerate configuration (quantum ≪ cost overflow-scale); force
	// progress rather than stall the slow path.
	return u.take(u.tenants[u.ring[0]])
}

func (u *upcallSched) take(ts *tenantSched) *upcallJob {
	job := ts.dequeue()
	if job != nil {
		ts.inFlight++
		u.statsFor(job.vif.Tenant).InFlight++
	}
	return job
}

// complete accounts a finished slow-path scan.
func (u *upcallSched) complete(now time.Duration, job *upcallJob) {
	delete(u.pending, job.key)
	u.window.chargeBusy(now, job.cost)
	st := u.statsFor(job.vif.Tenant)
	st.Served++
	if st.InFlight > 0 {
		st.InFlight--
	}
	if ts := u.tenants[job.vif.Tenant]; ts != nil && ts.inFlight > 0 {
		ts.inFlight--
	}
}

// dominant returns the tenant with the largest windowed arrival share
// (ties broken toward the lowest tenant ID, for determinism).
func dominant(per map[packet.TenantID]uint64, total uint64) (packet.TenantID, float64) {
	if total == 0 {
		return 0, 0
	}
	ids := make([]packet.TenantID, 0, len(per))
	for t := range per {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var best packet.TenantID
	var bestN uint64
	for _, t := range ids {
		if per[t] > bestN {
			best, bestN = t, per[t]
		}
	}
	return best, float64(bestN) / float64(total)
}

// evaluate runs the overload detector and reports whether a state
// transition occurred (and, if so, the signal describing it).
func (u *upcallSched) evaluate(now time.Duration) (OverloadSignal, bool) {
	busy, total, per := u.window.sums(now)
	// Utilization is always normalized against the full window, even while
	// the window is still filling at startup: a partial window can only
	// under-estimate, never spuriously trip the detector on a boot-time
	// miss burst. Genuine storms last well beyond one window.
	elapsed := u.cfg.Window
	util := busy.Seconds() / (elapsed.Seconds() * float64(u.cfg.MaxInFlight))
	offender, share := dominant(per, total)
	changed := false
	switch {
	case !u.overloaded:
		if util >= overloadThreshold && total >= u.cfg.MinWindowUpcalls {
			u.overloaded = true
			u.Entered++
			if share >= dominanceFraction {
				u.setOffender(offender)
			}
			changed = true
		}
	default:
		if util <= recoverThreshold {
			u.overloaded = false
			u.Recovered++
			u.clearClamps()
			changed = true
		} else if share >= dominanceFraction && offender != u.offender {
			u.setOffender(offender)
			changed = true
		}
	}
	if !changed {
		return OverloadSignal{}, false
	}
	sig := OverloadSignal{
		Overloaded:  u.overloaded,
		Utilization: util,
		Clamped:     u.overloaded && u.clamped[u.offender],
	}
	if u.overloaded {
		sig.Offender = u.offender
		sig.OffenderShare = share
		sig.MissPPS = float64(per[u.offender]) / elapsed.Seconds()
	}
	return sig, true
}

func (u *upcallSched) setOffender(t packet.TenantID) {
	u.offender = t
	u.clamped[t] = true
}

func (u *upcallSched) clearClamps() {
	u.offender = 0
	u.clamped = make(map[packet.TenantID]bool)
	u.clampBuckets = make(map[VMKey]*ratelimit.TokenBucket)
}

// snapshotStats returns per-tenant upcall accounting, sorted by tenant.
func (u *upcallSched) snapshotStats() []UpcallStats {
	ids := make([]packet.TenantID, 0, len(u.stats))
	for t := range u.stats {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]UpcallStats, 0, len(ids))
	for _, t := range ids {
		st := *u.stats[t]
		if ts := u.tenants[t]; ts != nil {
			st.Queued = ts.queued()
		}
		out = append(out, st)
	}
	return out
}
