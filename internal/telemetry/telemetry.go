// Package telemetry is the testbed's flight recorder and metric registry:
// the observability subsystem a production FasTrak deployment would ship
// with instead of end-of-run printf snapshots.
//
// Three pieces:
//
//   - A flight recorder (Recorder): sharded, fixed-capacity ring buffers of
//     structured Events — first-packet upcalls, exact/megaflow cache
//     install/hit/invalidation, offload and demote decisions with their
//     score inputs, FLOW_MOD sends and barrier confirms, TCAM rejects,
//     migration start/end, and every intentional drop with its cause. Each
//     event carries the sim timestamp, tenant/FlowKey, and a globally
//     monotonic sequence number so causality survives the shard merge.
//
//   - A metric Registry: a central catalogue of named counters/gauges that
//     dataplane and control-plane packages register read-callbacks into,
//     walked by a sim-clock Sampler into in-memory time series.
//
//   - Exporters (export.go, chrometrace.go): Prometheus text exposition,
//     Chrome trace-event JSON (Perfetto-loadable), and CSV.
//
// The whole package is built around a nil-able handle: every method on
// *Scoped and *Registry is safe on a nil receiver, and hot paths guard
// with a single pointer test, so the telemetry-disabled fast path costs
// one predictable branch and zero allocations. Events are fixed-size value
// types written into preallocated rings; the enabled path allocates only
// when a ring grows to its configured capacity.
package telemetry

import (
	"sort"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
)

// Kind identifies what happened. The taxonomy covers the full packet and
// rule lifecycle the paper's figures are drawn from.
type Kind uint8

const (
	// KindUpcall: a first packet missed the fast path and was queued for
	// slow-path classification (V1 = queue depth after admit).
	KindUpcall Kind = iota
	// KindExactInstall: slow path installed an exact-match fast-path entry.
	KindExactInstall
	// KindExactHit: sampled exact-match fast-path hit (every Nth; V1 = N).
	KindExactHit
	// KindMegaflowInstall: a megaflow (wildcard) cache entry was installed.
	KindMegaflowInstall
	// KindMegaflowHit: sampled megaflow cache hit (every Nth; V1 = N).
	KindMegaflowHit
	// KindInvalidate: a rule change invalidated cached entries
	// (V1 = exact entries removed, V2 = megaflow entries removed).
	KindInvalidate
	// KindDrop: a packet was intentionally discarded; Cause names the
	// DropCounters bucket (shape, upcall-queue, clamp, acl, rate, no-vrf,
	// unrouted, steer-miss, link-down, link-loss, queue-full, ...).
	KindDrop
	// KindOverload: the slow-path overload governor changed state
	// (Cause = enter/exit, V1 = miss rate, V2 = queue depth).
	KindOverload
	// KindOffloadDecision: the DE chose a flow/pattern for hardware
	// (V1 = score/pps input, V2 = rank or threshold).
	KindOffloadDecision
	// KindDemoteDecision: the DE evicted a pattern from hardware
	// (V1 = score, V2 = hysteresis threshold).
	KindDemoteDecision
	// KindFlowModSend: controller sent a FLOW_MOD (V1 = xid).
	KindFlowModSend
	// KindBarrierConfirm: barrier reply confirmed an install (V1 = xid,
	// V2 = attempts used).
	KindBarrierConfirm
	// KindTCAMInstall: the ToR accepted an ACL into TCAM (V1 = occupancy).
	KindTCAMInstall
	// KindTCAMReject: the ToR refused an ACL (Cause = full/fault).
	KindTCAMReject
	// KindTCAMRemove: an ACL was removed from TCAM (V1 = occupancy).
	KindTCAMRemove
	// KindInstallRetry: an unconfirmed install was retried (V1 = attempt).
	KindInstallRetry
	// KindInstallGiveUp: install abandoned after max attempts.
	KindInstallGiveUp
	// KindRepair: reconciliation reinstalled a missing rule.
	KindRepair
	// KindOrphanSweep: reconciliation removed an unknown hardware rule.
	KindOrphanSweep
	// KindMigrationStart: a VM migration episode began (Cause = tenant:ip,
	// V1 = from-server, V2 = to-server).
	KindMigrationStart
	// KindMigrationEnd: the migration episode finished.
	KindMigrationEnd
	// KindReportSent: the measurement engine shipped a stats report
	// (V1 = flows in report).
	KindReportSent
	// KindHint: local controller sent an overload hint (Cause = state).
	KindHint
	// KindCrash: a controller crashed.
	KindCrash
	// KindRestart: a controller restarted and re-adopted state.
	KindRestart
	// KindTCP: bridged tcpmodel trace point (Cause = data/retransmit/
	// fast-retransmit/timeout/ack, V1 = sequence number). These re-express
	// Fig. 12's packet-level migration trace as flight-recorder events.
	KindTCP
	// KindNICInstall: a SmartNIC accepted a rule into its match-action
	// table (V1 = occupancy after insert).
	KindNICInstall
	// KindNICRemove: a rule was removed from a SmartNIC table
	// (V1 = occupancy after remove).
	KindNICRemove
	// KindNICHit: sampled SmartNIC egress fast-path hit (every Nth; V1 = N).
	KindNICHit
	// KindNICReject: a SmartNIC refused a rule install
	// (Cause = full/quota/fault).
	KindNICReject
	// KindNICReset: a NIC fault cleared table state
	// (Cause = reset/corrupt, V1 = rules lost).
	KindNICReset
	// KindPlacementChange: the tiered placement engine moved a pattern
	// between tiers (Cause = "<from>-><to>", V1 = score, V2 = target
	// server for NIC placements).
	KindPlacementChange
	// KindElection: a TOR DE replica's leadership changed (Cause =
	// elect/step-down/resume-follower, V1 = term, V2 = replica id).
	KindElection
	// KindFenceReject: an epoch-fenced element refused a message from a
	// stale term (Cause = flowmod/decision/sync, V1 = stale term,
	// V2 = newest term seen).
	KindFenceReject
	// KindLeaseExpire: an unrefreshed rule lease lapsed and the rule
	// fell back to the software path (Cause = tcam/nic/placer/hw-stale,
	// V1 = rules expired).
	KindLeaseExpire
	// KindSketchReport: a local controller emitted a sketch-derived
	// top-k demand report (V1 = patterns reported, V2 = space-saving
	// floor — the demand bound on anything the report omits).
	KindSketchReport

	numKinds
)

var kindNames = [numKinds]string{
	KindUpcall:          "upcall",
	KindExactInstall:    "exact-install",
	KindExactHit:        "exact-hit",
	KindMegaflowInstall: "megaflow-install",
	KindMegaflowHit:     "megaflow-hit",
	KindInvalidate:      "invalidate",
	KindDrop:            "drop",
	KindOverload:        "overload",
	KindOffloadDecision: "offload-decision",
	KindDemoteDecision:  "demote-decision",
	KindFlowModSend:     "flowmod-send",
	KindBarrierConfirm:  "barrier-confirm",
	KindTCAMInstall:     "tcam-install",
	KindTCAMReject:      "tcam-reject",
	KindTCAMRemove:      "tcam-remove",
	KindInstallRetry:    "install-retry",
	KindInstallGiveUp:   "install-giveup",
	KindRepair:          "repair",
	KindOrphanSweep:     "orphan-sweep",
	KindMigrationStart:  "migration-start",
	KindMigrationEnd:    "migration-end",
	KindReportSent:      "report-sent",
	KindHint:            "hint",
	KindCrash:           "crash",
	KindRestart:         "restart",
	KindTCP:             "tcp",
	KindNICInstall:      "nic-install",
	KindNICRemove:       "nic-remove",
	KindNICHit:          "nic-hit",
	KindNICReject:       "nic-reject",
	KindNICReset:        "nic-reset",
	KindPlacementChange: "placement-change",
	KindElection:        "election",
	KindFenceReject:     "fence-reject",
	KindLeaseExpire:     "lease-expire",
	KindSketchReport:    "sketch-report",
}

// String returns the stable wire name of the kind (used in exports and
// parsed back by fastrak-trace).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record. It is a fixed-size value type:
// recording copies it into a preallocated ring slot, so the enabled hot
// path performs no heap allocation. Comp and Cause must be constant (or
// otherwise long-lived) strings — call sites pass literals.
type Event struct {
	// Seq is the globally monotonic sequence number: merge order across
	// shards, and the causality tiebreaker for equal timestamps.
	Seq uint64
	// At is the sim-clock timestamp.
	At time.Duration
	// Kind classifies the event.
	Kind Kind
	// Comp names the emitting component scope ("vswitch/0", "torctl/0").
	Comp string
	// Cause carries the kind-specific discriminator (drop cause, overload
	// transition, TCP trace kind, ...). Empty when not applicable.
	Cause string
	// Tenant is the owning tenant, 0 when not attributable.
	Tenant packet.TenantID
	// Flow is the 5-tuple+tenant the event concerns (zero when the event
	// is not flow-scoped).
	Flow packet.FlowKey
	// Pat is the rule pattern for rule-lifecycle events (zero otherwise).
	Pat rules.Pattern
	// V1, V2 are kind-specific numeric payloads (scores, xids, depths).
	V1, V2 float64
}

// ring is one shard's fixed-capacity circular buffer. When full, the
// oldest events are overwritten (flight-recorder semantics: the tail of
// history survives, like a crashed plane's last N minutes).
type ring struct {
	buf   []Event
	next  int    // next write index
	wrap  bool   // true once the ring has overwritten
	total uint64 // events ever written to this ring
}

func (r *ring) push(e Event) {
	r.buf[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrap = true
	}
}

// snapshot appends the ring's live events (oldest first) to dst.
func (r *ring) snapshot(dst []Event) []Event {
	if r.wrap {
		dst = append(dst, r.buf[r.next:]...)
	}
	return append(dst, r.buf[:r.next]...)
}

func (r *ring) len() int {
	if r.wrap {
		return len(r.buf)
	}
	return r.next
}

// Config sizes the recorder.
type Config struct {
	// ShardCapacity is each scope's ring size in events. Zero selects
	// DefaultShardCapacity.
	ShardCapacity int
	// HitSampleEvery records every Nth cache hit (exact and megaflow);
	// hits are the only per-packet-steady-state event class, so sampling
	// keeps the ring from drowning in them. Zero selects
	// DefaultHitSampleEvery; 1 records every hit.
	HitSampleEvery int
}

// DefaultShardCapacity is each component ring's default size.
const DefaultShardCapacity = 4096

// DefaultHitSampleEvery is the default cache-hit sampling period.
const DefaultHitSampleEvery = 1024

// Clock supplies sim time to the recorder (satisfied by *sim.Engine's Now
// via a closure; kept as a func to avoid an import cycle with sim users).
type Clock func() time.Duration

// Recorder is the flight recorder: a set of per-component ring shards
// sharing one monotonic sequence counter. A nil *Recorder is a valid
// "telemetry disabled" recorder: Scope returns nil, and all *Scoped
// methods on nil are no-ops.
type Recorder struct {
	now    Clock
	cfg    Config
	seq    uint64
	scopes []*Scoped
}

// NewRecorder builds a flight recorder reading timestamps from now.
func NewRecorder(now Clock, cfg Config) *Recorder {
	if cfg.ShardCapacity <= 0 {
		cfg.ShardCapacity = DefaultShardCapacity
	}
	if cfg.HitSampleEvery <= 0 {
		cfg.HitSampleEvery = DefaultHitSampleEvery
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Recorder{now: now, cfg: cfg}
}

// Scope allocates (or returns, on name collision) the named component's
// shard. Returns nil on a nil recorder, so call sites can hold a nil
// *Scoped when telemetry is off.
func (r *Recorder) Scope(name string) *Scoped {
	if r == nil {
		return nil
	}
	for _, s := range r.scopes {
		if s.name == name {
			return s
		}
	}
	s := &Scoped{
		rec:      r,
		name:     name,
		ring:     ring{buf: make([]Event, r.cfg.ShardCapacity)},
		hitEvery: uint64(r.cfg.HitSampleEvery),
	}
	r.scopes = append(r.scopes, s)
	return s
}

// Scopes returns the registered scope names in creation order.
func (r *Recorder) Scopes() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.scopes))
	for i, s := range r.scopes {
		names[i] = s.name
	}
	return names
}

// Recorded returns total events written and total retained (retained ≤
// written once rings wrap).
func (r *Recorder) Recorded() (written, retained uint64) {
	if r == nil {
		return 0, 0
	}
	for _, s := range r.scopes {
		written += s.ring.total
		retained += uint64(s.ring.len())
	}
	return written, retained
}

// Events merges all shards' retained events in sequence order and calls
// fn for each. The merge is stable and deterministic: Seq is globally
// unique and monotonic.
func (r *Recorder) Events(fn func(Event)) {
	if r == nil {
		return
	}
	for _, e := range r.Snapshot() {
		fn(e)
	}
}

// Snapshot returns the merged, Seq-ordered retained events.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var n int
	for _, s := range r.scopes {
		n += s.ring.len()
	}
	all := make([]Event, 0, n)
	for _, s := range r.scopes {
		all = s.ring.snapshot(all)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// Scoped is one component's handle into the recorder. All methods are
// safe on a nil receiver (the telemetry-disabled case); hot call sites
// additionally guard with `if s != nil` to skip Event construction
// entirely.
type Scoped struct {
	rec  *Recorder
	name string
	ring ring

	hitEvery uint64
	hits     uint64
}

// Record writes one event, filling Seq, At, and Comp. The Event's other
// fields are taken from e. No-op on nil.
func (s *Scoped) Record(e Event) {
	if s == nil {
		return
	}
	e.Seq = s.rec.seq
	s.rec.seq++
	e.At = s.rec.now()
	e.Comp = s.name
	s.ring.push(e)
}

// Emit is shorthand for flow-scoped events.
func (s *Scoped) Emit(k Kind, t packet.TenantID, f packet.FlowKey, cause string, v1, v2 float64) {
	if s == nil {
		return
	}
	s.Record(Event{Kind: k, Tenant: t, Flow: f, Cause: cause, V1: v1, V2: v2})
}

// EmitPattern is shorthand for rule-lifecycle events.
func (s *Scoped) EmitPattern(k Kind, t packet.TenantID, p rules.Pattern, cause string, v1, v2 float64) {
	if s == nil {
		return
	}
	s.Record(Event{Kind: k, Tenant: t, Pat: p, Cause: cause, V1: v1, V2: v2})
}

// Hit records a sampled cache hit: every hitEvery-th call emits one event
// of kind k carrying the sampling period in V1 (so consumers can rescale
// to true hit counts). No-op on nil.
func (s *Scoped) Hit(k Kind, t packet.TenantID, f packet.FlowKey) {
	if s == nil {
		return
	}
	s.hits++
	if s.hits%s.hitEvery != 0 {
		return
	}
	s.Record(Event{Kind: k, Tenant: t, Flow: f, V1: float64(s.hitEvery)})
}

// Drop records an intentional packet discard with its cause.
func (s *Scoped) Drop(t packet.TenantID, f packet.FlowKey, cause string) {
	if s == nil {
		return
	}
	s.Record(Event{Kind: KindDrop, Tenant: t, Flow: f, Cause: cause})
}
