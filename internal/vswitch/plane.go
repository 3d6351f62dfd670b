// Sharded data plane: the vswitch's throughput mode. The deterministic
// discrete-event path (vswitch.go) processes one packet at a time on the
// sim's single logical core; the ShardedPlane runs the same
// classification core (flowcore.go) across N worker goroutines, RSS-style
// — flows are sharded by FastHash(FlowKey) % N, each shard owns a private
// flow core (no locks on the hot path), and packets move in pooled
// vectors (~32) so per-packet overheads amortize per batch.
//
// Control-plane mutations (rule installs, invalidations, VM
// attach/detach, tunnel updates, VIF limits, NIC placements) never touch
// shard state directly: they rebuild an immutable snapshot and publish it
// through an RCU-style atomic pointer swap (rules.EpochPublisher). Shards
// pick the new epoch up at vector boundaries and flush their private
// caches — invalidation correctness is per-shard flush on epoch change,
// never a cross-shard lock.
//
// With Shards <= 1 the plane runs inline on the caller's goroutine: no
// worker goroutines, no channels, fully deterministic — the mode the
// sim/experiment/chaos harness keeps as default.
package vswitch

import (
	"time"

	"sync"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// planeRingDepth is the per-shard input queue depth, in vectors.
// Producers block when a shard's ring fills — backpressure, not loss.
const planeRingDepth = 256

// PlaneConfig configures a sharded data plane.
type PlaneConfig struct {
	// Shards is the worker count. <= 1 selects the inline deterministic
	// single-shard mode (no goroutines); > 1 spawns that many workers.
	Shards int
	// VectorSize is the target batch size (default
	// packet.DefaultVectorSize, clamped to packet.MaxVectorSize).
	VectorSize int
	// ServerIP is the VXLAN tunnel source address.
	ServerIP packet.IP
	// Tunneling enables VXLAN encap toward remote servers (the
	// multi-tenant configuration).
	Tunneling bool
	// Now supplies the shaping clock; nil uses wall time since plane
	// construction. The sim passes its virtual clock so the inline mode
	// stays deterministic even with VIF limits configured.
	Now func() time.Duration
	// OnVerdict, when set, observes every packet's classification outcome
	// from the owning shard's goroutine (differential tests). It must not
	// block and must be safe for concurrent invocation across shards.
	OnVerdict func(shard int, k packet.FlowKey, allow bool, queue int)
}

func (c PlaneConfig) normalized() PlaneConfig {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.VectorSize <= 0 {
		c.VectorSize = packet.DefaultVectorSize
	}
	if c.VectorSize > packet.MaxVectorSize {
		c.VectorSize = packet.MaxVectorSize
	}
	return c
}

// planeTables is one immutable epoch of everything a shard consults. All
// fields are read-only after publication.
type planeTables struct {
	vms     map[VMKey]*rules.CompiledVM
	tunnels *rules.TunnelView
	// nic indexes NIC-placed patterns for the NIC-first egress check;
	// nil when the host has no SmartNIC placements.
	nic  *rules.TupleSpace[int]
	nicN int
	// limits holds per-VIF egress rates in bps (htb split across shards).
	limits map[VMKey]float64
}

// PlaneCounters is the merged per-shard counter snapshot. Every packet
// submitted to the plane lands in exactly one of Tx, Denied, Unrouted or
// Drops, so conservation equations close exactly: Packets == Tx + Denied
// + Unrouted + Drops.Total().
type PlaneCounters struct {
	// Vectors and Packets count processed batches and packets.
	Vectors, Packets uint64
	// Tx counts packets transmitted: encapsulated toward the fabric,
	// delivered locally, or claimed by NIC-first egress. LocalTx and
	// NICTx are its sub-counters.
	Tx, LocalTx, NICTx uint64
	// Denied counts packets rejected by security rules; Unrouted packets
	// with no source vport or tunnel mapping.
	Denied, Unrouted uint64
	// EpochFlushes counts per-shard cache flushes taken on epoch changes.
	EpochFlushes uint64
	// Drops is the per-cause intentional-drop accounting (Shape only:
	// the plane classifies misses inline, so there is no upcall queue).
	Drops metrics.DropCounters
	// Megaflow is the merged per-shard wildcard-cache accounting.
	Megaflow metrics.CacheCounters
	// ExactEvictions counts exact entries a new flow overwrote (flowTable).
	ExactEvictions uint64
}

// Add returns the element-wise sum.
func (c PlaneCounters) Add(o PlaneCounters) PlaneCounters {
	c.Vectors += o.Vectors
	c.Packets += o.Packets
	c.Tx += o.Tx
	c.LocalTx += o.LocalTx
	c.NICTx += o.NICTx
	c.Denied += o.Denied
	c.Unrouted += o.Unrouted
	c.EpochFlushes += o.EpochFlushes
	c.Drops = c.Drops.Add(o.Drops)
	c.Megaflow = c.Megaflow.Add(o.Megaflow)
	c.ExactEvictions += o.ExactEvictions
	return c
}

// ShardedPlane is the multi-core batch data plane.
type ShardedPlane struct {
	cfg    PlaneConfig
	pub    rules.EpochPublisher[*planeTables]
	shards []*planeShard
	inline bool
	wg     sync.WaitGroup
	start  time.Time
	closed bool

	// Control-plane source of truth; mu serializes mutations. Shards
	// never read these — they read published epochs.
	mu      sync.Mutex
	vms     map[VMKey]*rules.VMRules
	limits  map[VMKey]float64
	tunnels *rules.TunnelTable
	nicPats []rules.Pattern
}

// NewShardedPlane builds a plane and publishes its first (empty) epoch.
func NewShardedPlane(cfg PlaneConfig) *ShardedPlane {
	cfg = cfg.normalized()
	pl := &ShardedPlane{
		cfg:     cfg,
		inline:  cfg.Shards <= 1,
		start:   time.Now(),
		vms:     make(map[VMKey]*rules.VMRules),
		limits:  make(map[VMKey]float64),
		tunnels: rules.NewTunnelTable(),
	}
	if pl.cfg.Now == nil {
		pl.cfg.Now = func() time.Duration { return time.Since(pl.start) }
	}
	pl.pub.Publish(pl.buildTables())
	pl.shards = make([]*planeShard, cfg.Shards)
	for i := range pl.shards {
		pl.shards[i] = newPlaneShard(pl, i)
	}
	if !pl.inline {
		for _, sh := range pl.shards {
			pl.wg.Add(1)
			go sh.run()
		}
	}
	return pl
}

// Shards returns the worker count (1 in inline mode).
func (pl *ShardedPlane) Shards() int { return len(pl.shards) }

// Inline reports whether the plane runs deterministically on the caller's
// goroutine.
func (pl *ShardedPlane) Inline() bool { return pl.inline }

// EpochSeq returns the current published epoch sequence.
func (pl *ShardedPlane) EpochSeq() uint64 { return pl.pub.Load().Seq }

// EnableSketch attaches one accountant shard to each plane shard: every
// classified packet is then Observe()d on the owning shard's sketch with
// no cross-shard synchronization. The accountant must have been built
// with New(cfg, pl.Shards()); reading merged estimates follows the same
// quiescence contract as FlowSnapshot (after Barrier or Close, or in
// inline mode). Call before submitting traffic — shards read sk without
// locks.
func (pl *ShardedPlane) EnableSketch(acct *sketch.Accountant) {
	if acct.Shards() != len(pl.shards) {
		panic("vswitch: accountant shard count must match plane shards")
	}
	for i, sh := range pl.shards {
		sh.core.sk = acct.Shard(i)
	}
}

// buildTables compiles the control-plane state into an immutable
// snapshot; a VM whose rules have not changed since the last one keeps its
// compiled index (VMRules.Compile). Caller holds mu (or has exclusive
// access at construction).
func (pl *ShardedPlane) buildTables() *planeTables {
	t := &planeTables{
		vms:     make(map[VMKey]*rules.CompiledVM, len(pl.vms)),
		tunnels: pl.tunnels.Snapshot(),
		limits:  make(map[VMKey]float64, len(pl.limits)),
	}
	for k, r := range pl.vms {
		t.vms[k] = r.Compile()
	}
	for k, bps := range pl.limits {
		t.limits[k] = bps
	}
	if len(pl.nicPats) > 0 {
		t.nic = rules.NewTupleSpace[int]()
		for _, p := range pl.nicPats {
			t.nic.Insert(p, 0, 0)
		}
		t.nicN = len(pl.nicPats)
	}
	return t
}

// publishLocked rebuilds and publishes the next epoch. Caller holds mu.
func (pl *ShardedPlane) publishLocked() {
	pl.pub.Publish(pl.buildTables())
}

// AttachVM publishes a VM attachment. The rules pointer is compiled at
// publish time; later changes to its rule slices require a fresh AttachVM
// or Invalidate call to take effect.
func (pl *ShardedPlane) AttachVM(key VMKey, r *rules.VMRules) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if r == nil {
		r = &rules.VMRules{Tenant: key.Tenant, VMIP: key.IP}
	}
	pl.vms[key] = r
	pl.publishLocked()
}

// DetachVM publishes a VM removal.
func (pl *ShardedPlane) DetachVM(key VMKey) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	delete(pl.vms, key)
	delete(pl.limits, key)
	pl.publishLocked()
}

// SetTunnel publishes a tunnel mapping install/update.
func (pl *ShardedPlane) SetTunnel(m rules.TunnelMapping) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.tunnels.Set(m)
	pl.publishLocked()
}

// RemoveTunnel publishes a tunnel mapping removal.
func (pl *ShardedPlane) RemoveTunnel(tenant packet.TenantID, vmIP packet.IP) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.tunnels.Remove(tenant, vmIP)
	pl.publishLocked()
}

// SetVIFLimit publishes a VIF egress rate (0 removes the limit). Each
// shard enforces bps/Shards — the multi-queue htb split.
func (pl *ShardedPlane) SetVIFLimit(key VMKey, egressBps float64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if egressBps > 0 {
		pl.limits[key] = egressBps
	} else {
		delete(pl.limits, key)
	}
	pl.publishLocked()
}

// SetNICPlacements publishes the SmartNIC-placed pattern set for the
// NIC-first egress check; flows covered by a placement bypass software
// shaping and encap.
func (pl *ShardedPlane) SetNICPlacements(pats []rules.Pattern) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.nicPats = append(pl.nicPats[:0], pats...)
	pl.publishLocked()
}

// Invalidate publishes a new epoch for a rule change covering p. The
// pattern itself is not consulted: epoch pickup flushes every shard's
// private caches wholesale, which is trivially sound (and cheap — a
// shard's caches rebuild from the new epoch within a few vectors).
func (pl *ShardedPlane) Invalidate(p rules.Pattern) {
	_ = p
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.publishLocked()
}

// NewInjector returns a producer-side handle that batches packets into
// per-shard vectors. Each producer goroutine must own its injector;
// injectors are not safe for concurrent use.
func (pl *ShardedPlane) NewInjector() *PlaneInjector {
	return &PlaneInjector{pl: pl, cur: make([]*packet.Vector, len(pl.shards))}
}

// Barrier blocks until every shard has drained all vectors enqueued
// before the call (callers flush their injectors first). In inline mode
// it is a no-op: processing is synchronous.
func (pl *ShardedPlane) Barrier() {
	if pl.inline {
		return
	}
	dones := make([]chan struct{}, len(pl.shards))
	for i, sh := range pl.shards {
		dones[i] = make(chan struct{})
		sh.in <- shardMsg{done: dones[i]}
	}
	for _, d := range dones {
		<-d
	}
}

// Close drains and stops the workers. All injectors must be flushed and
// retired before Close; submitting afterwards panics (send on closed
// channel). Idempotent.
func (pl *ShardedPlane) Close() {
	if pl.closed {
		return
	}
	pl.closed = true
	if pl.inline {
		return
	}
	for _, sh := range pl.shards {
		close(sh.in)
	}
	pl.wg.Wait()
}

// Counters returns the merged per-shard counter snapshot. Counters are
// published atomically at vector boundaries, so a live read is internally
// consistent per shard; for an exact whole-plane snapshot, call after
// Barrier (or Close).
func (pl *ShardedPlane) Counters() PlaneCounters {
	var out PlaneCounters
	for _, sh := range pl.shards {
		out = out.Add(sh.snap.snapshot())
	}
	return out
}

// PlaneFlowStat is one flow's merged fast-path accounting.
type PlaneFlowStat struct {
	Key     packet.FlowKey
	Allow   bool
	Queue   int
	Packets uint64
	Bytes   uint64
}

// FlowSnapshot merges every shard's exact-cache entries. Only valid when
// no vectors are in flight (after Barrier or Close, or in inline mode) —
// it walks shard-private tables. A shard's table is a bounded cache
// (ExactTableSlots): flows past its capacity displace older ones, whose
// counts leave the snapshot with them.
func (pl *ShardedPlane) FlowSnapshot() []PlaneFlowStat {
	var out []PlaneFlowStat
	for _, sh := range pl.shards {
		sh.core.exact.each(func(e *flowEntry) {
			v := e.verdict()
			out = append(out, PlaneFlowStat{Key: e.key, Allow: v.allow, Queue: v.queue, Packets: e.pkts, Bytes: e.bytes})
		})
	}
	return out
}

// ActiveFlows returns the summed exact-cache population (same validity
// contract as FlowSnapshot).
func (pl *ShardedPlane) ActiveFlows() int {
	n := 0
	for _, sh := range pl.shards {
		n += sh.core.exact.live
	}
	return n
}

// SetRecorder attaches a flight-recorder scope to the inline shard.
// Worker-mode planes ignore it: the recorder's event sequencing is not
// concurrency-safe, so multi-shard telemetry is counters merged at
// snapshot, not per-event traces.
func (pl *ShardedPlane) SetRecorder(rec *telemetry.Scoped) {
	if !pl.inline {
		return
	}
	pl.shards[0].rec = rec
}

// RegisterMetrics registers the plane's merged counters with the central
// registry under fastrak_plane_* names. Gauges read the per-shard atomic
// mirrors, so sampling a running plane is race-free.
func (pl *ShardedPlane) RegisterMetrics(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	lbl := func(extra ...string) []string {
		return append(append([]string(nil), labels...), extra...)
	}
	g := func(name, help string, f func(PlaneCounters) uint64, extra ...string) {
		reg.Gauge(name, help, func() float64 { return float64(f(pl.Counters())) }, lbl(extra...)...)
	}
	reg.Gauge("fastrak_plane_shards", "sharded data plane worker count", func() float64 { return float64(len(pl.shards)) }, lbl()...)
	g("fastrak_plane_vectors_total", "packet vectors processed", func(c PlaneCounters) uint64 { return c.Vectors })
	g("fastrak_plane_packets_total", "packets processed", func(c PlaneCounters) uint64 { return c.Packets })
	g("fastrak_plane_tx_total", "packets transmitted (wire + local + NIC)", func(c PlaneCounters) uint64 { return c.Tx })
	g("fastrak_plane_nic_tx_total", "packets claimed by NIC-first egress", func(c PlaneCounters) uint64 { return c.NICTx })
	g("fastrak_plane_denied_total", "packets rejected by security rules", func(c PlaneCounters) uint64 { return c.Denied })
	g("fastrak_plane_unrouted_total", "packets with no vport or tunnel", func(c PlaneCounters) uint64 { return c.Unrouted })
	g("fastrak_plane_drops_total", "intentional drops by cause", func(c PlaneCounters) uint64 { return c.Drops.Shape }, "cause=shape")
	g("fastrak_plane_epoch_flushes_total", "per-shard cache flushes on epoch change", func(c PlaneCounters) uint64 { return c.EpochFlushes })
	g("fastrak_plane_megaflow_hits_total", "merged megaflow cache hits", func(c PlaneCounters) uint64 { return c.Megaflow.Hits })
	g("fastrak_plane_megaflow_misses_total", "merged megaflow cache misses", func(c PlaneCounters) uint64 { return c.Megaflow.Misses })
}

// PlaneInjector batches a single producer's packets into per-shard
// vectors and submits full ones. Not safe for concurrent use: one
// injector per producer goroutine.
type PlaneInjector struct {
	pl  *ShardedPlane
	cur []*packet.Vector
}

// Egress submits a packet a VM sends through its VIF: the packet is
// stamped with the tenant, routed to its flow's shard by
// FastHash(FlowKey) % N, and processed when the shard's pending vector
// fills (or at the next Flush).
func (in *PlaneInjector) Egress(key VMKey, p *packet.Packet) {
	p.Tenant = key.Tenant
	sh := 0
	if n := len(in.pl.shards); n > 1 {
		sh = int(p.Key().FastHash() % uint64(n))
	}
	v := in.cur[sh]
	if v == nil {
		v = packet.GetVector(in.pl.cfg.VectorSize)
		in.cur[sh] = v
	}
	if v.Append(p, in.pl.cfg.VectorSize) {
		in.flushShard(sh)
	}
}

// Flush submits every pending partial vector.
func (in *PlaneInjector) Flush() {
	for i := range in.cur {
		in.flushShard(i)
	}
}

func (in *PlaneInjector) flushShard(i int) {
	v := in.cur[i]
	if v == nil || v.Len() == 0 {
		return
	}
	if in.pl.inline {
		// Inline mode: process synchronously on the caller's goroutine
		// and reuse the vector — the steady state allocates nothing.
		in.pl.shards[0].process(v)
		v.Reset()
		return
	}
	in.pl.shards[i].in <- shardMsg{vec: v}
	in.cur[i] = nil
}
