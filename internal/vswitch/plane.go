// Sharded data plane: the vswitch's throughput mode. The deterministic
// discrete-event path (vswitch.go) processes one packet at a time on the
// sim's single logical core; the ShardedPlane runs the same
// classification core (flowcore.go) across N worker goroutines, RSS-style
// — flows are sharded by FastHash(FlowKey) % N, each shard owns a private
// flow core (no locks on the hot path), and packets move in pooled
// vectors (~32) so per-packet overheads amortize per batch.
//
// Control-plane mutations (rule installs, invalidations, VM
// attachments, tunnel updates, VIF limits) never touch
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
	// Tx counts packets transmitted: encapsulated toward the fabric or
	// delivered locally. LocalTx is its sub-counter.
	Tx, LocalTx uint64
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

// SetTunnel publishes a tunnel mapping install/update.
func (pl *ShardedPlane) SetTunnel(m rules.TunnelMapping) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.tunnels.Set(m)
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
