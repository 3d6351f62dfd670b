package vswitch

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/ratelimit"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/tunnel"
)

// shardMsg is one unit on a shard's input ring: a packet vector to
// process, a barrier (done != nil), or both. Barriers travel the same
// channel as vectors, so closing done proves every earlier vector
// drained.
type shardMsg struct {
	vec  *packet.Vector
	done chan struct{}
}

// planeCountersAtomic mirrors a shard's plain counters for race-free
// external sampling. The shard owns the plain copy and stores the mirror
// once per vector; readers only load.
type planeCountersAtomic struct {
	vectors, packets                   atomic.Uint64
	tx, localTx                        atomic.Uint64
	denied, unrouted, epochFlushes     atomic.Uint64
	dropShape                          atomic.Uint64
	megaHits, megaMisses, megaInstalls atomic.Uint64
	megaEvictions, megaInvalidations   atomic.Uint64
	exactEvictions                     atomic.Uint64
}

// storeChanged stores v if it changed: the shard is the only writer, most counters
// stand still between vectors, and an atomic store costs ~20 plain loads.
func storeChanged(a *atomic.Uint64, v uint64) {
	if a.Load() != v {
		a.Store(v)
	}
}

func (a *planeCountersAtomic) publish(c *PlaneCounters, core *flowCore) {
	mega := &core.mega.stats
	storeChanged(&a.vectors, c.Vectors)
	storeChanged(&a.packets, c.Packets)
	storeChanged(&a.tx, c.Tx)
	storeChanged(&a.localTx, c.LocalTx)
	storeChanged(&a.denied, c.Denied)
	storeChanged(&a.unrouted, c.Unrouted)
	storeChanged(&a.epochFlushes, c.EpochFlushes)
	storeChanged(&a.dropShape, c.Drops.Shape)
	storeChanged(&a.megaHits, mega.Hits)
	storeChanged(&a.megaMisses, mega.Misses)
	storeChanged(&a.megaInstalls, mega.Installs)
	storeChanged(&a.megaEvictions, mega.Evictions)
	storeChanged(&a.megaInvalidations, mega.Invalidations)
	storeChanged(&a.exactEvictions, core.exact.evictions)
}

func (a *planeCountersAtomic) snapshot() PlaneCounters {
	return PlaneCounters{
		Vectors:      a.vectors.Load(),
		Packets:      a.packets.Load(),
		Tx:           a.tx.Load(),
		LocalTx:      a.localTx.Load(),
		Denied:       a.denied.Load(),
		Unrouted:     a.unrouted.Load(),
		EpochFlushes: a.epochFlushes.Load(),
		Drops:        metrics.DropCounters{Shape: a.dropShape.Load()},
		Megaflow: metrics.CacheCounters{
			Hits:          a.megaHits.Load(),
			Misses:        a.megaMisses.Load(),
			Installs:      a.megaInstalls.Load(),
			Evictions:     a.megaEvictions.Load(),
			Invalidations: a.megaInvalidations.Load(),
		},
		ExactEvictions: a.exactEvictions.Load(),
	}
}

// vifBucket is a shard's token bucket for one shaped source VIF.
type vifBucket struct {
	key VMKey
	tb  *ratelimit.TokenBucket
}

// planeShard owns one slice of the flow space. Everything below `in` is
// private to the shard's processing goroutine (the caller's goroutine in
// inline mode) and is touched with no synchronization — that privacy is
// the whole design.
type planeShard struct {
	plane *ShardedPlane
	id    int
	in    chan shardMsg
	snap  planeCountersAtomic
	_     [64]byte // keep one shard's hot state off its neighbors' cache lines

	// Epoch currently adopted.
	seq    uint64
	tables *planeTables

	// core holds the private caches, flushed wholesale on epoch change.
	core flowCore

	// Shaping buckets, kept across epochs (keepBuckets). Flow entries name
	// a bucket by its index, which is stable for the length of an epoch.
	buckets  []vifBucket
	bucketAt map[VMKey]int32

	// Plain counters (owned by the shard; mirrored into snap per vector).
	c PlaneCounters

	// Fixed per-vector scratch — no per-packet allocation.
	keys [packet.MaxVectorSize]packet.FlowKey
	acts [packet.MaxVectorSize]flowAction
	wire []byte

	// rec is set only in inline mode (SetRecorder); worker shards leave
	// it nil because Recorder event sequencing is single-goroutine.
	rec *telemetry.Scoped
}

func newPlaneShard(pl *ShardedPlane, id int) *planeShard {
	sh := &planeShard{
		plane:    pl,
		id:       id,
		core:     newFlowCore(),
		bucketAt: make(map[VMKey]int32),
		wire:     make([]byte, 0, 2048),
	}
	if !pl.inline {
		sh.in = make(chan shardMsg, planeRingDepth)
	}
	return sh
}

// run is the worker loop (worker mode only).
func (sh *planeShard) run() {
	defer sh.plane.wg.Done()
	for msg := range sh.in {
		if msg.vec != nil {
			sh.process(msg.vec)
			packet.PutVector(msg.vec)
		}
		if msg.done != nil {
			close(msg.done)
		}
	}
}

// adoptEpoch switches the shard to a new epoch, flushing both caches —
// the whole invalidation protocol. A cached action, exact or megaflow, is a
// function of its key and the epoch's tables and nothing else, so the epoch
// is all that invalidates it; keepBuckets re-packs indices only after.
func (sh *planeShard) adoptEpoch(ep *rules.Epoch[*planeTables]) {
	if sh.tables != nil {
		sh.c.EpochFlushes++
		sh.core.flush()
		sh.keepBuckets(ep.Tables)
	}
	sh.seq = ep.Seq
	sh.tables = ep.Tables
}

// keepBuckets carries the shaping buckets into epoch t: a bucket whose VIF
// is still limited keeps its token level (at the new rate, if the limit
// changed), as Switch keeps a vport's across rule changes; one whose limit
// or VM is gone is dropped. Rebuilding them instead would hand every
// shaped VIF a full burst on each publish, however unrelated.
func (sh *planeShard) keepBuckets(t *planeTables) {
	kept := sh.buckets[:0]
	for _, b := range sh.buckets {
		bps, limited := t.limits[b.key]
		if _, attached := t.vms[b.key]; !limited || !attached {
			delete(sh.bucketAt, b.key)
			continue
		}
		if share := bps / float64(len(sh.plane.shards)); share != b.tb.Rate() {
			b.tb.SetRate(sh.plane.cfg.Now(), share)
		}
		sh.bucketAt[b.key] = int32(len(kept))
		kept = append(kept, b)
	}
	clear(sh.buckets[len(kept):])
	sh.buckets = kept
}

// bucketFor returns the index of the bucket enforcing key's VIF limit,
// creating it on first use at rate bps/Shards — the multi-queue htb split.
func (sh *planeShard) bucketFor(key VMKey, bps float64) int32 {
	if i, ok := sh.bucketAt[key]; ok {
		return i
	}
	i := int32(len(sh.buckets))
	sh.buckets = append(sh.buckets, vifBucket{key, makeBucket(nil, 0, bps/float64(len(sh.plane.shards)))})
	sh.bucketAt[key] = i
	return i
}

// resolve refines the action the core installed for a flow (its verdict)
// from the epoch's tables, in the order egress tests the outcomes; the hash
// is left to process. What it adds depends on the key's tenant, source and
// destination alone, which every megaflow's mask pins (evaluate), so
// process resolves per megaflow.
func (sh *planeShard) resolve(t *planeTables, k packet.FlowKey, a flowAction) flowAction {
	if a.kind == egressDeny {
		return a
	}
	src := VMKey{Tenant: k.Tenant, IP: k.Src}
	if bps, ok := t.limits[src]; ok {
		a.bucket = sh.bucketFor(src, bps)
	}
	if _, ok := t.vms[VMKey{Tenant: k.Tenant, IP: k.Dst}]; ok {
		a.kind = egressLocal // same-host delivery, no encap
	} else if !sh.plane.cfg.Tunneling {
		a.kind = egressPlain
	} else if m, ok := t.tunnels.Lookup(k.Tenant, k.Dst); ok {
		a.kind, a.remote = egressTunnel, m.Remote
	} else {
		a.kind = egressNoTunnel
	}
	return a
}

// process runs one vector through the pipeline: epoch pickup → flow-key
// extraction → classification (exact → megaflow → full table walk) →
// egress (shape → local/encap). A warm packet costs one table
// probe, one bucket reservation and one frame write: everything else was
// resolved when its flow was installed. Per-packet work touches only
// shard-private state; shared state is the epoch snapshot (immutable) and
// the counter mirror (stored once at the end).
func (sh *planeShard) process(v *packet.Vector) {
	ep := sh.plane.pub.Load()
	if sh.tables == nil || ep.Seq != sh.seq {
		sh.adoptEpoch(ep)
	}
	t := sh.tables
	pkts := v.Pkts
	n := len(pkts)

	// Stage 1: flow-key extraction.
	for i := 0; i < n; i++ {
		sh.keys[i] = pkts[i].Key()
	}

	// Stage 2: classification. The action is copied out of the table, not
	// pointed to: a later miss in this vector may grow the table or
	// overwrite the slot.
	for i := 0; i < n; i++ {
		k := sh.keys[i]
		h := flowSlotHash(k)
		e := sh.core.exact.lookup(k, h)
		if e != nil {
			sh.rec.Hit(telemetry.KindExactHit, k.Tenant, k)
		} else {
			// A live entry proves the source vport exists in this epoch, so
			// only a miss has to look — Switch's unknown-VM egress check,
			// resolved before classification.
			src, ok := t.vms[VMKey{Tenant: k.Tenant, IP: k.Src}]
			if !ok {
				sh.acts[i].kind = egressNoVport
				continue
			}
			var m *flowEntry
			if e = sh.core.promote(k, h); e != nil {
				sh.rec.Hit(telemetry.KindMegaflowHit, k.Tenant, k)
			} else {
				e, m, _ = sh.core.miss(k, h, src, t.vms[VMKey{Tenant: k.Tenant, IP: k.Dst}])
			}
			if m != nil { // promote copies it from the megaflow
				m.act = sh.resolve(t, k, m.act)
				e.act = m.act
			}
			if e.act.kind == egressTunnel {
				e.act.hash = k.FastHash()
			}
		}
		sh.core.accrue(e, 1, uint64(pkts[i].WireLen()))
		sh.acts[i] = e.act
	}

	// Stage 3: egress. The shaping clock is read at most once per vector.
	var now time.Duration
	if len(t.limits) > 0 {
		now = sh.plane.cfg.Now()
	}
	onVerdict := sh.plane.cfg.OnVerdict
	for i := 0; i < n; i++ {
		k := sh.keys[i]
		a := &sh.acts[i]
		if a.kind == egressNoVport {
			sh.c.Unrouted++
			sh.rec.Drop(k.Tenant, k, "no-vport")
			continue
		}
		if onVerdict != nil {
			onVerdict(sh.id, k, a.kind != egressDeny, int(a.queue))
		}
		if a.kind == egressDeny {
			sh.c.Denied++
			sh.rec.Drop(k.Tenant, k, "denied")
			continue
		}
		if a.bucket != noBucket {
			if _, ok := sh.buckets[a.bucket].tb.ReserveLimit(now, pkts[i].WireLen(), maxShapeDelay); !ok {
				sh.c.Drops.Shape++
				sh.rec.Drop(k.Tenant, k, "shape")
				continue
			}
		}
		switch a.kind {
		case egressLocal:
			sh.c.LocalTx++
			sh.c.Tx++
		case egressPlain:
			sh.c.Tx++
		case egressNoTunnel:
			sh.c.Unrouted++
			sh.rec.Drop(k.Tenant, k, "no-tunnel")
		case egressTunnel:
			// Write the frame into the shard's persistent wire buffer — the
			// full encap and marshal cost the real switch pays per
			// transmitted frame.
			buf, err := tunnel.AppendVXLANFrame(sh.wire[:0], sh.plane.cfg.ServerIP, a.remote, k.Tenant, pkts[i], a.hash)
			if err != nil {
				sh.c.Unrouted++
				sh.rec.Drop(k.Tenant, k, "encap")
				continue
			}
			sh.wire = buf[:0]
			sh.c.Tx++
		}
	}

	sh.c.Vectors++
	sh.c.Packets += uint64(n)
	sh.snap.publish(&sh.c, &sh.core)
}
