package rules

import (
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// Epoch publication: the sharded data plane's readers (shard workers)
// never take a lock on the hot path. Instead the control plane builds an
// immutable snapshot of every table a shard consults — compiled VM
// classifiers, the tunnel map, NIC placements — and publishes it with an
// RCU-style atomic pointer swap. Shards load the pointer once per packet
// vector; a sequence-number change tells a shard to flush its private
// caches (exact + megaflow), which is the entire invalidation protocol:
// per-shard flush on epoch change, never a cross-shard lock.

// Epoch is one published generation of an immutable table snapshot.
type Epoch[T any] struct {
	// Seq increases by one per publication. Readers compare it against
	// the last sequence they acted on to detect staleness.
	Seq uint64
	// Tables is the immutable snapshot. Readers must not mutate it.
	Tables T
}

// EpochPublisher owns the current epoch of an immutable snapshot type.
// Publish is serialized internally; Load is a single atomic pointer read,
// safe from any goroutine, wait-free, and allocation-free.
//
// The zero value is ready to use, but Load returns nil until the first
// Publish — callers seed an initial epoch at construction time.
type EpochPublisher[T any] struct {
	mu  sync.Mutex
	seq uint64
	cur atomic.Pointer[Epoch[T]]
}

// Load returns the current epoch (nil before the first Publish).
func (p *EpochPublisher[T]) Load() *Epoch[T] { return p.cur.Load() }

// Publish installs tables as the next epoch and returns it. The snapshot
// must be immutable from this point on: readers may hold it indefinitely.
func (p *EpochPublisher[T]) Publish(tables T) *Epoch[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	e := &Epoch[T]{Seq: p.seq, Tables: tables}
	p.cur.Store(e)
	return e
}

// CompiledVM is the immutable compiled form of a VM's rule state: the one
// index Evaluate/QueueFor, the vswitch slow path and the sharded plane's
// epochs all classify through. Lookups are pure reads over private
// TupleSpaces, so concurrent shard readers may hold one indefinitely.
type CompiledVM struct {
	sec *TupleSpace[Action]
	qos *TupleSpace[int]
	// qosMask is the union of all QoS patterns' masks: the linear seed scan
	// consulted every pattern, so a cached queue decision must pin at least
	// the union when any rule exists (narrower would be unsound for the 0,
	// no-match, default).
	qosMask FieldMask

	// Identity of the slices this was compiled from (VMRules' contract).
	nSec, nQoS int
	secHead    *SecurityRule
	qosHead    *QoSRule
}

// Compile returns the VM's compiled classifier: the cached one while the
// rule slices are the ones it was built from, else a fresh value — never an
// edit of the old one, which readers may still hold. The caller must hold
// whatever serialization protects mutations of v (the control plane's
// publish path).
func (v *VMRules) Compile() *CompiledVM {
	var secHead *SecurityRule
	if len(v.Security) > 0 {
		secHead = &v.Security[0]
	}
	var qosHead *QoSRule
	if len(v.QoS) > 0 {
		qosHead = &v.QoS[0]
	}
	if c := v.compiled; c != nil && c.nSec == len(v.Security) && c.secHead == secHead &&
		c.nQoS == len(v.QoS) && c.qosHead == qosHead {
		return c
	}
	c := &CompiledVM{
		sec: NewTupleSpace[Action](), qos: NewTupleSpacePriorityOnly[int](),
		nSec: len(v.Security), secHead: secHead, nQoS: len(v.QoS), qosHead: qosHead,
	}
	for i := range v.Security {
		r := &v.Security[i]
		// The linear scan's sentinel is (priority -1, specificity -1):
		// priority -1 rules still win on the specificity tie, only lower
		// priorities are unreachable.
		if r.Priority >= -1 {
			c.sec.Insert(r.Pattern, r.Priority, r.Action)
		}
	}
	for i := range v.QoS {
		r := &v.QoS[i]
		c.qosMask = c.qosMask.Union(r.Pattern.Mask())
		if r.Priority >= 0 {
			c.qos.Insert(r.Pattern, r.Priority, r.Queue)
		}
	}
	v.compiled = c
	return c
}

// HasRules reports whether the VM carries any security rules — the
// vswitch's "rule-bearing endpoint" test.
func (c *CompiledVM) HasRules() bool { return c.nSec > 0 }

// Evaluate is VMRules.Evaluate on the compiled index.
func (c *CompiledVM) Evaluate(k packet.FlowKey) Action {
	if a, ok := c.sec.Lookup(k); ok {
		return a
	}
	return Deny
}

// EvaluateMask is Evaluate plus the union of field masks consulted — the
// megaflow wildcard for caching this verdict.
func (c *CompiledVM) EvaluateMask(k packet.FlowKey) (Action, FieldMask) {
	a, ok, m := c.sec.LookupMask(k)
	if !ok {
		return Deny, m
	}
	return a, m
}

// QueueFor is VMRules.QueueFor on the compiled index.
func (c *CompiledVM) QueueFor(k packet.FlowKey) int {
	q, _ := c.qos.Lookup(k)
	return q
}

// QueueForMask is QueueFor plus the fields the decision depends on.
func (c *CompiledVM) QueueForMask(k packet.FlowKey) (int, FieldMask) {
	return c.QueueFor(k), c.qosMask
}

// TunnelView is an immutable snapshot of a TunnelTable, shared read-only
// across shard workers.
type TunnelView struct {
	m map[tunnelKey]TunnelMapping
}

// Snapshot copies the table into an immutable view.
func (t *TunnelTable) Snapshot() *TunnelView {
	v := &TunnelView{m: make(map[tunnelKey]TunnelMapping, len(t.m))}
	for k, m := range t.m {
		v.m[k] = m
	}
	return v
}

// Lookup returns the mapping for a tenant's destination VM.
func (v *TunnelView) Lookup(tenant packet.TenantID, vmIP packet.IP) (TunnelMapping, bool) {
	m, ok := v.m[tunnelKey{tenant, vmIP}]
	return m, ok
}
