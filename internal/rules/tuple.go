package rules

import (
	"repro/internal/packet"
)

// FieldMask records which fields of the 6-tuple a classification consulted
// (or a pattern constrains). It is the megaflow currency: a slow-path
// lookup returns the union of the masks of every tuple it probed, and any
// packet equal to the original under that mask is guaranteed the same
// verdict — the OVS megaflow insight. FieldMask is comparable, so it can
// key maps directly.
type FieldMask struct {
	// Tenant is true when the tenant field was consulted.
	Tenant bool
	// SrcPrefix/DstPrefix are the consulted IP prefix lengths (0 = the
	// address was never examined).
	SrcPrefix, DstPrefix int8
	// SrcPort/DstPort/Proto are true when the field was consulted.
	SrcPort, DstPort, Proto bool
}

// ExactMask is the fully-specified mask: every field consulted. A megaflow
// under ExactMask degenerates to an exact-match entry.
var ExactMask = FieldMask{Tenant: true, SrcPrefix: 32, DstPrefix: 32, SrcPort: true, DstPort: true, Proto: true}

// Union returns the field-wise union of two masks — the combined
// "fields consulted" set of two classification steps.
func (m FieldMask) Union(o FieldMask) FieldMask {
	u := FieldMask{
		Tenant:    m.Tenant || o.Tenant,
		SrcPrefix: m.SrcPrefix,
		DstPrefix: m.DstPrefix,
		SrcPort:   m.SrcPort || o.SrcPort,
		DstPort:   m.DstPort || o.DstPort,
		Proto:     m.Proto || o.Proto,
	}
	if o.SrcPrefix > u.SrcPrefix {
		u.SrcPrefix = o.SrcPrefix
	}
	if o.DstPrefix > u.DstPrefix {
		u.DstPrefix = o.DstPrefix
	}
	return u
}

// Apply projects a flow key onto the mask: unconsulted fields are zeroed
// and IPs are truncated to the consulted prefix. Two keys with equal
// projections are indistinguishable to any classification that consulted
// only the masked fields.
func (m FieldMask) Apply(k packet.FlowKey) packet.FlowKey {
	var p packet.FlowKey
	if m.Tenant {
		p.Tenant = k.Tenant
	}
	p.Src = k.Src.Mask(int(m.SrcPrefix))
	p.Dst = k.Dst.Mask(int(m.DstPrefix))
	if m.SrcPort {
		p.SrcPort = k.SrcPort
	}
	if m.DstPort {
		p.DstPort = k.DstPort
	}
	if m.Proto {
		p.Proto = k.Proto
	}
	return p
}

// Mask returns the pattern's field mask: exactly the fields Match consults.
func (p Pattern) Mask() FieldMask {
	return FieldMask{
		Tenant:    !p.AnyTenant,
		SrcPrefix: int8(clampPrefix(p.SrcPrefix)),
		DstPrefix: int8(clampPrefix(p.DstPrefix)),
		SrcPort:   p.SrcPort != 0,
		DstPort:   p.DstPort != 0,
		Proto:     p.Proto != 0,
	}
}

func clampPrefix(n uint8) int { return int(min(n, 32)) }

// canonicalKey returns the pattern's representative key under its own
// mask: for any k, p.Match(k) ⇔ p.Mask().Apply(k) == p.canonicalKey().
func (p Pattern) canonicalKey() packet.FlowKey {
	m := p.Mask()
	k := packet.FlowKey{
		Src: p.Src, Dst: p.Dst,
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: p.Proto, Tenant: p.Tenant,
	}
	return m.Apply(k)
}

// Overlaps reports whether the pattern's match region intersects the
// megaflow region (mask m with projected key mk) — i.e. whether some flow
// key matches both. Used to invalidate only the megaflow entries a rule
// change could affect.
func (p Pattern) Overlaps(m FieldMask, mk packet.FlowKey) bool {
	if !p.AnyTenant && m.Tenant && p.Tenant != mk.Tenant {
		return false
	}
	if p.SrcPrefix > 0 && m.SrcPrefix > 0 {
		c := clampPrefix(p.SrcPrefix)
		if int(m.SrcPrefix) < c {
			c = int(m.SrcPrefix)
		}
		if p.Src.Mask(c) != mk.Src.Mask(c) {
			return false
		}
	}
	if p.DstPrefix > 0 && m.DstPrefix > 0 {
		c := clampPrefix(p.DstPrefix)
		if int(m.DstPrefix) < c {
			c = int(m.DstPrefix)
		}
		if p.Dst.Mask(c) != mk.Dst.Mask(c) {
			return false
		}
	}
	if p.SrcPort != 0 && m.SrcPort && p.SrcPort != mk.SrcPort {
		return false
	}
	if p.DstPort != 0 && m.DstPort && p.DstPort != mk.DstPort {
		return false
	}
	if p.Proto != 0 && m.Proto && p.Proto != mk.Proto {
		return false
	}
	return true
}

// tsEntry is one rule inside a tuple bucket.
type tsEntry[V any] struct {
	prio int
	seq  uint64
	val  V
}

// tupleGroup holds all rules sharing one field mask. Every pattern in the
// group reduces to an exact match on the mask-projected key, so a group
// lookup is one hash probe. Specificity is a function of the mask alone,
// so it is a group constant.
type tupleGroup[V any] struct {
	mask    FieldMask
	spec    int
	maxPrio int
	atMax   int // entries at maxPrio: Remove rescans when none is left
	buckets map[packet.FlowKey][]tsEntry[V]
	count   int
}

// TupleSpace is a tuple-space-search classifier (the OVS user-space
// design): rules are grouped by field mask, each group is a hash table on
// the masked key, and groups are scanned in descending max-priority order
// with pruning — once a match is found, groups whose best possible
// priority is strictly lower cannot win and are skipped. With R rules over
// T distinct masks, lookup is O(T) hash probes instead of O(R) pattern
// matches; rule sets drawn from a few templates (the common case) have
// small T.
//
// Tie-breaking reproduces the seed linear scans exactly: highest priority
// wins, then highest specificity, then earliest insertion.
type TupleSpace[V any] struct {
	groups  []*tupleGroup[V] // sorted by maxPrio descending
	byMask  map[FieldMask]*tupleGroup[V]
	seq     uint64
	specTie bool
}

// NewTupleSpace returns an empty classifier with (priority, specificity,
// insertion-order) tie-breaking — the semantics of VMRules.Evaluate
// and the TCAM.
func NewTupleSpace[V any]() *TupleSpace[V] {
	return &TupleSpace[V]{byMask: make(map[FieldMask]*tupleGroup[V]), specTie: true}
}

// NewTupleSpacePriorityOnly returns a classifier that breaks priority ties
// by insertion order alone, ignoring specificity — the semantics of
// VMRules.QueueFor.
func NewTupleSpacePriorityOnly[V any]() *TupleSpace[V] {
	return &TupleSpace[V]{byMask: make(map[FieldMask]*tupleGroup[V])}
}

// Insert adds a rule.
func (t *TupleSpace[V]) Insert(p Pattern, prio int, v V) {
	mask := p.Mask()
	g, ok := t.byMask[mask]
	if !ok {
		g = &tupleGroup[V]{
			mask:    mask,
			spec:    p.Specificity(),
			maxPrio: prio,
			buckets: make(map[packet.FlowKey][]tsEntry[V]),
		}
		t.byMask[mask] = g
		t.groups = append(t.groups, g)
	}
	key := p.canonicalKey()
	g.buckets[key] = append(g.buckets[key], tsEntry[V]{prio: prio, seq: t.seq, val: v})
	t.seq++
	g.count++
	switch {
	case prio > g.maxPrio:
		g.maxPrio, g.atMax = prio, 1
	case prio == g.maxPrio:
		g.atMax++
	}
	t.resort()
}

// Remove deletes every rule whose pattern equals p and whose value
// satisfies match (nil = all), returning how many were removed.
func (t *TupleSpace[V]) Remove(p Pattern, match func(V) bool) int {
	mask := p.Mask()
	g, ok := t.byMask[mask]
	if !ok {
		return 0
	}
	key := p.canonicalKey()
	bucket, ok := g.buckets[key]
	if !ok {
		return 0
	}
	n := 0
	out := bucket[:0]
	for _, e := range bucket {
		if match == nil || match(e.val) {
			n++
			if e.prio == g.maxPrio {
				g.atMax--
			}
			continue
		}
		out = append(out, e)
	}
	if n == 0 {
		return 0
	}
	if len(out) == 0 {
		delete(g.buckets, key)
	} else {
		g.buckets[key] = out
	}
	g.count -= n
	if g.count == 0 {
		delete(t.byMask, mask)
		for i, gg := range t.groups {
			if gg == g {
				t.groups = append(t.groups[:i], t.groups[i+1:]...)
				break
			}
		}
	} else if g.atMax == 0 {
		// Keep maxPrio tight so pruning stays effective: it drops only
		// when the last entry that carried it went.
		g.maxPrio, g.atMax = g.recomputeMaxPrio()
		t.resort()
	}
	return n
}

// recomputeMaxPrio returns the group's top priority and its entry count.
func (g *tupleGroup[V]) recomputeMaxPrio() (max, atMax int) {
	first := true
	for _, bucket := range g.buckets {
		for _, e := range bucket {
			switch {
			case first || e.prio > max:
				max, atMax, first = e.prio, 1, false
			case e.prio == max:
				atMax++
			}
		}
	}
	return max, atMax
}

// resort restores descending-maxPrio order of the groups (stable; the
// group count is small, and insertion sort on a nearly-sorted slice is
// cheap).
func (t *TupleSpace[V]) resort() {
	gs := t.groups
	for i := 1; i < len(gs); i++ {
		g := gs[i]
		j := i - 1
		for j >= 0 && gs[j].maxPrio < g.maxPrio {
			gs[j+1] = gs[j]
			j--
		}
		gs[j+1] = g
	}
}

// Lookup returns the winning rule's value for the key.
func (t *TupleSpace[V]) Lookup(k packet.FlowKey) (V, bool) {
	v, ok, _ := t.lookup(k, false)
	return v, ok
}

// LookupMask is Lookup plus the union of the field masks of every tuple
// the search probed — the wildcard a megaflow cache entry for this
// decision may use. Tuples skipped by priority pruning are excluded: the
// skip decision depends only on matches in probed tuples, which the mask
// pins.
func (t *TupleSpace[V]) LookupMask(k packet.FlowKey) (V, bool, FieldMask) {
	return t.lookup(k, true)
}

func (t *TupleSpace[V]) lookup(k packet.FlowKey, wantMask bool) (V, bool, FieldMask) {
	var (
		best     V
		found    bool
		bestPrio int
		bestSpec int
		bestSeq  uint64
		mask     FieldMask
	)
	for _, g := range t.groups {
		if found && g.maxPrio < bestPrio {
			break // no remaining group can beat the current winner
		}
		if wantMask {
			mask = mask.Union(g.mask)
		}
		bucket, ok := g.buckets[g.mask.Apply(k)]
		if !ok {
			continue
		}
		for _, e := range bucket {
			switch {
			case !found,
				e.prio > bestPrio,
				t.specTie && e.prio == bestPrio && g.spec > bestSpec,
				e.prio == bestPrio && (!t.specTie || g.spec == bestSpec) && e.seq < bestSeq:
				best, found = e.val, true
				bestPrio, bestSpec, bestSeq = e.prio, g.spec, e.seq
			}
		}
	}
	return best, found, mask
}
