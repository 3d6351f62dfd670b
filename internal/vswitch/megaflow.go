package vswitch

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rules"
)

// DefaultMegaflowLimit bounds the number of megaflow entries per switch.
// OVS defaults its datapath flow limit to a couple hundred thousand; the
// testbed's rule scales are far smaller, and overflow triggers a full
// flush (a revalidation storm, exactly as in OVS under churn).
const DefaultMegaflowLimit = 8192

// ExactTableSlots caps an exact-match flow table (one per Switch, one per
// plane shard), in 64-byte slots: 2 MiB, four exact flows for every
// megaflow the limit above admits, so memory does not grow with the flows
// seen. Past the cap a new flow overwrites an old one (flowTable). A
// constant, not a config field: one value is in use.
const ExactTableSlots = 1 << 15

// megaflowCache is the wildcard decision cache between the exact-match
// fast path and the user-space rule scan — the OVS megaflow design the
// paper's vswitch substrate is modeled on (§2.2). A slow-path
// classification records the union of field masks it consulted; the
// verdict is installed under that mask, so subsequent flows that differ
// only in unexamined fields (a port scan, a new connection to the same
// service) hit one hash probe per distinct mask instead of the full
// priority scan. It is flowTables: one per distinct mask, keyed by the
// masked key.
//
// Soundness: a probe key equal to the original under the recorded mask
// takes the identical path through every tuple the classifier examined —
// matching the same entries and triggering the same pruning — so it is
// guaranteed the same verdict. Rule changes call invalidate with the
// changed pattern; every cache entry whose region overlaps it is removed,
// keeping the cache semantically transparent (the differential tests
// assert verdict identity against the linear reference under random
// add/remove interleavings).
type megaflowCache struct {
	// masks lists distinct megaflow masks in first-install order; lookup
	// probes each. The count stays small: it is bounded by the distinct
	// consulted-mask unions the rule set can produce.
	masks []rules.FieldMask
	// tables[i] holds the megaflows under masks[i], keyed by the masked
	// key; an entry's act is what an exact entry for a flow it covers starts
	// with. Made at the mask's first install; both outlive a flush.
	tables []*flowTable
	limit  int
	stats  metrics.CacheCounters
}

func newMegaflowCache(limit int) *megaflowCache {
	if limit <= 0 {
		limit = DefaultMegaflowLimit
	}
	return &megaflowCache{limit: limit}
}

// lookup returns the megaflow covering k (good until the next install).
func (c *megaflowCache) lookup(k packet.FlowKey) *flowEntry {
	for i, t := range c.tables {
		if t.live == 0 {
			continue
		}
		mk := c.masks[i].Apply(k)
		if e := t.lookup(mk, flowSlotHash(mk)); e != nil {
			c.stats.Hits++
			return e
		}
	}
	c.stats.Misses++
	return nil
}

// install caches a slow-path result under the consulted-field mask and
// returns the megaflow, replacing the action of one already there.
func (c *megaflowCache) install(k packet.FlowKey, mask rules.FieldMask, act flowAction) *flowEntry {
	if c.Len() >= c.limit {
		c.flush()
	}
	i := slices.Index(c.masks, mask)
	if i < 0 {
		i = len(c.masks)
		c.masks = append(c.masks, mask)
		c.tables = append(c.tables, newFlowTable())
	}
	mk := mask.Apply(k)
	h := flowSlotHash(mk)
	e := c.tables[i].lookup(mk, h)
	if e == nil {
		e = c.tables[i].insert(mk, h)
	}
	e.act = act
	c.stats.Installs++
	return e
}

// invalidate removes every entry whose match region overlaps the pattern,
// returning how many were removed. Called on any rule add/remove covering
// this switch's traffic.
func (c *megaflowCache) invalidate(p rules.Pattern) int {
	n := 0
	for i, t := range c.tables {
		t.each(func(e *flowEntry) {
			if p.Overlaps(c.masks[i], e.key) {
				t.remove(e)
				n++
			}
		})
	}
	c.stats.Invalidations += uint64(n)
	return n
}

// flush discards every entry (capacity overflow), counting them as
// evictions.
func (c *megaflowCache) flush() {
	c.stats.Evictions += uint64(c.Len())
	for _, t := range c.tables {
		t.flush()
	}
}

// Len returns the number of installed megaflow entries.
func (c *megaflowCache) Len() int {
	n := 0
	for _, t := range c.tables {
		n += t.live
	}
	return n
}
