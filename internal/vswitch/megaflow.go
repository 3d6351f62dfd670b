package vswitch

import (
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
// priority scan.
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
	masks  []rules.FieldMask
	tables map[rules.FieldMask]map[packet.FlowKey]fpVerdict
	size   int
	limit  int
	stats  metrics.CacheCounters
}

func newMegaflowCache(limit int) *megaflowCache {
	if limit <= 0 {
		limit = DefaultMegaflowLimit
	}
	return &megaflowCache{
		tables: make(map[rules.FieldMask]map[packet.FlowKey]fpVerdict),
		limit:  limit,
	}
}

// lookup returns the cached verdict covering k, if any.
func (c *megaflowCache) lookup(k packet.FlowKey) (fpVerdict, bool) {
	for _, m := range c.masks {
		if v, ok := c.tables[m][m.Apply(k)]; ok {
			c.stats.Hits++
			return v, true
		}
	}
	c.stats.Misses++
	return fpVerdict{}, false
}

// install caches a slow-path verdict under the consulted-field mask.
func (c *megaflowCache) install(k packet.FlowKey, mask rules.FieldMask, v fpVerdict) {
	if c.size >= c.limit {
		c.flush()
	}
	tbl, ok := c.tables[mask]
	if !ok {
		tbl = make(map[packet.FlowKey]fpVerdict)
		c.tables[mask] = tbl
		c.masks = append(c.masks, mask)
	}
	mk := mask.Apply(k)
	if _, exists := tbl[mk]; !exists {
		c.size++
	}
	tbl[mk] = v
	c.stats.Installs++
}

// invalidate removes every entry whose match region overlaps the pattern,
// returning how many were removed. Called on any rule add/remove covering
// this switch's traffic.
func (c *megaflowCache) invalidate(p rules.Pattern) int {
	n := 0
	for _, m := range c.masks {
		tbl := c.tables[m]
		for mk := range tbl {
			if p.Overlaps(m, mk) {
				delete(tbl, mk)
				n++
			}
		}
	}
	c.size -= n
	c.stats.Invalidations += uint64(n)
	return n
}

// flush discards the whole cache (capacity overflow), counting the
// entries as evictions.
func (c *megaflowCache) flush() {
	c.stats.Evictions += uint64(c.size)
	c.masks = c.masks[:0]
	clear(c.tables)
	c.size = 0
}

// Len returns the number of installed megaflow entries.
func (c *megaflowCache) Len() int { return c.size }
