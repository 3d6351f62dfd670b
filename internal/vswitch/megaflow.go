package vswitch

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rules"
)

// DefaultMegaflowLimit bounds the number of megaflow entries per switch.
// OVS defaults its datapath flow limit to a couple hundred thousand; the
// testbed's rule scales are far smaller, and overflow triggers a full
// flush (a revalidation storm, exactly as in OVS under churn).
const DefaultMegaflowLimit = 8192

// ExactTableSlots caps each plane shard's exact-match flow table, in
// 64-byte slots: 2 MiB a shard, four exact flows for every megaflow the
// limit above admits, so a shard's memory does not grow with the flows it
// has seen between publishes. Past the cap a new flow overwrites an old
// one (flowTable). A constant, not a PlaneConfig field: one value is in
// use.
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
// megaEntry is one installed megaflow: the cached verdict plus the last
// virtual time it served a packet, for idle expiry (OVS datapath flows
// idle out the same way — revalidation then reclassifies the next packet).
type megaEntry struct {
	v    fpVerdict
	last time.Duration
}

type megaflowCache struct {
	// masks lists distinct megaflow masks in first-install order; lookup
	// probes each. The count stays small: it is bounded by the distinct
	// consulted-mask unions the rule set can produce.
	masks  []rules.FieldMask
	tables map[rules.FieldMask]map[packet.FlowKey]*megaEntry
	size   int
	limit  int
	stats  metrics.CacheCounters
}

func newMegaflowCache(limit int) *megaflowCache {
	if limit <= 0 {
		limit = DefaultMegaflowLimit
	}
	return &megaflowCache{
		tables: make(map[rules.FieldMask]map[packet.FlowKey]*megaEntry),
		limit:  limit,
	}
}

// lookup returns the cached verdict covering k, if any, refreshing the
// entry's idle clock.
func (c *megaflowCache) lookup(k packet.FlowKey, now time.Duration) (fpVerdict, bool) {
	for _, m := range c.masks {
		if e, ok := c.tables[m][m.Apply(k)]; ok {
			e.last = now
			c.stats.Hits++
			return e.v, true
		}
	}
	c.stats.Misses++
	return fpVerdict{}, false
}

// install caches a slow-path verdict under the consulted-field mask.
func (c *megaflowCache) install(k packet.FlowKey, mask rules.FieldMask, v fpVerdict, now time.Duration) {
	if c.size >= c.limit {
		c.flush()
	}
	tbl, ok := c.tables[mask]
	if !ok {
		tbl = make(map[packet.FlowKey]*megaEntry)
		c.tables[mask] = tbl
		c.masks = append(c.masks, mask)
	}
	mk := mask.Apply(k)
	if e, exists := tbl[mk]; exists {
		e.v, e.last = v, now
	} else {
		tbl[mk] = &megaEntry{v: v, last: now}
		c.size++
	}
	c.stats.Installs++
}

// expire removes entries idle since before deadline, counting them as
// evictions. Returns how many were removed.
func (c *megaflowCache) expire(deadline time.Duration) int {
	n := 0
	for _, m := range c.masks {
		tbl := c.tables[m]
		for mk, e := range tbl {
			if e.last < deadline {
				delete(tbl, mk)
				n++
			}
		}
	}
	c.size -= n
	c.stats.Evictions += uint64(n)
	return n
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
