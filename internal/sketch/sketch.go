// Package sketch implements FasTrak's bounded-memory streaming flow
// accounting: a conservative-update count-min sketch for per-key packet
// and byte estimates, and a space-saving (Metwally) top-k structure that
// surfaces the heavy-hitter aggregates the decision engine actually ranks.
//
// The paper's measurement engine (§4.3.1) keeps exact per-flow state —
// fine at testbed scale, unaffordable at millions of concurrent flows per
// host. Both structures here use memory independent of the number of live
// flows: the count-min sketch is width×depth cells, the space-saving
// structure exactly k monitored keys, so a shard's accounting footprint is
// O(k + width·depth) regardless of how many flows it forwards.
//
// Everything is deterministic: hashing is seeded splitmix64 (no runtime
// map-hash randomness), eviction ties break by a caller-supplied total
// order, and reported entries come out in a canonical order — two runs
// over the same packet sequence produce byte-identical reports, which the
// repo's telemetry sha256 determinism guard relies on.
//
// Error bounds (documented here, property-tested in sketch_test.go):
//
//   - Count-min with conservative update never underestimates: for every
//     key, Estimate(key) ≥ true count, and Estimate(key) ≤ true count +
//     εN with probability 1-δ where ε = e/width, δ = e^-depth, and N is
//     the total count inserted (the classic Cormode-Muthukrishnan bound;
//     conservative update only tightens it).
//   - Space-saving guarantees: every key with true count > Floor() is
//     present (guaranteed-heavy-hitter containment), each entry's Count
//     overestimates its true count by at most its Err, and while fewer
//     than k distinct keys have been seen every count is exact (Err = 0).
//     Floor() — the minimum monitored count, 0 until the structure fills —
//     bounds the undercount of any absent key.
//   - Merging (one sketch per data-plane shard, merged at report time)
//     preserves both properties: count-min cells sum element-wise, and
//     space-saving merge charges each side's Floor() for keys the other
//     side never saw, keeping every merged Count an overestimate.
//
// Counters are cumulative, mirroring the vswitch's cumulative per-flow
// statistics; that is the mode the differential oracle runs in.
package sketch

import "math"

// mix is the splitmix64 finalizer: a fast, statistically strong 64-bit
// mixer. Seeding happens by XORing a per-row constant into the key before
// mixing, so every row hashes independently and deterministically.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CountMin is a conservative-update count-min sketch over uint64 keys.
// Not safe for concurrent use: each data-plane shard owns one and merges
// happen on quiesced copies.
type CountMin struct {
	width, depth int
	seed         uint64
	rowSeeds     []uint64
	cells        []uint64 // depth rows of width cells, flat
}

// NewCountMin builds a sketch. width and depth are clamped to at least 2
// and 1 respectively; sketches merge only when width, depth and seed all
// match.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	if width < 2 {
		width = 2
	}
	if depth < 1 {
		depth = 1
	}
	c := &CountMin{
		width:    width,
		depth:    depth,
		seed:     seed,
		rowSeeds: make([]uint64, depth),
		cells:    make([]uint64, width*depth),
	}
	s := seed
	for i := range c.rowSeeds {
		s = mix(s ^ uint64(i+1))
		c.rowSeeds[i] = s
	}
	return c
}

// MemoryBytes returns the sketch's fixed footprint (cells only) — the
// O(width·depth) term of the accounting bound.
func (c *CountMin) MemoryBytes() int { return len(c.cells) * 8 }

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

// Update adds delta to key with conservative update: only the cells that
// would otherwise fall below the key's new estimate are raised, which
// keeps every cell the tightest overestimate the row can prove. Returns
// the key's estimate after the update.
func (c *CountMin) Update(key, delta uint64) uint64 {
	if delta == 0 {
		return c.Estimate(key)
	}
	est := uint64(math.MaxUint64)
	for i := 0; i < c.depth; i++ {
		v := c.cells[i*c.width+int(mix(key^c.rowSeeds[i])%uint64(c.width))]
		if v < est {
			est = v
		}
	}
	target := satAdd(est, delta)
	for i := 0; i < c.depth; i++ {
		cell := &c.cells[i*c.width+int(mix(key^c.rowSeeds[i])%uint64(c.width))]
		if *cell < target {
			*cell = target
		}
	}
	return target
}

// Estimate returns the key's count upper bound (the row minimum).
func (c *CountMin) Estimate(key uint64) uint64 {
	est := uint64(math.MaxUint64)
	for i := 0; i < c.depth; i++ {
		v := c.cells[i*c.width+int(mix(key^c.rowSeeds[i])%uint64(c.width))]
		if v < est {
			est = v
		}
	}
	return est
}

// Merge folds o into c element-wise (saturating). Merged estimates remain
// overestimates of the summed streams. Panics if the sketches are not
// dimension- and seed-compatible: merging misaligned rows would silently
// corrupt estimates, and shard sketches are always built from one config.
func (c *CountMin) Merge(o *CountMin) {
	if o.width != c.width || o.depth != c.depth || o.seed != c.seed {
		panic("sketch: merging incompatible count-min sketches")
	}
	for i, v := range o.cells {
		c.cells[i] = satAdd(c.cells[i], v)
	}
}

// Clone returns a deep copy (for merge-at-report-time without disturbing
// the shard's live sketch).
func (c *CountMin) Clone() *CountMin {
	out := &CountMin{width: c.width, depth: c.depth, seed: c.seed}
	out.rowSeeds = append([]uint64(nil), c.rowSeeds...)
	out.cells = append([]uint64(nil), c.cells...)
	return out
}
