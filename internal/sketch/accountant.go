// accountant.go adapts the generic sketches to FasTrak's flow accounting:
// per-data-plane-shard sketches keyed by the measurement engine's
// statistics buckets (the per-VM/app aggregate patterns of §4.3.1, or
// exact flow patterns when aggregation is off), merged at report time
// into one bounded top-k view the local controller ships to the TOR.
package sketch

import (
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rules"
)

// Config parameterizes the flow accountant. The zero value is normalized
// to defaults.
type Config struct {
	// TopK is the space-saving capacity per shard: how many heavy-hitter
	// patterns each shard tracks exactly (default 1024). Reports are
	// exact whenever a shard's live pattern population stays below TopK.
	TopK int
	// Width and Depth size the count-min sketch (defaults 2048×4, i.e.
	// ε ≈ e/2048 of the observed packet total at δ ≈ e⁻⁴).
	Width, Depth int
	// Seed drives the deterministic hash rows (default 1).
	Seed uint64
	// Aggregate mirrors measure.Config.Aggregate: key by the egress and
	// ingress per-VM/app aggregates (the default) instead of exact flows.
	Aggregate bool
}

func (c Config) normalized() Config {
	if c.TopK <= 0 {
		c.TopK = 1024
	}
	if c.Width <= 0 {
		c.Width = 2048
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// patternLess is the deterministic field-wise total order on patterns —
// the tie-break the sketches need, without Pattern.String()'s allocation.
func patternLess(a, b rules.Pattern) bool {
	if a.Tenant != b.Tenant {
		return a.Tenant < b.Tenant
	}
	if a.AnyTenant != b.AnyTenant {
		return !a.AnyTenant
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.SrcPrefix != b.SrcPrefix {
		return a.SrcPrefix < b.SrcPrefix
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.DstPrefix != b.DstPrefix {
		return a.DstPrefix < b.DstPrefix
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// hashPattern folds a pattern into the count-min key space with FNV-1a —
// seeded per sketch row downstream, allocation-free here.
func hashPattern(p rules.Pattern) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	step := func(v uint64) {
		h ^= v
		h *= prime
	}
	step(uint64(p.Tenant))
	if p.AnyTenant {
		step(1)
	} else {
		step(0)
	}
	step(uint64(p.Src))
	step(uint64(uint32(p.SrcPrefix)))
	step(uint64(p.Dst))
	step(uint64(uint32(p.DstPrefix)))
	step(uint64(p.SrcPort))
	step(uint64(p.DstPort))
	step(uint64(p.Proto))
	return h
}

// ShardSketch is one data-plane shard's accounting state: a top-k over
// patterns plus count-min sketches for packets and bytes of everything
// (including the long tail the top-k evicted). Single-writer: the shard
// that forwards the packets owns it; readers merge quiesced copies.
type ShardSketch struct {
	cfg   Config
	top   *SpaceSaving[rules.Pattern]
	pkts  *CountMin
	bytes *CountMin

	counters metrics.SketchCounters
}

// NewShard builds one shard's sketch set from a normalized config.
func NewShard(cfg Config) *ShardSketch {
	cfg = cfg.normalized()
	return &ShardSketch{
		cfg:   cfg,
		top:   NewSpaceSaving[rules.Pattern](cfg.TopK, patternLess),
		pkts:  NewCountMin(cfg.Width, cfg.Depth, cfg.Seed),
		bytes: NewCountMin(cfg.Width, cfg.Depth, cfg.Seed),
	}
}

// Observe accounts one forwarded packet (or TSO super-packet: pkts wire
// segments of bytes total) against the flow's statistics buckets. This is
// the data-path hot call: no allocation once the flow's patterns are
// monitored.
func (s *ShardSketch) Observe(k packet.FlowKey, pkts, bytes uint64) {
	if s.cfg.Aggregate {
		s.observePattern(rules.AggregatePattern(k.EgressAggregate()), pkts, bytes)
		s.observePattern(rules.AggregatePattern(k.IngressAggregate()), pkts, bytes)
		return
	}
	s.observePattern(rules.ExactPattern(k), pkts, bytes)
}

func (s *ShardSketch) observePattern(p rules.Pattern, pkts, bytes uint64) {
	h := hashPattern(p)
	s.pkts.Update(h, pkts)
	s.bytes.Update(h, bytes)
	s.top.Update(p, pkts, bytes)
	s.counters.Updates++
}

// Merge folds another shard's sketch into this one.
func (s *ShardSketch) Merge(o *ShardSketch) {
	s.top.Merge(o.top)
	s.pkts.Merge(o.pkts)
	s.bytes.Merge(o.bytes)
	s.counters = s.counters.Add(o.counters)
	s.counters.Merges++
}

// Clone deep-copies the shard state (merge-at-report-time input).
func (s *ShardSketch) Clone() *ShardSketch {
	return &ShardSketch{
		cfg:      s.cfg,
		top:      s.top.Clone(),
		pkts:     s.pkts.Clone(),
		bytes:    s.bytes.Clone(),
		counters: s.counters,
	}
}

// Floor is the merged space-saving floor: the maximum true packet count
// any unreported pattern can have.
func (s *ShardSketch) Floor() uint64 { return s.top.Floor() }

// Counters returns this shard's sketch counters.
func (s *ShardSketch) Counters() metrics.SketchCounters {
	c := s.counters
	c.Evictions = s.top.Evictions
	return c
}

// MemoryBytes is the shard's bounded accounting footprint: O(TopK +
// Width·Depth), independent of the number of live flows.
func (s *ShardSketch) MemoryBytes() int {
	perEntry := 48 // Entry: 20-byte pattern padded + 3 uint64 counters
	return s.top.K()*perEntry + s.pkts.MemoryBytes() + s.bytes.MemoryBytes()
}

// PatternCount is one reported heavy hitter: cumulative packet and byte
// totals with the space-saving error bound.
type PatternCount struct {
	Pattern rules.Pattern
	Pkts    uint64
	Bytes   uint64
	// Err bounds the packet overestimate: true ≥ Pkts - Err.
	Err uint64
}

// Report returns the shard's monitored patterns in canonical order
// (packet count descending, pattern order ascending).
func (s *ShardSketch) Report() []PatternCount {
	entries := s.top.Entries()
	out := make([]PatternCount, len(entries))
	for i, e := range entries {
		out[i] = PatternCount{Pattern: e.Key, Pkts: e.Count, Bytes: e.Aux, Err: e.Err}
	}
	s.counters.Reports++
	return out
}

// Accountant owns one ShardSketch per data-plane shard and produces the
// merged report. Shard 0 doubles as the inline path's sketch (the
// deterministic sim configuration has exactly one).
type Accountant struct {
	cfg    Config
	shards []*ShardSketch
}

// New builds an accountant with `shards` shard sketches (clamped ≥ 1).
func New(cfg Config, shards int) *Accountant {
	cfg = cfg.normalized()
	if shards < 1 {
		shards = 1
	}
	a := &Accountant{cfg: cfg}
	for i := 0; i < shards; i++ {
		a.shards = append(a.shards, NewShard(cfg))
	}
	return a
}

// Config returns the normalized configuration.
func (a *Accountant) Config() Config { return a.cfg }

// Shard returns shard i's sketch (the single-writer handle the data
// plane feeds).
func (a *Accountant) Shard(i int) *ShardSketch { return a.shards[i] }

// Floor returns the largest per-shard space-saving floor: an upper bound
// on the overcount any one shard's monitored entry can carry, and the
// charge one-sided keys absorb when shards merge.
func (a *Accountant) Floor() uint64 {
	var f uint64
	for _, s := range a.shards {
		if x := s.Floor(); x > f {
			f = x
		}
	}
	return f
}

// Merged returns a merged copy of every shard's sketch. Only valid when
// no writer is feeding the shards — it reads shard-private state.
func (a *Accountant) Merged() *ShardSketch {
	m := a.shards[0].Clone()
	for _, s := range a.shards[1:] {
		m.Merge(s)
	}
	return m
}

// Report is the merged heavy-hitter report (same validity contract as
// Merged).
func (a *Accountant) Report() []PatternCount {
	if len(a.shards) == 1 {
		return a.shards[0].Report()
	}
	return a.Merged().Report()
}

// Counters returns the summed shard counters (same validity contract as
// Merged).
func (a *Accountant) Counters() metrics.SketchCounters {
	var out metrics.SketchCounters
	for _, s := range a.shards {
		out = out.Add(s.Counters())
	}
	return out
}

// MemoryBytes sums the shard footprints.
func (a *Accountant) MemoryBytes() int {
	n := 0
	for _, s := range a.shards {
		n += s.MemoryBytes()
	}
	return n
}
