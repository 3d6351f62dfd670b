package sketch

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// --- count-min properties -------------------------------------------------

// TestCountMinOverestimateOnly is the core guarantee: for every inserted
// key, Estimate ≥ true count, across many seeds and skewed key
// distributions that force collisions (width far below distinct keys).
func TestCountMinOverestimateOnly(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cm := NewCountMin(64, 3, uint64(seed+1))
		truth := make(map[uint64]uint64)
		for i := 0; i < 5000; i++ {
			// Zipf-ish: low keys dominate, forcing heavy collisions in a
			// 64-wide sketch with up to 512 distinct keys.
			key := uint64(rng.Intn(1 << uint(1+rng.Intn(9))))
			delta := uint64(1 + rng.Intn(100))
			truth[key] += delta
			cm.Update(key, delta)
		}
		for key, want := range truth {
			if got := cm.Estimate(key); got < want {
				t.Fatalf("seed %d: Estimate(%d) = %d underestimates true count %d", seed, key, got, want)
			}
		}
	}
}

// TestCountMinExactWithoutCollisions: with width much larger than the key
// population the conservative-update estimate is exact.
func TestCountMinExactWithoutCollisions(t *testing.T) {
	cm := NewCountMin(1<<14, 4, 7)
	truth := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		key := uint64(rng.Intn(50))
		truth[key] += 3
		cm.Update(key, 3)
	}
	for key, want := range truth {
		if got := cm.Estimate(key); got != want {
			t.Fatalf("Estimate(%d) = %d, want exact %d", key, got, want)
		}
	}
}

// TestCountMinMergeOverestimatesSum: merging shard sketches keeps the
// overestimate guarantee for the combined stream.
func TestCountMinMergeOverestimatesSum(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := NewCountMin(64, 3, 99)
		b := NewCountMin(64, 3, 99)
		truth := make(map[uint64]uint64)
		for i := 0; i < 2000; i++ {
			key := uint64(rng.Intn(256))
			delta := uint64(1 + rng.Intn(10))
			truth[key] += delta
			if rng.Intn(2) == 0 {
				a.Update(key, delta)
			} else {
				b.Update(key, delta)
			}
		}
		a.Merge(b)
		for key, want := range truth {
			if got := a.Estimate(key); got < want {
				t.Fatalf("seed %d: merged Estimate(%d) = %d < true %d", seed, key, got, want)
			}
		}
	}
}

// TestCountMinMergeAssociative: count-min merge is exactly associative —
// (a+b)+c == a+(b+c) cell for cell, any grouping, any order.
func TestCountMinMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func() *CountMin {
		cm := NewCountMin(32, 3, 11)
		for i := 0; i < 500; i++ {
			cm.Update(uint64(rng.Intn(100)), uint64(1+rng.Intn(5)))
		}
		return cm
	}
	a, b, c := mk(), mk(), mk()

	left := a.Clone()
	left.Merge(b)
	left.Merge(c)

	bc := b.Clone()
	bc.Merge(c)
	right := a.Clone()
	right.Merge(bc)

	rev := c.Clone()
	rev.Merge(b)
	rev.Merge(a)

	if !reflect.DeepEqual(left.cells, right.cells) {
		t.Fatal("count-min merge is not associative")
	}
	if !reflect.DeepEqual(left.cells, rev.cells) {
		t.Fatal("count-min merge is not commutative")
	}
}

// TestCountMinMergeIncompatiblePanics pins the misconfiguration guard.
func TestCountMinMergeIncompatiblePanics(t *testing.T) {
	for _, o := range []*CountMin{
		NewCountMin(32, 3, 2), // seed mismatch
		NewCountMin(64, 3, 1), // width mismatch
		NewCountMin(32, 4, 1), // depth mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("merging incompatible sketches did not panic")
				}
			}()
			NewCountMin(32, 3, 1).Merge(o)
		}()
	}
}

// TestCountMinDeterministic: same seed + same update sequence ⇒ identical
// state; different seed ⇒ (almost surely) different cells.
func TestCountMinDeterministic(t *testing.T) {
	feed := func(cm *CountMin) {
		for i := 0; i < 1000; i++ {
			cm.Update(uint64(i%97), uint64(1+i%7))
		}
	}
	a, b := NewCountMin(64, 4, 12345), NewCountMin(64, 4, 12345)
	feed(a)
	feed(b)
	if !reflect.DeepEqual(a.cells, b.cells) {
		t.Fatal("same seed, same stream: cells differ")
	}
	c := NewCountMin(64, 4, 54321)
	feed(c)
	if reflect.DeepEqual(a.cells, c.cells) {
		t.Fatal("different seeds produced identical cells — hashing ignores the seed?")
	}
}

// --- space-saving properties ----------------------------------------------

func intLess(a, b int) bool { return a < b }

// TestSpaceSavingExactBelowK: while fewer than k distinct keys have been
// seen, every count is exact with Err = 0.
func TestSpaceSavingExactBelowK(t *testing.T) {
	ss := NewSpaceSaving[int](16, intLess)
	truth := make(map[int]uint64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		key := rng.Intn(16) // ≤ k distinct
		delta := uint64(1 + rng.Intn(9))
		truth[key] += delta
		ss.Update(key, delta, 0)
	}
	if ss.Floor() != 0 && len(ss.heap) < ss.K() {
		t.Fatalf("Floor() = %d before the structure filled", ss.Floor())
	}
	for key, want := range truth {
		got, errb, ok := estimate(ss, key)
		if !ok || got != want || errb != 0 {
			t.Fatalf("Estimate(%d) = (%d, %d, %v), want exact (%d, 0, true)", key, got, errb, ok, want)
		}
	}
}

// TestSpaceSavingGuarantees is the Metwally containment + error-bound
// property under heavy eviction pressure: every key with true count >
// Floor() is monitored, and every monitored key's Count is in
// [true, true+Err].
func TestSpaceSavingGuarantees(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ss := NewSpaceSaving[int](8, intLess)
		truth := make(map[int]uint64)
		for i := 0; i < 4000; i++ {
			// Skewed stream over 64 keys with only 8 slots.
			key := rng.Intn(1 << uint(1+rng.Intn(6)))
			truth[key]++
			ss.Update(key, 1, 0)
		}
		floor := ss.Floor()
		for key, want := range truth {
			got, errb, ok := estimate(ss, key)
			if !ok {
				if want > floor {
					t.Fatalf("seed %d: key %d (true %d > floor %d) missing — containment violated", seed, key, want, floor)
				}
				continue
			}
			if got < want {
				t.Fatalf("seed %d: Estimate(%d) = %d underestimates true %d", seed, key, got, want)
			}
			if got-errb > want {
				t.Fatalf("seed %d: key %d guaranteed count %d exceeds true %d", seed, key, got-errb, want)
			}
		}
	}
}

// TestSpaceSavingMergeGuarantees: after merging two shard structures,
// containment and the error bound hold for the combined stream.
func TestSpaceSavingMergeGuarantees(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := NewSpaceSaving[int](8, intLess)
		b := NewSpaceSaving[int](8, intLess)
		truth := make(map[int]uint64)
		for i := 0; i < 3000; i++ {
			key := rng.Intn(1 << uint(1+rng.Intn(6)))
			truth[key]++
			if rng.Intn(2) == 0 {
				a.Update(key, 1, 0)
			} else {
				b.Update(key, 1, 0)
			}
		}
		a.Merge(b)
		floor := a.Floor()
		for key, want := range truth {
			got, errb, ok := estimate(a, key)
			if !ok {
				if want > floor {
					t.Fatalf("seed %d: merged containment violated: key %d true %d > floor %d", seed, key, want, floor)
				}
				continue
			}
			if got < want {
				t.Fatalf("seed %d: merged Estimate(%d) = %d < true %d", seed, key, got, want)
			}
			if got-errb > want {
				t.Fatalf("seed %d: merged key %d guaranteed %d exceeds true %d", seed, key, got-errb, want)
			}
		}
	}
}

// TestSpaceSavingMergeExactAssociativeBelowK: in the no-eviction regime
// (k ≥ distinct keys — the differential-oracle regime) merge is exactly
// associative and commutative: identical Entries() for any grouping.
func TestSpaceSavingMergeExactAssociativeBelowK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func() *SpaceSaving[int] {
		ss := NewSpaceSaving[int](64, intLess) // 64 slots, ≤ 32 keys
		for i := 0; i < 800; i++ {
			ss.Update(rng.Intn(32), uint64(1+rng.Intn(4)), uint64(rng.Intn(100)))
		}
		return ss
	}
	a, b, c := mk(), mk(), mk()

	left := a.Clone()
	left.Merge(b)
	left.Merge(c)

	bc := b.Clone()
	bc.Merge(c)
	right := a.Clone()
	right.Merge(bc)

	rev := c.Clone()
	rev.Merge(b)
	rev.Merge(a)

	if !reflect.DeepEqual(left.Entries(), right.Entries()) {
		t.Fatal("space-saving merge not associative below k")
	}
	if !reflect.DeepEqual(left.Entries(), rev.Entries()) {
		t.Fatal("space-saving merge not commutative below k")
	}
}

// TestSpaceSavingDeterministicEviction: two instances fed the same stream
// are in identical states, including after evictions.
func TestSpaceSavingDeterministicEviction(t *testing.T) {
	feed := func(ss *SpaceSaving[int]) {
		for i := 0; i < 2000; i++ {
			ss.Update(i%37, uint64(1+i%5), uint64(i%11))
		}
	}
	a, b := NewSpaceSaving[int](8, intLess), NewSpaceSaving[int](8, intLess)
	feed(a)
	feed(b)
	if !reflect.DeepEqual(a.Entries(), b.Entries()) {
		t.Fatal("same stream produced different space-saving states")
	}
}

// --- accountant -----------------------------------------------------------

func flowKey(i int) packet.FlowKey {
	return packet.FlowKey{
		Tenant:  packet.TenantID(1 + i%4),
		Src:     packet.IP(0x0a000000 + uint32(i)),
		Dst:     packet.IP(0x0a800000 + uint32(i%16)),
		SrcPort: uint16(10000 + i),
		DstPort: uint16(1000 + i%8),
		Proto:   packet.ProtoTCP,
	}
}

// TestAccountantMergedReportMatchesSingleShard: splitting one stream
// across shards and merging reproduces the single-sketch report exactly
// in the no-eviction regime.
func TestAccountantMergedReportMatchesSingleShard(t *testing.T) {
	cfg := Config{TopK: 256, Width: 1 << 12, Depth: 4, Seed: 7, Aggregate: true}
	one := New(cfg, 1)
	four := New(cfg, 4)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		k := flowKey(rng.Intn(64))
		bytes := uint64(64 + rng.Intn(1400))
		one.Shard(0).Observe(k, 1, bytes)
		four.Shard(rng.Intn(4)).Observe(k, 1, bytes)
	}
	if !reflect.DeepEqual(one.Report(), four.Merged().Report()) {
		t.Fatal("sharded+merged report differs from single-shard report")
	}
}

// TestAccountantAggregateKeying: aggregate mode accounts each packet to
// both its egress and ingress aggregate patterns, like the measurement
// engine's keyFor.
func TestAccountantAggregateKeying(t *testing.T) {
	a := New(Config{TopK: 64, Aggregate: true}, 1)
	k := flowKey(3)
	a.Shard(0).Observe(k, 2, 300)
	rep := a.Report()
	if len(rep) != 2 {
		t.Fatalf("aggregate observe produced %d patterns, want 2 (egress+ingress)", len(rep))
	}
	eg := rules.AggregatePattern(k.EgressAggregate())
	in := rules.AggregatePattern(k.IngressAggregate())
	seen := map[rules.Pattern]bool{}
	for _, pc := range rep {
		seen[pc.Pattern] = true
		if pc.Pkts != 2 || pc.Bytes != 300 || pc.Err != 0 {
			t.Fatalf("pattern %v counted (%d pkts, %d bytes, err %d), want (2, 300, 0)",
				pc.Pattern, pc.Pkts, pc.Bytes, pc.Err)
		}
	}
	if !seen[eg] || !seen[in] {
		t.Fatalf("report %v missing egress/ingress aggregates %v / %v", rep, eg, in)
	}
}

// TestAccountantExactKeying: exact mode keys by the full flow 5-tuple.
func TestAccountantExactKeying(t *testing.T) {
	a := New(Config{TopK: 64}, 1)
	k := flowKey(5)
	a.Shard(0).Observe(k, 1, 100)
	a.Shard(0).Observe(k, 1, 100)
	rep := a.Report()
	if len(rep) != 1 || rep[0].Pattern != rules.ExactPattern(k) || rep[0].Pkts != 2 {
		t.Fatalf("exact-mode report = %+v, want one ExactPattern entry with 2 pkts", rep)
	}
}

// TestAccountantCountersConserved: the summed counters reflect every
// observe/merge/report, and MemoryBytes is flow-count independent.
func TestAccountantCountersConserved(t *testing.T) {
	a := New(Config{TopK: 32, Width: 64, Depth: 2}, 2)
	before := a.MemoryBytes()
	for i := 0; i < 1000; i++ {
		a.Shard(i%2).Observe(flowKey(i), 1, 100)
	}
	if got := a.MemoryBytes(); got != before {
		t.Fatalf("MemoryBytes grew with flow count: %d -> %d", before, got)
	}
	c := a.Counters()
	// Aggregate defaults off here: one pattern per observe.
	if c.Updates != 1000 {
		t.Fatalf("Counters().Updates = %d, want 1000", c.Updates)
	}
	if c.Evictions == 0 {
		t.Fatal("1000 distinct-ish flows through a 32-slot top-k produced no evictions?")
	}
}

// TestPatternLessTotalOrder: patternLess is irreflexive, asymmetric and
// total over a field-diverse pattern sample (sorted order is unique).
func TestPatternLessTotalOrder(t *testing.T) {
	var pats []rules.Pattern
	for i := 0; i < 40; i++ {
		k := flowKey(i)
		pats = append(pats, rules.ExactPattern(k),
			rules.AggregatePattern(k.EgressAggregate()),
			rules.AggregatePattern(k.IngressAggregate()))
	}
	for _, a := range pats {
		if patternLess(a, a) {
			t.Fatalf("patternLess(%v, %v) — not irreflexive", a, a)
		}
		for _, b := range pats {
			if a == b {
				continue
			}
			if patternLess(a, b) == patternLess(b, a) {
				t.Fatalf("patternLess not a strict total order on %v vs %v", a, b)
			}
		}
	}
}

// estimate returns key's count bound and error if s monitors it.
func estimate[K comparable](s *SpaceSaving[K], key K) (count, err uint64, ok bool) {
	i, ok := s.idx[key]
	if !ok {
		return 0, 0, false
	}
	return s.heap[i].Count, s.heap[i].Err, true
}
