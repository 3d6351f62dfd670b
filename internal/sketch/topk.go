// topk.go is the space-saving (Metwally et al.) top-k structure: exactly
// k monitored keys, each carrying a count upper bound and the maximum
// error the bound hides. New keys take over the minimum entry, inheriting
// its count as their error — the classic guarantee that any key whose
// true count exceeds the minimum monitored count is always present.
package sketch

import "sort"

// Entry is one monitored key.
type Entry[K comparable] struct {
	Key K
	// Count is the key's count upper bound: true count ≤ Count ≤ true
	// count + Err.
	Count uint64
	// Err is the maximum overestimate, inherited from the entry the key
	// took over (0 while the structure has never evicted — counts exact).
	Err uint64
	// Aux is a secondary sum carried alongside Count (the accountant uses
	// it for bytes); it inherits the takeover victim's Aux the same way,
	// so it is an overestimate with the same Err semantics scaled by the
	// stream's bytes-per-packet.
	Aux uint64
}

// SpaceSaving is a deterministic space-saving structure: eviction ties
// break by the caller's key order (the largest key among minimum counts
// goes first), so two instances fed the same update sequence are always
// in identical states. Not safe for concurrent use.
type SpaceSaving[K comparable] struct {
	k    int
	less func(a, b K) bool
	idx  map[K]int
	heap []Entry[K] // min-heap by (Count, then key descending)

	// Evictions counts takeovers (kept keys displaced by new ones);
	// summed across Merge so shard counters survive report merging.
	Evictions uint64
}

// NewSpaceSaving builds a top-k structure holding at most k keys (clamped
// to ≥1). less supplies the deterministic tie-break total order.
func NewSpaceSaving[K comparable](k int, less func(a, b K) bool) *SpaceSaving[K] {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving[K]{
		k:    k,
		less: less,
		idx:  make(map[K]int, k),
		heap: make([]Entry[K], 0, k),
	}
}

// K returns the capacity.
func (s *SpaceSaving[K]) K() int { return s.k }

// before reports whether a belongs nearer the heap root than b: lower
// count first, ties put the larger key first so it is evicted first.
func (s *SpaceSaving[K]) before(a, b Entry[K]) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return s.less(b.Key, a.Key)
}

func (s *SpaceSaving[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(s.heap[i], s.heap[p]) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *SpaceSaving[K]) siftDown(i int) {
	n := len(s.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && s.before(s.heap[l], s.heap[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s.before(s.heap[r], s.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.swap(i, least)
		i = least
	}
}

func (s *SpaceSaving[K]) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.idx[s.heap[i].Key] = i
	s.idx[s.heap[j].Key] = j
}

// Update adds count (and aux) to key, admitting it by takeover of the
// minimum entry when the structure is full.
func (s *SpaceSaving[K]) Update(key K, count, aux uint64) {
	if i, ok := s.idx[key]; ok {
		s.heap[i].Count = satAdd(s.heap[i].Count, count)
		s.heap[i].Aux = satAdd(s.heap[i].Aux, aux)
		s.siftDown(i)
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, Entry[K]{Key: key, Count: count, Aux: aux})
		s.idx[key] = len(s.heap) - 1
		s.siftUp(len(s.heap) - 1)
		return
	}
	// Take over the minimum: the newcomer could have up to victim.Count
	// occurrences the structure never saw, which becomes its Err.
	victim := s.heap[0]
	s.Evictions++
	delete(s.idx, victim.Key)
	s.heap[0] = Entry[K]{
		Key:   key,
		Count: satAdd(victim.Count, count),
		Err:   victim.Count,
		Aux:   satAdd(victim.Aux, aux),
	}
	s.idx[key] = 0
	s.siftDown(0)
}

// Floor is the minimum monitored count — the maximum true count any
// absent key can have. 0 until the structure fills (counts exact).
func (s *SpaceSaving[K]) Floor() uint64 {
	if len(s.heap) < s.k {
		return 0
	}
	return s.heap[0].Count
}

// Entries returns the monitored set in canonical order: count descending,
// ties by key ascending.
func (s *SpaceSaving[K]) Entries() []Entry[K] {
	out := append([]Entry[K](nil), s.heap...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return s.less(out[i].Key, out[j].Key)
	})
	return out
}

// Merge folds o into s, preserving the overestimate and containment
// guarantees for the combined stream: a key one side never monitored may
// have occurred up to that side's Floor() times there, so the merged
// count and error are both charged that floor. When the union exceeds k,
// the smallest merged counts are dropped (ties keep the smaller key —
// the mirror of eviction order). Capacities and key orders must match by
// construction (shard sketches share one config).
func (s *SpaceSaving[K]) Merge(o *SpaceSaving[K]) {
	if o.k != s.k {
		panic("sketch: merging space-saving structures of different k")
	}
	fs, fo := s.Floor(), o.Floor()
	inO := make(map[K]bool, len(o.heap))
	for _, e := range o.heap {
		inO[e.Key] = true
	}
	union := make([]Entry[K], 0, len(s.heap)+len(o.heap))
	seen := make(map[K]int, len(s.heap)+len(o.heap))
	for _, e := range s.heap {
		if !inO[e.Key] {
			// Only in s: o may have seen it up to fo times.
			e.Count = satAdd(e.Count, fo)
			e.Err = satAdd(e.Err, fo)
		}
		seen[e.Key] = len(union)
		union = append(union, e)
	}
	for _, e := range o.heap {
		if i, ok := seen[e.Key]; ok {
			union[i].Count = satAdd(union[i].Count, e.Count)
			union[i].Err = satAdd(union[i].Err, e.Err)
			union[i].Aux = satAdd(union[i].Aux, e.Aux)
			continue
		}
		// Only in o: s may have seen it up to fs times.
		union = append(union, Entry[K]{
			Key:   e.Key,
			Count: satAdd(e.Count, fs),
			Err:   satAdd(e.Err, fs),
			Aux:   e.Aux,
		})
		seen[e.Key] = len(union) - 1
	}
	sort.Slice(union, func(i, j int) bool {
		if union[i].Count != union[j].Count {
			return union[i].Count > union[j].Count
		}
		return s.less(union[i].Key, union[j].Key)
	})
	if len(union) > s.k {
		union = union[:s.k]
	}
	s.heap = s.heap[:0]
	s.idx = make(map[K]int, len(union))
	s.heap = append(s.heap, union...)
	sort.Slice(s.heap, func(i, j int) bool { return s.before(s.heap[i], s.heap[j]) })
	for i, e := range s.heap {
		s.idx[e.Key] = i
	}
	s.Evictions += o.Evictions
}

// Clone returns a deep copy.
func (s *SpaceSaving[K]) Clone() *SpaceSaving[K] {
	out := &SpaceSaving[K]{k: s.k, less: s.less, Evictions: s.Evictions}
	out.heap = append([]Entry[K](nil), s.heap...)
	out.idx = make(map[K]int, len(out.heap))
	for i, e := range out.heap {
		out.idx[e.Key] = i
	}
	return out
}
