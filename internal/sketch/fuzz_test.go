package sketch

import (
	"encoding/binary"
	"testing"
)

// FuzzCountMinUpdateMerge drives a pair of count-min sketches with a
// fuzzer-chosen op stream and checks the invariants that matter: estimates
// never underestimate the true per-key totals, and merge preserves that
// for the combined stream.
func FuzzCountMinUpdateMerge(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Add([]byte{0, 7, 1, 2, 3, 4, 5, 6, 7, 200, 2, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewCountMin(32, 3, 1)
		b := NewCountMin(32, 3, 1)
		truthA := make(map[uint64]uint64)
		truthB := make(map[uint64]uint64)
		for len(data) >= 10 {
			op := data[0]
			key := binary.LittleEndian.Uint64(data[1:9]) % 512
			amt := uint64(data[9])
			data = data[10:]
			switch op % 2 {
			case 0:
				a.Update(key, amt)
				truthA[key] += amt
			case 1:
				b.Update(key, amt)
				truthB[key] += amt
			}
		}
		check := func(cm *CountMin, truth map[uint64]uint64, what string) {
			for k, want := range truth {
				if got := cm.Estimate(k); got < want {
					t.Fatalf("%s: Estimate(%d) = %d < true %d", what, k, got, want)
				}
			}
		}
		check(a, truthA, "a")
		check(b, truthB, "b")
		a.Merge(b)
		for k, v := range truthB {
			truthA[k] += v
		}
		check(a, truthA, "merged")
	})
}

// FuzzSpaceSavingGuarantees drives a space-saving structure (k=4, heavy
// eviction) with fuzzer-chosen updates and merges, checking the
// containment and overestimate bounds against exact truth throughout.
func FuzzSpaceSavingGuarantees(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 2})
	f.Add([]byte{0, 9, 200, 1, 9, 3, 0, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewSpaceSaving[int](4, intLess)
		b := NewSpaceSaving[int](4, intLess)
		truth := make(map[int]uint64) // combined-stream truth
		for len(data) >= 3 {
			op, key, amt := data[0], int(data[1]%32), uint64(data[2])
			data = data[3:]
			switch op % 3 {
			case 0:
				a.Update(key, amt, amt*2)
				truth[key] += amt
			case 1:
				b.Update(key, amt, amt*2)
				truth[key] += amt
			case 2:
				// Merge b into a and keep going: post-merge updates land in
				// a fresh b, which is exactly the multi-epoch shard shape.
				a.Merge(b)
				b = NewSpaceSaving[int](4, intLess)
			}
		}
		a.Merge(b)
		floor := a.Floor()
		for key, want := range truth {
			got, errb, ok := estimate(a, key)
			if !ok {
				if want > floor {
					t.Fatalf("containment violated: key %d true %d > floor %d", key, want, floor)
				}
				continue
			}
			if got < want {
				t.Fatalf("Estimate(%d) = %d underestimates true %d", key, got, want)
			}
			if got-errb > want {
				t.Fatalf("key %d guaranteed count %d exceeds true %d", key, got-errb, want)
			}
		}
	})
}
