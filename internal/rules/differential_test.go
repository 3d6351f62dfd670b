package rules

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
)

// The tuple-space classifiers must be observationally identical to the
// seed linear scans they replaced. These differential tests drive both
// implementations with randomized rule sets, randomized insert/remove
// interleavings, and keys biased to land on rule boundaries, asserting
// byte-identical verdicts throughout.

// randPattern draws a pattern from the shapes real rule sets use: exact
// and prefix IP matches, wildcarded or pinned ports and protocol, a small
// tenant space so collisions and shadowing actually occur.
func randPattern(rng *rand.Rand) Pattern {
	var p Pattern
	if rng.Intn(8) == 0 {
		p.AnyTenant = true
	} else {
		p.Tenant = packet.TenantID(rng.Intn(3) + 1)
	}
	prefix := func() (packet.IP, uint8) {
		switch rng.Intn(4) {
		case 0:
			return 0, 0 // any
		case 1:
			ip := packet.IP(0x0a000000 | uint32(rng.Intn(2)<<8)) // 10.0.{0,2}.0/24
			return ip, 24
		default:
			ip := packet.IP(0x0a000000 | uint32(rng.Intn(2)<<8) | uint32(rng.Intn(4)))
			return ip, 32
		}
	}
	p.Src, p.SrcPrefix = prefix()
	p.Dst, p.DstPrefix = prefix()
	if rng.Intn(2) == 0 {
		p.SrcPort = uint16(40000 + rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		p.DstPort = []uint16{22, 80, 11211}[rng.Intn(3)]
	}
	switch rng.Intn(3) {
	case 0:
		p.Proto = packet.ProtoTCP
	case 1:
		p.Proto = packet.ProtoUDP
	}
	return p
}

// randKey draws keys from the same small space the patterns cover, so a
// substantial fraction of lookups match one or more rules.
func randKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		Tenant:  packet.TenantID(rng.Intn(3) + 1),
		Src:     packet.IP(0x0a000000 | uint32(rng.Intn(2)<<8) | uint32(rng.Intn(4))),
		Dst:     packet.IP(0x0a000000 | uint32(rng.Intn(2)<<8) | uint32(rng.Intn(4))),
		SrcPort: uint16(40000 + rng.Intn(3)),
		DstPort: []uint16{22, 80, 11211}[rng.Intn(3)],
		Proto:   []byte{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)],
	}
}

func TestVMRulesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		v := &VMRules{Tenant: 1, VMIP: packet.MustParseIP("10.0.0.1")}
		// Interleave appends, removals (wholesale replacement) and probes:
		// the index must track every slice mutation pattern the callers use.
		for step := 0; step < 120; step++ {
			switch rng.Intn(6) {
			case 0:
				v.Security = append(v.Security, SecurityRule{
					Pattern: randPattern(rng), Action: Action(rng.Intn(2)), Priority: rng.Intn(6) - 1,
				})
			case 1:
				v.QoS = append(v.QoS, QoSRule{
					Pattern: randPattern(rng), Queue: rng.Intn(4), Priority: rng.Intn(6) - 1,
				})
			case 2:
				if len(v.Security) > 0 {
					i := rng.Intn(len(v.Security))
					v.Security = append(append([]SecurityRule{}, v.Security[:i]...), v.Security[i+1:]...)
				}
			case 3:
				if len(v.QoS) > 0 {
					i := rng.Intn(len(v.QoS))
					v.QoS = append(append([]QoSRule{}, v.QoS[:i]...), v.QoS[i+1:]...)
				}
			}
			k := randKey(rng)
			if got, want := v.Evaluate(k), v.EvaluateLinear(k); got != want {
				t.Fatalf("trial %d step %d: Evaluate(%v) = %v, linear reference %v", trial, step, k, got, want)
			}
			if got, want := v.QueueFor(k), v.QueueForLinear(k); got != want {
				t.Fatalf("trial %d step %d: QueueFor(%v) = %d, linear reference %d", trial, step, k, got, want)
			}
		}
	}
}

func TestTCAMDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tc := NewTCAM(200)
		var installed []Pattern
		for step := 0; step < 150; step++ {
			if rng.Intn(3) != 0 || len(installed) == 0 {
				p := randPattern(rng)
				e := &TCAMEntry{Pattern: p, Priority: rng.Intn(6), Action: Action(rng.Intn(2)), Queue: rng.Intn(4)}
				if tc.Insert(e) == nil {
					installed = append(installed, p)
				}
			} else {
				i := rng.Intn(len(installed))
				tc.Remove(installed[i])
				installed = append(installed[:i], installed[i+1:]...)
			}
			k := randKey(rng)
			got, want := tc.Lookup(k), tc.LookupLinear(k)
			if got != want {
				t.Fatalf("trial %d step %d: Lookup(%v) = %+v, linear reference %+v", trial, step, k, got, want)
			}
		}
	}
}

// TestTCAMRemoveFromFullEqualPriority empties a full TCAM whose entries
// all share one priority, one removal at a time: every removal but a
// group's last leaves its top priority in place, and lookups must still
// agree with the linear reference after each.
func TestTCAMRemoveFromFullEqualPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tc := NewTCAM(640)
	var installed []Pattern
	for seen := make(map[Pattern]bool); len(installed) < 640; {
		p := randPattern(rng)
		if seen[p] {
			continue
		}
		seen[p] = true
		if err := tc.Insert(&TCAMEntry{Pattern: p, Priority: 5, Queue: len(installed)}); err != nil {
			t.Fatal(err)
		}
		installed = append(installed, p)
	}
	rng.Shuffle(len(installed), func(i, j int) { installed[i], installed[j] = installed[j], installed[i] })
	for i, p := range installed {
		if n := tc.Remove(p); n != 1 {
			t.Fatalf("removal %d of %v took %d entries", i, p, n)
		}
		for probe := 0; probe < 20; probe++ {
			k := randKey(rng)
			if got, want := tc.Lookup(k), tc.LookupLinear(k); got != want {
				t.Fatalf("after %d removals: Lookup(%v) = %+v, linear reference %+v", i+1, k, got, want)
			}
		}
	}
	if entries, tuples := tupleSpaceSize(tc.idx); tc.Len() != 0 || entries != 0 || tuples != 0 {
		t.Fatalf("emptied TCAM holds %d entries, index %d in %d tuples", tc.Len(), entries, tuples)
	}
}

// TestLookupMaskSoundness is the megaflow safety property: any key whose
// projection under the returned mask equals the probed key's projection
// must receive the identical verdict. The test perturbs every field the
// mask does not pin and asserts verdict identity.
func TestLookupMaskSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		ts := NewTupleSpace[int]()
		n := rng.Intn(30) + 1
		for i := 0; i < n; i++ {
			ts.Insert(randPattern(rng), rng.Intn(6), i)
		}
		for probe := 0; probe < 100; probe++ {
			k := randKey(rng)
			v, ok, m := ts.LookupMask(k)
			for mut := 0; mut < 20; mut++ {
				k2 := randKey(rng)
				// Force k2 into k's megaflow region: overwrite the fields
				// the mask pins with k's values.
				if m.Tenant {
					k2.Tenant = k.Tenant
				}
				// Merge: pinned prefix bits from k, free suffix bits from k2.
				k2.Src = k.Src.Mask(int(m.SrcPrefix)) | (k2.Src &^ packet.IP(0xffffffff).Mask(int(m.SrcPrefix)))
				k2.Dst = k.Dst.Mask(int(m.DstPrefix)) | (k2.Dst &^ packet.IP(0xffffffff).Mask(int(m.DstPrefix)))
				if m.SrcPort {
					k2.SrcPort = k.SrcPort
				}
				if m.DstPort {
					k2.DstPort = k.DstPort
				}
				if m.Proto {
					k2.Proto = k.Proto
				}
				if m.Apply(k2) != m.Apply(k) {
					t.Fatalf("constructed key escaped the megaflow region")
				}
				v2, ok2, _ := ts.LookupMask(k2)
				if v2 != v || ok2 != ok {
					t.Fatalf("trial %d: key %v (region of %v, mask %+v) got (%d,%v), want (%d,%v)",
						trial, k2, k, m, v2, ok2, v, ok)
				}
			}
		}
	}
}

// TestOverlapsConservative: invalidation safety. If a pattern matches some
// key, it must be reported as overlapping that key's megaflow region under
// any mask — otherwise a rule change could leave a stale cached verdict.
func TestOverlapsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	masks := []FieldMask{
		{},
		{Tenant: true, SrcPrefix: 32, DstPrefix: 32},
		{Tenant: true, SrcPrefix: 24, DstPort: true},
		{Tenant: true, SrcPrefix: 32, DstPrefix: 32, SrcPort: true, DstPort: true, Proto: true},
		{DstPrefix: 16, Proto: true},
	}
	for trial := 0; trial < 20000; trial++ {
		p := randPattern(rng)
		k := randKey(rng)
		if !p.Match(k) {
			continue
		}
		for _, m := range masks {
			if !p.Overlaps(m, m.Apply(k)) {
				t.Fatalf("pattern %v matches %v but reports no overlap with its region under %+v", p, k, m)
			}
		}
	}
}

// TestTupleSpaceRemoveKeepsMaxPrioTight: Remove recomputes a group's
// maxPrio only when the last entry that carried it went, and must leave
// exactly what a recomputation over every bucket would: too high prunes
// less, too low prunes a winner away. The count of entries at maxPrio must
// match it too, or a removal rescans too early or too late. The groups
// stay in descending order of maxPrio.
func TestTupleSpaceRemoveKeepsMaxPrioTight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ts := NewTupleSpace[int]()
	var installed []Pattern
	for step := 0; step < 4000; step++ {
		if rng.Intn(5) < 3 || len(installed) == 0 {
			p := randPattern(rng)
			ts.Insert(p, rng.Intn(6), step)
			installed = append(installed, p)
		} else {
			i := rng.Intn(len(installed))
			ts.Remove(installed[i], nil) // every rule under the pattern
			p := installed[i]
			installed = slices.DeleteFunc(installed, func(q Pattern) bool { return q == p })
		}
		for i, g := range ts.groups {
			if want, wantAt := g.recomputeMaxPrio(); g.maxPrio != want || g.atMax != wantAt {
				t.Fatalf("step %d: group %+v holds maxPrio %d with %d at it, its entries say %d with %d",
					step, g.mask, g.maxPrio, g.atMax, want, wantAt)
			}
			if i > 0 && ts.groups[i-1].maxPrio < g.maxPrio {
				t.Fatalf("step %d: groups out of order at %d", step, i)
			}
		}
	}
}

// tupleSpaceSize returns the rules a tuple space holds and the distinct
// field masks they fall in.
func tupleSpaceSize[V any](ts *TupleSpace[V]) (entries, tuples int) {
	for _, g := range ts.groups {
		entries += g.count
	}
	return entries, len(ts.groups)
}
