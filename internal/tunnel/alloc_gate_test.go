package tunnel

import (
	"testing"

	"repro/internal/packet"
)

// TestEncapAllocsStayZero is the regular-test form of the 0 allocs/op
// that BenchmarkVXLANEncap and BenchmarkGREEncapDecap report: a warm encap/release cycle for both tunnel types must not
// allocate. CI runs each benchmark once for breakage, not for numbers;
// this gate holds the count.
func TestEncapAllocsStayZero(t *testing.T) {
	inner := packet.NewTCP(7, packet.MustParseIP("10.0.0.1"), packet.MustParseIP("10.0.0.2"), 40000, 11211, 600)
	hash := inner.Key().FastHash()

	// Warm the pools so steady state — not first-use growth — is measured.
	for i := 0; i < 8; i++ {
		if o, err := GREEncap(benchSrc, benchDst, 7, inner); err == nil {
			Release(o)
		}
		if o, err := VXLANEncapHashed(benchSrc, benchDst, 7, inner, hash); err == nil {
			Release(o)
		}
	}

	t.Run("gre", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			outer, err := GREEncap(benchSrc, benchDst, 7, inner)
			if err != nil {
				t.Fatal(err)
			}
			Release(outer)
		}); n != 0 {
			t.Fatalf("warm GRE encap allocates %v/op, want 0", n)
		}
	})
	t.Run("vxlan", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			outer, err := VXLANEncapHashed(benchSrc, benchDst, 7, inner, hash)
			if err != nil {
				t.Fatal(err)
			}
			Release(outer)
		}); n != 0 {
			t.Fatalf("warm VXLAN encap allocates %v/op, want 0", n)
		}
	})
	t.Run("vxlan-frame", func(t *testing.T) {
		wire := make([]byte, 0, 2048)
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := AppendVXLANFrame(wire, benchSrc, benchDst, 7, inner, hash); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("VXLAN frame write into a reused buffer allocates %v/op, want 0", n)
		}
	})
}
