package packet

import "testing"

// TestMarshalAllocsStayZero is the regular-test form of BenchmarkMarshal's
// pooled 0 allocs/op: serializing a warm packet into a reused buffer, as
// the sharded plane does into its shard's wire buffer, must not allocate.
// CI runs each benchmark once for breakage, not for numbers; this gate
// holds the count.
func TestMarshalAllocsStayZero(t *testing.T) {
	p := NewTCP(3, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 40000, 11211, 600)
	tso := NewTCP(3, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 40000, 11211, 64000)

	buf := make([]byte, 0, 2048)

	t.Run("append-marshal", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := p.AppendMarshal(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("marshal into a reused buffer allocates %v/op, want 0", n)
		}
	})
	t.Run("append-marshal-truncated", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := tso.AppendMarshalTruncated(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("truncated marshal into a reused buffer allocates %v/op, want 0", n)
		}
	})
}
