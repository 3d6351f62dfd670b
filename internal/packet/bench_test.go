package packet

import "testing"

// BenchmarkMarshal compares the seed allocate-per-packet serialization
// against AppendMarshal into a reused buffer — the ≥80% allocation-
// reduction acceptance benchmark for the wire codec. (In "pooled" the
// buffer is the caller's.)
func BenchmarkMarshal(b *testing.B) {
	p := NewTCP(3, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 40000, 11211, 600)

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.AppendMarshal(make([]byte, 0, p.WireLen())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2048)
		for i := 0; i < b.N; i++ {
			if _, err := p.AppendMarshal(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMarshalTruncated exercises the TSO-style virtual-payload
// serialization used on every tunneled hop.
func BenchmarkMarshalTruncated(b *testing.B) {
	p := NewTCP(3, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 40000, 11211, 64000)
	b.ReportAllocs()
	buf := make([]byte, 0, 2048)
	for i := 0; i < b.N; i++ {
		if _, err := p.AppendMarshalTruncated(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
