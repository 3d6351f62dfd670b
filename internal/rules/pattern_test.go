package rules

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/packet"
)

// oracleString is the fmt-based rendering Pattern.String had before it
// was rebuilt on appendKey, kept as the reference for text and order.
func oracleString(p Pattern) string {
	var b strings.Builder
	if p.AnyTenant {
		b.WriteString("t* ")
	} else {
		fmt.Fprintf(&b, "t%d ", p.Tenant)
	}
	part := func(ip packet.IP, prefix int, port uint16) {
		if prefix == 0 {
			b.WriteString("*")
		} else {
			fmt.Fprintf(&b, "%s/%d", ip, prefix)
		}
		if port == 0 {
			b.WriteString(":*")
		} else {
			fmt.Fprintf(&b, ":%d", port)
		}
	}
	part(p.Src, p.SrcPrefix, p.SrcPort)
	b.WriteString(" > ")
	part(p.Dst, p.DstPrefix, p.DstPort)
	switch p.Proto {
	case 0:
		b.WriteString(" *")
	case packet.ProtoTCP:
		b.WriteString(" tcp")
	case packet.ProtoUDP:
		b.WriteString(" udp")
	default:
		fmt.Fprintf(&b, " %d", p.Proto)
	}
	return b.String()
}

// checkOrder is the canonical-order contract for one pair: text equals the
// oracle rendering, Compare equals the order of the texts, and Compare is
// reflexive and antisymmetric.
func checkOrder(t *testing.T, a, b Pattern) {
	t.Helper()
	for _, p := range []Pattern{a, b} {
		if got, want := p.String(), oracleString(p); got != want {
			t.Fatalf("String() = %q, oracle %q (%#v)", got, want, p)
		}
		if len(p.String()) > keyBufLen {
			t.Fatalf("rendering of %#v is %d bytes, over Compare's %d-byte buffer", p, len(p.String()), keyBufLen)
		}
		if c := p.Compare(p); c != 0 {
			t.Fatalf("Compare(p, p) = %d for %v", c, p)
		}
	}
	ab, ba := a.Compare(b), b.Compare(a)
	if want := strings.Compare(a.String(), b.String()); ab != want {
		t.Fatalf("Compare(%v, %v) = %d, strings.Compare of the renderings = %d", a, b, ab, want)
	}
	if ab != -ba {
		t.Fatalf("Compare not antisymmetric on %v, %v: %d vs %d", a, b, ab, ba)
	}
}

// randomPattern draws every field from a small pool plus an occasional
// free value, so pairs often agree on a long prefix of fields and the
// comparison is decided deep in the rendering.
func randomPattern(rng *rand.Rand) Pattern {
	pick := func(pool []uint32) uint32 {
		if rng.Intn(8) == 0 {
			return rng.Uint32()
		}
		return pool[rng.Intn(len(pool))]
	}
	ips := []uint32{0, 0x0a000001, 0x0a000002, 0x0a00000a, 0x0a000100, 0xffffffff}
	prefixes := []int{0, 0, 8, 16, 24, 32, 9, -1, math.MinInt64, math.MaxInt64}
	ports := []uint32{0, 0, 1, 2, 10, 80, 443, 11211, 65535}
	protos := []uint32{0, uint32(packet.ProtoTCP), uint32(packet.ProtoUDP), 1, 47, 255}
	return Pattern{
		Tenant:    packet.TenantID(pick([]uint32{0, 1, 2, 9, 10, 19, 20, 100, math.MaxUint32})),
		AnyTenant: rng.Intn(6) == 0,
		Src:       packet.IP(pick(ips)),
		SrcPrefix: prefixes[rng.Intn(len(prefixes))],
		Dst:       packet.IP(pick(ips)),
		DstPrefix: prefixes[rng.Intn(len(prefixes))],
		SrcPort:   uint16(pick(ports)),
		DstPort:   uint16(pick(ports)),
		Proto:     byte(pick(protos)),
	}
}

func TestPatternCompareIsStringOrder(t *testing.T) {
	// The case the order is named for: decimal text, not numeric value.
	if t10, t2 := TenantPattern(10), TenantPattern(2); t10.Compare(t2) >= 0 {
		t.Fatalf("t10 must sort before t2 (string order), got %d", t10.Compare(t2))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkOrder(t, randomPattern(rng), randomPattern(rng))
	}
}

func TestPatternCompareAllocatesNothing(t *testing.T) {
	a := Pattern{Tenant: 12, Src: 0x0a000001, SrcPrefix: 32, SrcPort: 40000, Proto: packet.ProtoTCP}
	b := a
	b.SrcPort = 40001
	var sink int
	if n := testing.AllocsPerRun(1000, func() { sink += a.Compare(b) }); n != 0 {
		t.Fatalf("Pattern.Compare allocates %v times per call, want 0", n)
	}
	_ = sink
}

func TestSortedPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := make(map[Pattern]int)
	for i := 0; i < 200; i++ {
		m[randomPattern(rng)] = i
	}
	got := SortedPatterns(m)
	if len(got) != len(m) {
		t.Fatalf("SortedPatterns returned %d of %d keys", len(got), len(m))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].String() >= got[i].String() {
			t.Fatalf("out of order at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

// patternFromBytes decodes 20 bytes into a pattern (prefixes as int8, so
// zero, in-range, oversized and negative lengths are all reachable).
func patternFromBytes(b []byte) Pattern {
	return Pattern{
		AnyTenant: b[0]&1 != 0,
		Tenant:    packet.TenantID(binary.BigEndian.Uint32(b[1:])),
		Src:       packet.IP(binary.BigEndian.Uint32(b[5:])),
		SrcPrefix: int(int8(b[9])),
		Dst:       packet.IP(binary.BigEndian.Uint32(b[10:])),
		DstPrefix: int(int8(b[14])),
		SrcPort:   binary.BigEndian.Uint16(b[15:]),
		DstPort:   binary.BigEndian.Uint16(b[17:]),
		Proto:     b[19],
	}
}

// FuzzPatternCompare runs the checkOrder contract on fuzzed pairs.
func FuzzPatternCompare(f *testing.F) {
	f.Add(make([]byte, 40))
	f.Add([]byte("\x00\x00\x00\x00\x0a\x0a\x00\x00\x01\x20\x00\x00\x00\x00\x00\x9c\x40\x00\x00\x06" +
		"\x00\x00\x00\x00\x02\x0a\x00\x00\x01\x20\x00\x00\x00\x00\x00\x9c\x40\x00\x00\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 40 {
			return
		}
		checkOrder(t, patternFromBytes(data[:20]), patternFromBytes(data[20:40]))
	})
}
