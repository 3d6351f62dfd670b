package rules

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	part := func(ip packet.IP, prefix uint8, port uint16) {
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
// oracle rendering, Compare equals the order of the texts, Compare is
// reflexive and antisymmetric, and the OrderKeys abbreviate it: keys that
// differ order as Compare does, and patterns Compare calls equal have
// equal keys.
func checkOrder(t *testing.T, a, b Pattern) {
	t.Helper()
	for _, p := range []Pattern{a, b} {
		if got, want := p.String(), oracleString(p); got != want {
			t.Fatalf("String() = %q, oracle %q (%#v)", got, want, p)
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
	ka, kb := a.OrderKey(), b.OrderKey()
	if kc := slices.Compare(ka[:], kb[:]); kc != 0 && kc != ab {
		t.Fatalf("OrderKey compares %v, %v as %d, Compare says %d", a, b, kc, ab)
	}
}

// randomPattern draws every field from a small pool plus an occasional
// free value, so pairs often agree on a long prefix of fields and the
// comparison is decided deep in the rendering. Every pool holds values
// whose decimal text is a prefix of another's (1/10/100, 8/80/8080, 3/32,
// 2/25/255, 4/47): the case where the byte after the field decides. A
// prefix length beyond 32 means nothing to Match but still renders.
func randomPattern(rng *rand.Rand) Pattern {
	pick := func(pool []uint32) uint32 {
		if rng.Intn(8) == 0 {
			return rng.Uint32()
		}
		return pool[rng.Intn(len(pool))]
	}
	ips := []uint32{0, 0x0a000001, 0x0a000002, 0x0a00000a, 0x0a000064, 0x0a000100, 0x01000001, 0x64000001, 0xffffffff}
	prefixes := []uint8{0, 0, 1, 2, 3, 8, 9, 16, 24, 25, 32, 200, 255}
	ports := []uint32{0, 0, 1, 2, 8, 10, 80, 443, 808, 8080, 11211, 65535}
	protos := []uint32{0, uint32(packet.ProtoTCP), uint32(packet.ProtoUDP), 1, 2, 4, 25, 47, 255}
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

// prefixPairs are pairs decided by the byte after a field: one field's
// text is a prefix of the other's, or a field that differs is not rendered
// at all.
func prefixPairs() [][2]Pattern {
	base := Pattern{Tenant: 1, Src: 0x0a000001, SrcPrefix: 32, SrcPort: 80, Dst: 0x0a000002, DstPrefix: 24, DstPort: 8, Proto: 4}
	with := func(f func(*Pattern)) Pattern { p := base; f(&p); return p }
	return [][2]Pattern{
		{base, with(func(p *Pattern) { p.Tenant = 10 })},
		{with(func(p *Pattern) { p.Tenant = 10 }), with(func(p *Pattern) { p.Tenant = 100 })},
		{base, with(func(p *Pattern) { p.Src = 0x0a00000a })}, // "1/" against "10/"
		{base, with(func(p *Pattern) { p.Src = 0x64000001 })}, // "10." against "100."
		{base, with(func(p *Pattern) { p.SrcPrefix = 3 })},    // "/32:" before "/3:"
		{with(func(p *Pattern) { p.DstPrefix = 2 }), base},    // "/2:" after "/24:"
		{with(func(p *Pattern) { p.DstPrefix = 25 }), with(func(p *Pattern) { p.DstPrefix = 255 })},
		{base, with(func(p *Pattern) { p.SrcPort = 8080 })}, // "80 " against "8080 "
		{base, with(func(p *Pattern) { p.DstPort = 80 })},   // "8 " against "80 "
		{base, with(func(p *Pattern) { p.Proto = 47 })},     // "4" against "47"
		{with(func(p *Pattern) { p.Proto = 2 }), with(func(p *Pattern) { p.Proto = 25 })},
		{with(func(p *Pattern) { p.Proto = 25 }), with(func(p *Pattern) { p.Proto = 255 })},
		{with(func(p *Pattern) { p.Proto = 255 }), with(func(p *Pattern) { p.Proto = packet.ProtoTCP })},
		// Shorter than an order key: the zero padding meets a digit.
		{Pattern{Tenant: 1, Proto: 2}, Pattern{Tenant: 1, Proto: 25}},
		// Not rendered, so not compared.
		{with(func(p *Pattern) { p.AnyTenant = true }), with(func(p *Pattern) { p.AnyTenant, p.Tenant = true, 10 })},
		{with(func(p *Pattern) { p.SrcPrefix = 0 }), with(func(p *Pattern) { p.SrcPrefix, p.Src = 0, 0x0a00000a })},
	}
}

func TestPatternCompareIsStringOrder(t *testing.T) {
	// The case the order is named for: decimal text, not numeric value.
	if t10, t2 := TenantPattern(10), TenantPattern(2); t10.Compare(t2) >= 0 {
		t.Fatalf("t10 must sort before t2 (string order), got %d", t10.Compare(t2))
	}
	for _, pair := range prefixPairs() {
		checkOrder(t, pair[0], pair[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkOrder(t, randomPattern(rng), randomPattern(rng))
	}
}

// A field that is not rendered takes no part in the order: Compare is 0
// exactly when the renderings are equal, so sorted listings and the
// de-duplication built on them agree with the text.
func TestPatternCompareIgnoresUnrenderedFields(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a := randomPattern(rng)
		a.AnyTenant = true
		b := a
		b.Tenant = packet.TenantID(rng.Uint32())
		if rng.Intn(2) == 0 {
			a.SrcPrefix, b.SrcPrefix = 0, 0
			b.Src = packet.IP(rng.Uint32())
		}
		if c := a.Compare(b); c != 0 || a.String() != b.String() {
			t.Fatalf("Compare(%#v, %#v) = %d, renderings %q and %q", a, b, c, a, b)
		}
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
	if n := testing.AllocsPerRun(1000, func() { sink += int(a.OrderKey()[2] & 1) }); n != 0 {
		t.Fatalf("Pattern.OrderKey allocates %v times per call, want 0", n)
	}
	_ = sink
}

// TestPatternIsPlainMemory: a Pattern is 20 bytes with no padding between
// or after its fields, so a map keyed by it hashes the whole key with one
// memhash and compares it with one memequal instead of field by field.
func TestPatternIsPlainMemory(t *testing.T) {
	var sum uintptr
	typ := reflect.TypeOf(Pattern{})
	for i := 0; i < typ.NumField(); i++ {
		sum += typ.Field(i).Type.Size()
	}
	if size := unsafe.Sizeof(Pattern{}); size != 20 || size != sum {
		t.Fatalf("Pattern is %d bytes, its fields %d: want 20 and 20", size, sum)
	}
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

// TestSortPatternsMovesElements sorts elements that carry a pattern, with
// repeats: the result is a permutation of the input in canonical order.
func TestSortPatternsMovesElements(t *testing.T) {
	type elem struct {
		p Pattern
		i int
	}
	rng := rand.New(rand.NewSource(4))
	pool := make([]Pattern, 60)
	for i := range pool {
		pool[i] = randomPattern(rng)
	}
	s := make([]elem, 500)
	for i := range s {
		s[i] = elem{pool[rng.Intn(len(pool))], i}
	}
	SortPatterns(s, func(e *elem) Pattern { return e.p })
	seen := make([]bool, len(s))
	for j, e := range s {
		if seen[e.i] {
			t.Fatalf("element %d appears twice", e.i)
		}
		seen[e.i] = true
		if j == 0 {
			continue
		}
		prev := s[j-1]
		if prev.p.Compare(e.p) > 0 {
			t.Fatalf("at %d: %v (input %d) before %v (input %d)", j, prev.p, prev.i, e.p, e.i)
		}
	}
}

// patternFromBytes decodes 20 bytes into a pattern (every prefix byte, so
// zero, in-range and oversized lengths are all reachable).
func patternFromBytes(b []byte) Pattern {
	return Pattern{
		AnyTenant: b[0]&1 != 0,
		Tenant:    packet.TenantID(binary.BigEndian.Uint32(b[1:])),
		Src:       packet.IP(binary.BigEndian.Uint32(b[5:])),
		SrcPrefix: b[9],
		Dst:       packet.IP(binary.BigEndian.Uint32(b[10:])),
		DstPrefix: b[14],
		SrcPort:   binary.BigEndian.Uint16(b[15:]),
		DstPort:   binary.BigEndian.Uint16(b[17:]),
		Proto:     b[19],
	}
}

// patternToBytes inverts patternFromBytes.
func patternToBytes(p Pattern) []byte {
	b := make([]byte, 20)
	if p.AnyTenant {
		b[0] = 1
	}
	binary.BigEndian.PutUint32(b[1:], uint32(p.Tenant))
	binary.BigEndian.PutUint32(b[5:], uint32(p.Src))
	b[9] = p.SrcPrefix
	binary.BigEndian.PutUint32(b[10:], uint32(p.Dst))
	b[14] = p.DstPrefix
	binary.BigEndian.PutUint16(b[15:], p.SrcPort)
	binary.BigEndian.PutUint16(b[17:], p.DstPort)
	b[19] = p.Proto
	return b
}

// FuzzPatternCompare runs the checkOrder contract on fuzzed pairs.
func FuzzPatternCompare(f *testing.F) {
	for _, pair := range prefixPairs() {
		seed := append(patternToBytes(pair[0]), patternToBytes(pair[1])...)
		if patternFromBytes(seed[:20]) != pair[0] || patternFromBytes(seed[20:]) != pair[1] {
			f.Fatalf("seed pair %v, %v does not survive the byte encoding", pair[0], pair[1])
		}
		f.Add(seed)
	}
	f.Add(make([]byte, 40))
	f.Add([]byte("\x00\x00\x00\x00\x0a\x0a\x00\x00\x01\x20\x00\x00\x00\x00\x00\x9c\x40\x00\x00\x06" +
		"\x00\x00\x00\x00\x02\x0a\x00\x00\x01\x20\x00\x00\x00\x00\x00\x9c\x40\x00\x00\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 40 {
			return
		}
		a, b := patternFromBytes(data[:20]), patternFromBytes(data[20:40])
		checkOrder(t, a, b)
		// A fuzzed pair is almost always decided by the tenant; move one
		// field at a time so each of the later ones gets to decide.
		for _, move := range []func(*Pattern){
			func(c *Pattern) { c.Tenant = b.Tenant },
			func(c *Pattern) { c.Src = b.Src },
			func(c *Pattern) { c.SrcPrefix = b.SrcPrefix },
			func(c *Pattern) { c.SrcPort = b.SrcPort },
			func(c *Pattern) { c.Dst = b.Dst },
			func(c *Pattern) { c.DstPrefix = b.DstPrefix },
			func(c *Pattern) { c.DstPort = b.DstPort },
			func(c *Pattern) { c.Proto = b.Proto },
		} {
			c := a
			move(&c)
			checkOrder(t, a, c)
		}
	})
}
