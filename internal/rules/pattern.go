// Package rules implements the network-virtualization rule model FasTrak
// manages as a unified set (§4): tenant security ACLs, QoS rules, tunnel
// mappings and rate limits, plus the three table structures that hold them
// on the data path — an ordered priority table (vswitch slow path), an O(1)
// exact-match hash table (vswitch/flow-placer fast path), and a
// capacity-limited TCAM model (ToR hardware VRF).
package rules

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strconv"

	"repro/internal/packet"
)

// Pattern is a wildcardable match over the 6-tuple flow key. IPs match by
// prefix; ports and protocol match exactly or any; tenant may be wildcarded
// only for provider-level rules. The fields run widest first, so a Pattern
// is 20 bytes without padding, which a map keyed by it hashes and compares
// as one block of memory. A prefix length is one byte, as on the wire;
// input from outside the program is held to 0–32 where it enters.
type Pattern struct {
	Tenant    packet.TenantID
	Src       packet.IP
	Dst       packet.IP
	SrcPort   uint16 // 0 = any
	DstPort   uint16 // 0 = any
	SrcPrefix uint8  // 0 = any
	DstPrefix uint8  // 0 = any
	Proto     byte   // 0 = any
	AnyTenant bool
}

// ExactPattern returns the fully specified pattern matching exactly one
// flow — the "rule that most specifically defines the policy for the flow
// being offloaded" (§4.3) is built from this.
func ExactPattern(k packet.FlowKey) Pattern {
	return Pattern{
		Tenant: k.Tenant,
		Src:    k.Src, SrcPrefix: 32,
		Dst: k.Dst, DstPrefix: 32,
		SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto,
	}
}

// AggregatePattern returns the pattern covering a per-VM/application flow
// aggregate (§4.3.1): one endpoint pinned to <VM IP, port, tenant>, the
// other wildcarded.
func AggregatePattern(a packet.AggregateKey) Pattern {
	p := Pattern{Tenant: a.Tenant}
	switch a.Dir {
	case packet.Egress:
		p.Src, p.SrcPrefix, p.SrcPort = a.VMIP, 32, a.Port
	default:
		p.Dst, p.DstPrefix, p.DstPort = a.VMIP, 32, a.Port
	}
	return p
}

// TenantPattern matches all traffic of one tenant.
func TenantPattern(t packet.TenantID) Pattern { return Pattern{Tenant: t} }

// Match reports whether the key falls within the pattern.
func (p Pattern) Match(k packet.FlowKey) bool {
	if !p.AnyTenant && p.Tenant != k.Tenant {
		return false
	}
	if p.SrcPrefix > 0 && k.Src.Mask(int(p.SrcPrefix)) != p.Src.Mask(int(p.SrcPrefix)) {
		return false
	}
	if p.DstPrefix > 0 && k.Dst.Mask(int(p.DstPrefix)) != p.Dst.Mask(int(p.DstPrefix)) {
		return false
	}
	if p.SrcPort != 0 && p.SrcPort != k.SrcPort {
		return false
	}
	if p.DstPort != 0 && p.DstPort != k.DstPort {
		return false
	}
	if p.Proto != 0 && p.Proto != k.Proto {
		return false
	}
	return true
}

// Specificity scores how narrowly the pattern matches; higher is more
// specific. Used to order equal-priority rules and to pick the most
// specific covering rule when constructing hardware rules for offload.
func (p Pattern) Specificity() int {
	s := int(p.SrcPrefix) + int(p.DstPrefix)
	if p.SrcPort != 0 {
		s += 16
	}
	if p.DstPort != 0 {
		s += 16
	}
	if p.Proto != 0 {
		s += 8
	}
	if !p.AnyTenant {
		s += 32
	}
	return s
}

// String renders the pattern compactly, e.g.
// "t3 10.0.0.1/32:* > */0:11211 tcp".
func (p Pattern) String() string { return string(p.appendKey(nil)) }

// Compare is the canonical pattern order every deterministic listing,
// ranking tie-break and wire ordering uses: p and q order as their String()
// renderings do (so "t10" sorts before "t2"), returning -1, 0 or +1. It
// compares field by field on packet.CompareDecimal and renders nothing;
// each field's terminator is the byte appendKey writes after it, '*' sorts
// below every digit, and a field appendKey does not render (Tenant under
// AnyTenant, an address under prefix 0) takes no part.
func (p Pattern) Compare(q Pattern) int {
	if p.AnyTenant != q.AnyTenant {
		return lowFirst(p.AnyTenant)
	}
	if !p.AnyTenant {
		if c := packet.CompareDecimal(uint64(p.Tenant), uint64(q.Tenant), false); c != 0 {
			return c
		}
	}
	if c := compareEndpoint(p.Src, p.SrcPrefix, p.SrcPort, q.Src, q.SrcPrefix, q.SrcPort); c != 0 {
		return c
	}
	if c := compareEndpoint(p.Dst, p.DstPrefix, p.DstPort, q.Dst, q.DstPrefix, q.DstPort); c != 0 {
		return c
	}
	// "*" < decimal < "tcp" < "udp"; the decimal ends the string.
	pc, qc := protoClass(p.Proto), protoClass(q.Proto)
	if pc == protoDecimal && qc == protoDecimal {
		return packet.CompareDecimal(uint64(p.Proto), uint64(q.Proto), false)
	}
	return cmp.Compare(pc, qc)
}

// lowFirst orders a field that exactly one side renders as "*", which sorts
// below the digits, against the other side's number: that side sorts first.
func lowFirst(pIsLow bool) int {
	if pIsLow {
		return -1
	}
	return 1
}

// compareEndpoint orders two "ip/prefix:port" renderings (appendEndpoint).
func compareEndpoint(ip packet.IP, prefix uint8, port uint16, qip packet.IP, qprefix uint8, qport uint16) int {
	if (prefix == 0) != (qprefix == 0) {
		return lowFirst(prefix == 0)
	}
	if prefix != 0 {
		if c := ip.CompareDotted(qip, false); c != 0 { // '/' follows
			return c
		}
		// The ':' that follows sorts above the digits: "/32:" before "/3:".
		if c := packet.CompareDecimal(uint64(prefix), uint64(qprefix), true); c != 0 {
			return c
		}
	}
	if (port == 0) != (qport == 0) {
		return lowFirst(port == 0)
	}
	return packet.CompareDecimal(uint64(port), uint64(qport), false) // ' ' follows
}

// Proto renderings in ascending text order.
const (
	protoStar = iota
	protoDecimal
	protoTCP
	protoUDP
)

func protoClass(proto byte) int {
	switch proto {
	case 0:
		return protoStar
	case packet.ProtoTCP:
		return protoTCP
	case packet.ProtoUDP:
		return protoUDP
	}
	return protoDecimal
}

// OrderKey abbreviates the canonical order: the first 24 bytes of the
// pattern's rendering, as three big-endian words, zero-padded past a
// shorter one. No rendering holds a zero byte, so keys that differ order
// as the renderings, and so as Compare, do; equal keys decide nothing, and
// Compare, which stays the definition of the order, breaks the tie.
type OrderKey [3]uint64

// OrderKey returns the pattern's order key.
func (p Pattern) OrderKey() OrderKey {
	var buf [72]byte // the longest rendering is 69 bytes
	var head [24]byte
	copy(head[:], p.appendKey(buf[:0]))
	return OrderKey{
		binary.BigEndian.Uint64(head[0:]),
		binary.BigEndian.Uint64(head[8:]),
		binary.BigEndian.Uint64(head[16:]),
	}
}

// keyedIndex is where an element of SortPatterns' input is, and its key.
type keyedIndex struct {
	key OrderKey
	idx int
}

// SortPatterns sorts s into the canonical order of its elements' patterns,
// as pattern reads them. Each element's OrderKey is built once, Compare
// runs only between equal keys, and the elements move once, at the end.
func SortPatterns[E any](s []E, pattern func(*E) Pattern) {
	ks := make([]keyedIndex, len(s))
	for i := range s {
		ks[i] = keyedIndex{pattern(&s[i]).OrderKey(), i}
	}
	slices.SortFunc(ks, func(a, b keyedIndex) int {
		if x, y := &a.key, &b.key; *x != *y {
			if x[0] < y[0] || x[0] == y[0] && (x[1] < y[1] || x[1] == y[1] && x[2] < y[2]) {
				return -1
			}
			return 1
		}
		return pattern(&s[a.idx]).Compare(pattern(&s[b.idx]))
	})
	// Swap s[ks[i].idx] into s[i] along each cycle of the permutation.
	for i := range ks {
		j := i
		for ks[j].idx != i {
			k := ks[j].idx
			s[j], s[k] = s[k], s[j]
			ks[j].idx, j = j, k
		}
		ks[j].idx = j
	}
}

// SortedPatterns returns m's keys in canonical order.
func SortedPatterns[V any](m map[Pattern]V) []Pattern {
	out := make([]Pattern, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	SortPatterns(out, func(p *Pattern) Pattern { return *p })
	return out
}

// appendKey appends the pattern's rendering to b. Compare must order
// patterns as this text orders; the property tests and FuzzPatternCompare
// hold it to that.
func (p Pattern) appendKey(b []byte) []byte {
	if p.AnyTenant {
		b = append(b, "t* "...)
	} else {
		b = append(b, 't')
		b = strconv.AppendUint(b, uint64(p.Tenant), 10)
		b = append(b, ' ')
	}
	b = appendEndpoint(b, p.Src, p.SrcPrefix, p.SrcPort)
	b = append(b, " > "...)
	b = appendEndpoint(b, p.Dst, p.DstPrefix, p.DstPort)
	switch p.Proto {
	case 0:
		return append(b, " *"...)
	case packet.ProtoTCP:
		return append(b, " tcp"...)
	case packet.ProtoUDP:
		return append(b, " udp"...)
	}
	b = append(b, ' ')
	return strconv.AppendUint(b, uint64(p.Proto), 10)
}

// appendEndpoint renders one side of a pattern: "ip/prefix:port" with "*"
// for an any-address and ":*" for an any-port.
func appendEndpoint(b []byte, ip packet.IP, prefix uint8, port uint16) []byte {
	if prefix == 0 {
		b = append(b, '*')
	} else {
		for shift := 24; shift >= 0; shift -= 8 {
			b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
			if shift > 0 {
				b = append(b, '.')
			}
		}
		b = append(b, '/')
		b = strconv.AppendUint(b, uint64(prefix), 10)
	}
	if port == 0 {
		return append(b, ":*"...)
	}
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(port), 10)
}
