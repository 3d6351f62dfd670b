package packet

import (
	"fmt"
	"strconv"
)

// FlowKey is the paper's 6-tuple flow identifier (§4.3.1): "A flow is
// specified by a 6 tuple: Source and destination IPs, L4 ports, L4 protocol
// and a Tenant ID." It is a comparable value type, usable directly as a map
// key in exact-match tables.
type FlowKey struct {
	Src, Dst         IP
	SrcPort, DstPort uint16
	Proto            byte
	Tenant           TenantID
}

// FastHash returns a 64-bit FNV-1a hash of the key. It is not symmetric:
// the two directions of a conversation hash differently, matching the flow
// placer's per-direction exact-match entries.
func (k FlowKey) FastHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 4; i++ {
		mix(byte(k.Src >> (8 * i)))
	}
	for i := 0; i < 4; i++ {
		mix(byte(k.Dst >> (8 * i)))
	}
	mix(byte(k.SrcPort))
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.DstPort))
	mix(byte(k.DstPort >> 8))
	mix(k.Proto)
	for i := 0; i < 4; i++ {
		mix(byte(k.Tenant >> (8 * i)))
	}
	return h
}

// String renders the key for logs and experiment output, e.g.
// "t3 10.0.0.1:40000>10.0.9.9:80/6".
func (k FlowKey) String() string {
	var b [flowKeyBufLen]byte
	return string(k.appendKey(b[:0]))
}

// flowKeyBufLen exceeds the longest rendering (59 bytes), so a rendering
// into a stack buffer of this size never spills to the heap.
const flowKeyBufLen = 64

// Compare orders keys as their String() renderings do — the order every
// sorted flow listing has always had, so "t10" sorts before "t2" — and
// returns -1, 0 or +1. It compares field by field on CompareDecimal and
// renders nothing; each field's terminator is the byte appendKey writes
// after it (' ', '.' and '/' sort below the digits, ':' and '>' above).
func (k FlowKey) Compare(o FlowKey) int {
	if c := CompareDecimal(uint64(k.Tenant), uint64(o.Tenant), false); c != 0 {
		return c
	}
	if c := k.Src.CompareDotted(o.Src, true); c != 0 {
		return c
	}
	if c := CompareDecimal(uint64(k.SrcPort), uint64(o.SrcPort), true); c != 0 {
		return c
	}
	if c := k.Dst.CompareDotted(o.Dst, true); c != 0 {
		return c
	}
	if c := CompareDecimal(uint64(k.DstPort), uint64(o.DstPort), false); c != 0 {
		return c
	}
	return CompareDecimal(uint64(k.Proto), uint64(o.Proto), false)
}

// appendKey appends the key's rendering to b. Compare must order keys as
// this text orders; the property tests and FuzzFlowKeyCompare hold it to
// that.
func (k FlowKey) appendKey(b []byte) []byte {
	b = append(b, 't')
	b = strconv.AppendUint(b, uint64(k.Tenant), 10)
	b = append(b, ' ')
	b = k.Src.appendTo(b)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.SrcPort), 10)
	b = append(b, '>')
	b = k.Dst.appendTo(b)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.DstPort), 10)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(k.Proto), 10)
}

// AggregateKey is the measurement engine's per-VM-per-application flow
// aggregate (§4.3.1): "instead of collecting statistics for every unique 6
// tuple, we collect statistics on unique <Source VM IP, Source L4 port,
// Tenant ID> and <Destination VM IP, Destination L4 port, Tenant ID>
// flows." Dir distinguishes the two aggregate families.
type AggregateKey struct {
	VMIP   IP
	Port   uint16
	Tenant TenantID
	Dir    Direction
}

// Direction labels which endpoint of the flow the aggregate pivots on.
type Direction byte

// Aggregate directions.
const (
	// Egress aggregates flows by <source VM IP, source L4 port, tenant>.
	Egress Direction = iota
	// Ingress aggregates flows by <destination VM IP, destination L4 port, tenant>.
	Ingress
)

func (d Direction) String() string {
	if d == Egress {
		return "egress"
	}
	return "ingress"
}

// EgressAggregate returns the <source VM IP, source port, tenant> aggregate
// for the flow.
func (k FlowKey) EgressAggregate() AggregateKey {
	return AggregateKey{VMIP: k.Src, Port: k.SrcPort, Tenant: k.Tenant, Dir: Egress}
}

// IngressAggregate returns the <destination VM IP, destination port,
// tenant> aggregate for the flow.
func (k FlowKey) IngressAggregate() AggregateKey {
	return AggregateKey{VMIP: k.Dst, Port: k.DstPort, Tenant: k.Tenant, Dir: Ingress}
}

func (a AggregateKey) String() string {
	return fmt.Sprintf("t%d %s %s:%d", a.Tenant, a.Dir, a.VMIP, a.Port)
}
