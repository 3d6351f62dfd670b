// Package tunnel implements the two encapsulations of the FasTrak data
// plane (§4.1.3, §4.2):
//
//   - VXLAN, used by the software path: the vswitch wraps VM frames in
//     UDP toward the destination *server*, with the tenant in the VNI.
//   - GRE, used by the hardware path: the ToR wraps offloaded VM packets
//     toward the destination *ToR*, reusing the 32-bit GRE key to carry
//     the tenant ID ("The GRE key field is 32 bits in size and can
//     accommodate 2^32 tenants").
//
// Encapsulation is performed on real wire bytes: the inner packet is
// marshaled into the outer payload and parsed back on decap, so every
// tunneled hop exercises the codecs end to end.
//
// The encap path is allocation-free in steady state: outer packets come
// from sync.Pools that retain their payload buffer capacity (and, for
// VXLAN, the UDP header box) across uses, and the inner frame is
// marshaled directly into the pooled payload — the seed's
// marshal-then-copy double allocation is gone. Decap sites hand the spent
// outer back with Release; see DESIGN.md §"Fast-path architecture" for
// the ownership contract. A sender that needs only the wire bytes skips
// the outer packet altogether (AppendVXLANFrame).
package tunnel

import (
	"fmt"
	"sync"

	"repro/internal/packet"
)

// greOuterPool and vxlanOuterPool recycle outer packets (struct + payload
// buffer capacity + UDP header box). They are separate so a GRE outer
// never strands a VXLAN outer's UDP box and buffer capacities stay
// encap-typical.
var (
	greOuterPool   = sync.Pool{New: func() any { return new(packet.Packet) }}
	vxlanOuterPool = sync.Pool{New: func() any { return new(packet.Packet) }}
)

// Release returns a spent outer packet to its encap pool. Call it exactly
// once, after a successful decap, at the point the outer frame is dead:
// the inner packet produced by decap shares no memory with it (decap
// copies the payload it keeps). After Release the caller must not touch
// the outer packet or its payload again. Packets that never came from an
// encap pool are adopted by it.
func Release(outer *packet.Packet) {
	if outer == nil {
		return
	}
	buf := outer.Payload
	udp := outer.UDP
	if udp != nil {
		*udp = packet.UDPHeader{}
		*outer = packet.Packet{UDP: udp, Payload: buf[:0]}
		vxlanOuterPool.Put(outer)
		return
	}
	*outer = packet.Packet{Payload: buf[:0]}
	greOuterPool.Put(outer)
}

// GREEncap wraps inner in an outer IPv4+GRE packet from src to dst (ToR
// loopback addresses), with the tenant ID in the GRE key. The inner frame
// is carried from its IPv4 header (GRE protocol type 0x0800), marshaled
// in one pass directly into the pooled outer payload.
func GREEncap(src, dst packet.IP, tenant packet.TenantID, inner *packet.Packet) (*packet.Packet, error) {
	outer := greOuterPool.Get().(*packet.Packet)
	g := packet.GRE{HasKey: true, Key: uint32(tenant), Proto: packet.EtherTypeIPv4}
	payload := outer.Payload[:0]
	if cap(payload) < g.Len() {
		payload = make([]byte, 0, 2048)
	}
	payload = payload[:g.Len()]
	g.Marshal(payload)
	payload, err := inner.AppendMarshalIPv4Truncated(payload)
	if err != nil {
		outer.Payload = payload[:0]
		greOuterPool.Put(outer)
		return nil, fmt.Errorf("tunnel: gre encap: %w", err)
	}
	*outer = packet.Packet{
		IP:      packet.IPv4{TTL: 64, Proto: packet.ProtoGRE, Src: src, Dst: dst},
		Payload: payload,
		// Virtual payload of the inner packet is preserved as virtual
		// bytes of the outer packet: lengths stay exact without
		// allocating the data.
		VirtualPayload: inner.VirtualPayload,
		Tenant:         tenant,
		Meta:           inner.Meta,
	}
	return outer, nil
}

// GREDecap unwraps a GRE packet, returning the inner packet and the tenant
// ID from the key. The ToR uses the key to select the VRF table before
// ACL checking (§4.2.2). The caller owns the outer afterwards and should
// Release it once the inner has been extracted.
func GREDecap(outer *packet.Packet) (*packet.Packet, packet.TenantID, error) {
	if outer.IP.Proto != packet.ProtoGRE {
		return nil, 0, fmt.Errorf("tunnel: gre decap: ip proto %d", outer.IP.Proto)
	}
	g, n, err := packet.UnmarshalGRE(outer.Payload)
	if err != nil {
		return nil, 0, err
	}
	if !g.HasKey {
		return nil, 0, fmt.Errorf("tunnel: gre packet without tenant key")
	}
	if g.Proto != packet.EtherTypeIPv4 {
		return nil, 0, fmt.Errorf("tunnel: gre inner proto %#04x unsupported", g.Proto)
	}
	inner, err := packet.UnmarshalIPv4(outer.Payload[n:])
	if err != nil {
		return nil, 0, fmt.Errorf("tunnel: gre inner parse: %w", err)
	}
	// Virtual bytes elided from the outer payload belong to the inner
	// payload; UnmarshalIPv4 already reconstructed the count from the
	// inner total-length field, but when the outer carried them
	// explicitly the inner parse found real bytes instead. Either way
	// PayloadLen is exact. Restore simulation metadata not on the wire.
	tenant := packet.TenantID(g.Key)
	inner.Tenant = tenant
	inner.Meta = outer.Meta
	return inner, tenant, nil
}

// VXLANEncap wraps an inner VM frame in IPv4+UDP+VXLAN from src to dst
// (server addresses), with the tenant ID as the VNI. The inner frame is
// carried from its Ethernet header, per the VXLAN spec. The UDP source
// port is derived from the inner flow hash for fabric ECMP entropy, as
// real implementations do.
func VXLANEncap(src, dst packet.IP, tenant packet.TenantID, inner *packet.Packet) (*packet.Packet, error) {
	return VXLANEncapHashed(src, dst, tenant, inner, inner.Key().FastHash())
}

// VXLANEncapHashed is VXLANEncap with the inner flow hash supplied by the
// caller — the vswitch computes the flow key once per packet for
// classification and reuses its hash here instead of re-deriving both.
// The outer packet is for callers that hand it on as a Packet (the sim's
// fabric model); one that only wants the wire bytes uses AppendVXLANFrame.
func VXLANEncapHashed(src, dst packet.IP, tenant packet.TenantID, inner *packet.Packet, flowHash uint64) (*packet.Packet, error) {
	outer := vxlanOuterPool.Get().(*packet.Packet)
	payload := outer.Payload[:0]
	if cap(payload) < packet.VXLANHeaderLen {
		payload = make([]byte, 0, 2048)
	}
	payload = payload[:packet.VXLANHeaderLen]
	vxlanHeader(tenant).Marshal(payload)
	payload, err := inner.AppendMarshalTruncated(payload)
	if err != nil {
		outer.Payload = payload[:0]
		vxlanOuterPool.Put(outer)
		return nil, fmt.Errorf("tunnel: vxlan encap: %w", err)
	}
	udp := outer.UDP
	if udp == nil {
		udp = &packet.UDPHeader{}
	}
	*udp = vxlanOuterUDP(flowHash)
	// Every other field is already zero: Release and the pool's New leave
	// nothing else set, so the struct need not be rewritten whole.
	outer.IP = vxlanOuterIP(src, dst)
	outer.UDP = udp
	outer.Payload = payload
	outer.VirtualPayload = inner.VirtualPayload
	outer.Tenant = tenant
	outer.Meta = inner.Meta
	return outer, nil
}

// The three outer headers of a VXLAN frame, shared by the Packet-building
// and the byte-writing encap.

func vxlanHeader(tenant packet.TenantID) packet.VXLAN {
	return packet.VXLAN{VNI: uint32(tenant) & 0xffffff}
}

func vxlanOuterUDP(flowHash uint64) packet.UDPHeader {
	return packet.UDPHeader{SrcPort: uint16(flowHash&0x3fff) + 49152, DstPort: packet.VXLANPort}
}

func vxlanOuterIP(src, dst packet.IP) packet.IPv4 {
	return packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst}
}

// AppendVXLANFrame appends to buf the wire bytes of inner encapsulated
// with the given flow hash — outer Ethernet, IPv4, UDP and VXLAN headers,
// then the truncated inner frame — and returns the extended slice. Bytes
// and errors are those of the Packet-building encap above followed by
// AppendMarshalTruncated on its outer, but nothing is built in between:
// the inner frame is marshaled once, straight into place, the outer UDP
// checksum takes one pass over it, and no outer Packet exists to pool.
// With a reused buf the call allocates nothing.
func AppendVXLANFrame(buf []byte, src, dst packet.IP, tenant packet.TenantID, inner *packet.Packet, flowHash uint64) ([]byte, error) {
	const bodyAt = packet.UDPFrameHeaderLen
	start := len(buf)
	buf = append(buf, make([]byte, bodyAt+packet.VXLANHeaderLen)...)
	vxlanHeader(tenant).Marshal(buf[start+bodyAt:])
	buf, err := inner.AppendMarshalTruncated(buf)
	if err != nil {
		return nil, fmt.Errorf("tunnel: vxlan encap: %w", err)
	}
	frame := buf[start:]
	if err := packet.PutUDPFrameHeaders(frame, vxlanOuterIP(src, dst), vxlanOuterUDP(flowHash), frame[bodyAt:], inner.VirtualPayload); err != nil {
		return nil, err
	}
	return buf, nil
}

// VXLANDecap unwraps a VXLAN packet, returning the inner frame and the
// tenant from the VNI. The caller owns the outer afterwards and should
// Release it once the inner has been extracted.
func VXLANDecap(outer *packet.Packet) (*packet.Packet, packet.TenantID, error) {
	if outer.UDP == nil || outer.UDP.DstPort != packet.VXLANPort {
		return nil, 0, fmt.Errorf("tunnel: vxlan decap: not a VXLAN packet")
	}
	v, err := packet.UnmarshalVXLAN(outer.Payload)
	if err != nil {
		return nil, 0, err
	}
	inner, err := packet.Unmarshal(outer.Payload[packet.VXLANHeaderLen:])
	if err != nil {
		return nil, 0, fmt.Errorf("tunnel: vxlan inner parse: %w", err)
	}
	tenant := packet.TenantID(v.VNI)
	inner.Tenant = tenant
	inner.Meta = outer.Meta
	return inner, tenant, nil
}
