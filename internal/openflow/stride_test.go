package openflow

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// The field-by-field codec the fixed-stride put/get pairs replaced, kept
// here as their oracle: one bounds check, one fail branch and one append
// per field.

func fieldwiseMarshalPattern(b *buffer, p rules.Pattern) {
	b.u32(uint32(p.Tenant))
	if p.AnyTenant {
		b.u8(1)
	} else {
		b.u8(0)
	}
	b.u32(uint32(p.Src))
	b.u8(uint8(p.SrcPrefix))
	b.u32(uint32(p.Dst))
	b.u8(uint8(p.DstPrefix))
	b.u16(p.SrcPort)
	b.u16(p.DstPort)
	b.u8(p.Proto)
}

func fieldwiseUnmarshalPattern(r *reader) rules.Pattern {
	var p rules.Pattern
	p.Tenant = packet.TenantID(r.u32())
	p.AnyTenant = r.u8() == 1
	p.Src = packet.IP(r.u32())
	p.SrcPrefix = r.u8()
	p.Dst = packet.IP(r.u32())
	p.DstPrefix = r.u8()
	p.SrcPort = r.u16()
	p.DstPort = r.u16()
	p.Proto = r.u8()
	return p
}

func fieldwiseMarshalPatterns(b *buffer, ps []rules.Pattern) {
	b.u32(uint32(len(ps)))
	for _, p := range ps {
		fieldwiseMarshalPattern(b, p)
	}
}

func fieldwiseUnmarshalPatterns(r *reader) []rules.Pattern {
	n := r.u32()
	if uint64(n)*patternLen > uint64(r.remaining()) {
		r.fail()
		return nil
	}
	var ps []rules.Pattern
	for i := uint32(0); i < n; i++ {
		ps = append(ps, fieldwiseUnmarshalPattern(r))
	}
	return ps
}

// fieldwiseBody marshals the three bodies that are made of patterns and
// entries; everything around them goes through the production helpers,
// which the stride did not touch.
func fieldwiseBody(msg Message) []byte {
	b := &buffer{}
	switch m := msg.(type) {
	case *DemandReport:
		b.u32(m.ServerID)
		b.u32(m.Interval)
		b.u32(uint32(len(m.Entries)))
		for _, e := range m.Entries {
			fieldwiseMarshalPattern(b, e.Pattern)
			b.f64(e.PPS)
			b.f64(e.BPS)
			b.u32(e.Epoch)
			b.f64(e.MedianPPS)
			b.f64(e.MedianBPS)
			b.u32(e.ActiveEpochs)
		}
		marshalSplits(b, m.Splits)
		b.u32(m.NICFree)
		fieldwiseMarshalPatterns(b, m.NICPatterns)
		if m.Sketch == nil {
			b.u8(0)
			break
		}
		b.u8(1)
		b.u32(m.Sketch.TopK)
		b.u32(m.Sketch.Width)
		b.u32(m.Sketch.Depth)
		b.u64(m.Sketch.Floor)
		b.u64(m.Sketch.Evictions)
	case *RuleSync:
		b.u32(m.Seq)
		fieldwiseMarshalPatterns(b, m.Patterns)
		b.u32(m.Term)
		b.u32(m.Origin)
		switch {
		case m.Delta:
			b.u8(syncTailDelta)
			b.u32(m.Base)
			fieldwiseMarshalPatterns(b, m.Removes)
		case m.Parts > 0:
			b.u8(syncTailPart)
			b.u16(m.Part)
			b.u16(m.Parts)
		}
	case *TableReply:
		b.u32(uint32(len(m.Rules)))
		for _, e := range m.Rules {
			fieldwiseMarshalPattern(b, e.Pattern)
			b.u16(e.Priority)
			b.u8(e.Queue)
		}
	}
	return b.b
}

// fieldwiseDecode is the oracle's reading of a body of the given type; ok
// is false when the body is truncated or malformed.
func fieldwiseDecode(t MsgType, body []byte) (Message, bool) {
	r := &reader{b: body}
	var msg Message
	switch t {
	case TypeDemandReport:
		m := &DemandReport{ServerID: r.u32(), Interval: r.u32()}
		msg = m
		n := r.u32()
		if uint64(n)*58 > uint64(r.remaining()) { // the bound as it was: two bytes an entry short
			return nil, false
		}
		for i := uint32(0); i < n; i++ {
			m.Entries = append(m.Entries, DemandEntry{
				Pattern: fieldwiseUnmarshalPattern(r),
				PPS:     r.f64(), BPS: r.f64(), Epoch: r.u32(),
				MedianPPS: r.f64(), MedianBPS: r.f64(), ActiveEpochs: r.u32(),
			})
		}
		var err error
		if m.Splits, err = unmarshalSplits(r); err != nil {
			return nil, false
		}
		m.NICFree = r.u32()
		m.NICPatterns = fieldwiseUnmarshalPatterns(r)
		if r.u8() != 0 {
			m.Sketch = &SketchMeta{TopK: r.u32(), Width: r.u32(), Depth: r.u32(), Floor: r.u64(), Evictions: r.u64()}
		}
	case TypeRuleSync:
		m := &RuleSync{Seq: r.u32()}
		msg = m
		m.Patterns = fieldwiseUnmarshalPatterns(r)
		m.Term, m.Origin = r.u32(), r.u32()
		if r.err != nil || r.remaining() == 0 {
			break
		}
		switch r.u8() {
		case syncTailDelta:
			m.Delta, m.Base = true, r.u32()
			m.Removes = fieldwiseUnmarshalPatterns(r)
		case syncTailPart:
			if m.Part, m.Parts = r.u16(), r.u16(); m.Part >= m.Parts {
				return nil, false
			}
		default:
			return nil, false
		}
	case TypeTableReply:
		m := &TableReply{}
		msg = m
		n := r.u32()
		if uint64(n)*(patternLen+3) > uint64(r.remaining()) {
			return nil, false
		}
		for i := uint32(0); i < n; i++ {
			m.Rules = append(m.Rules, TableRule{Pattern: fieldwiseUnmarshalPattern(r), Priority: r.u16(), Queue: r.u8()})
		}
	}
	return msg, r.err == nil
}

func randomPattern(rng *rand.Rand) rules.Pattern {
	return rules.Pattern{
		Tenant: packet.TenantID(rng.Uint32()), AnyTenant: rng.Intn(2) == 0,
		Src: packet.IP(rng.Uint32()), SrcPrefix: uint8(rng.Intn(33)),
		Dst: packet.IP(rng.Uint32()), DstPrefix: uint8(rng.Intn(33)),
		SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32()),
	}
}

func randomPatterns(rng *rand.Rand, n int) []rules.Pattern {
	var ps []rules.Pattern
	for i := 0; i < n; i++ {
		ps = append(ps, randomPattern(rng))
	}
	return ps
}

// randomStrideMessage draws one of the three message types whose bodies
// the stride codes, in every shape each takes, with up to size elements.
func randomStrideMessage(rng *rand.Rand, size int) Message {
	switch rng.Intn(3) {
	case 0:
		m := &DemandReport{ServerID: rng.Uint32(), Interval: rng.Uint32(), NICFree: rng.Uint32(),
			NICPatterns: randomPatterns(rng, rng.Intn(4))}
		for i := rng.Intn(size); i > 0; i-- { // rates finite and not negative, or the decoder refuses them
			m.Entries = append(m.Entries, DemandEntry{Pattern: randomPattern(rng),
				PPS: math.Abs(rng.NormFloat64()), BPS: rng.ExpFloat64(), Epoch: rng.Uint32(),
				MedianPPS: rng.Float64(), MedianBPS: rng.Float64() * 1e9, ActiveEpochs: rng.Uint32()})
		}
		for i := rng.Intn(3); i > 0; i-- {
			m.Splits = append(m.Splits, RateSplit{Tenant: packet.TenantID(rng.Uint32()), EgressHardBps: rng.Float64()})
		}
		if rng.Intn(2) == 0 {
			m.Sketch = &SketchMeta{TopK: rng.Uint32(), Floor: rng.Uint64()}
		}
		return m
	case 1:
		m := &RuleSync{Seq: rng.Uint32(), Patterns: randomPatterns(rng, rng.Intn(size))}
		if rng.Intn(2) == 0 {
			m.Term, m.Origin = 1+rng.Uint32(), rng.Uint32()
		}
		switch rng.Intn(3) {
		case 0:
			m.Delta, m.Base, m.Removes = true, rng.Uint32(), randomPatterns(rng, rng.Intn(size))
		case 1:
			m.Parts = uint16(1 + rng.Intn(9))
			m.Part = uint16(rng.Intn(int(m.Parts)))
		}
		return m
	default:
		m := &TableReply{}
		for i := rng.Intn(size); i > 0; i-- {
			m.Rules = append(m.Rules, TableRule{Pattern: randomPattern(rng), Priority: uint16(rng.Uint32()), Queue: uint8(rng.Uint32())})
		}
		return m
	}
}

// TestFixedStrideAgainstFieldwise: random reports, RuleSyncs and
// TableReplies encode to the bytes the field-by-field codec writes and
// decode to the values it reads; cut at any offset, both take the body (a
// delta or part cut back to a full sync) or both refuse it, and neither
// panics.
func TestFixedStrideAgainstFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	frameOf := func(typ MsgType, body []byte) []byte {
		frame := append([]byte{Version, uint8(typ), 0, 0, 0, 0, 0, 9}, body...)
		binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
		return frame
	}
	for i := 0; i < 300; i++ {
		size := 8
		if i%50 == 0 {
			size = 100 // the benchmark's report has 84 entries
		}
		msg := randomStrideMessage(rng, size)
		body := fieldwiseBody(msg)
		if got := Encode(msg, 9); !bytes.Equal(got, frameOf(msg.Type(), body)) {
			t.Fatalf("%s %+v: the stride writes other bytes than the fields", msg.Type(), msg)
		}
		for cut := len(body); cut >= 0; cut-- {
			got, _, _, err := Decode(frameOf(msg.Type(), body[:cut]))
			want, ok := fieldwiseDecode(msg.Type(), body[:cut])
			if ok != (err == nil) {
				t.Fatalf("%s cut at %d of %d: fields decode %v, stride says %v", msg.Type(), cut, len(body), ok, err)
			}
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cut at %d of %d:\nstride %+v\nfields %+v", msg.Type(), cut, len(body), got, want)
			}
			if cut == len(body) && !reflect.DeepEqual(got, msg) {
				t.Fatalf("%s does not round-trip: %+v, got %+v (%v)", msg.Type(), msg, got, err)
			}
		}
	}
}

// TestDecodeDoesNotAliasFrame pins what lets Conn.Recv decode in its read
// buffer: once Decode returns, the frame may be overwritten and the
// message does not change. Every message type, every slice it can carry.
func TestDecodeDoesNotAliasFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := randomPatterns(rng, 3)
	msgs := []Message{
		Hello{}, EchoRequest{}, EchoReply{}, &BarrierRequest{}, &BarrierReply{},
		&FlowMod{Command: FlowDelete, Pattern: ps[0], Priority: 3, Out: PathVF, Cookie: 7, Term: 2, Origin: 1},
		&DemandReport{ServerID: 1, Interval: 2, NICFree: 3, NICPatterns: ps[1:],
			Entries: []DemandEntry{{Pattern: ps[0], PPS: 1, BPS: 2, Epoch: 3, MedianPPS: 4, MedianBPS: 5, ActiveEpochs: 6}},
			Splits:  []RateSplit{{Tenant: 1, VMIP: 2, EgressSoftBps: 3, EgressHardBps: 4, IngressSoftBps: 5, IngressHardBps: 6}},
			Sketch:  &SketchMeta{TopK: 1, Width: 2, Depth: 3, Floor: 4, Evictions: 5}},
		&OffloadDecision{Interval: 1, Actions: []OffloadAction{{Pattern: ps[0], Offload: true, Tier: TierNIC}},
			HWRates: []VMRate{{Tenant: 1, VMIP: 2, EgressBps: 3, IngressBps: 4, IngressMaxed: true}}, Term: 5, Origin: 6},
		&ErrorMsg{Code: ErrCodeStaleTerm},
		&RuleSync{Seq: 4, Patterns: ps[:2], Term: 1, Origin: 2, Delta: true, Base: 3, Removes: ps[2:]},
		&SyncAck{ServerID: 1, Seq: 2, Term: 3},
		&TableRequest{Term: 1, Origin: 2},
		&TableReply{Rules: []TableRule{{Pattern: ps[1], Priority: 9, Queue: 2}}},
		&OverloadHint{ServerID: 1, Tenant: 2, Overloaded: true, MissPPS: 3},
		&LeaderHeartbeat{Term: 1, LeaderID: 2},
	}
	seen := make(map[MsgType]bool)
	for _, m := range msgs {
		seen[m.Type()] = true
		frame := Encode(m, 1)
		got, _, _, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: %v", m.Type(), err)
		}
		for i := range frame {
			frame[i] = 0xa5
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s changed when its frame was overwritten:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
	for typ := TypeHello; typ <= TypeLeaderHeartbeat; typ++ {
		if _, err := newMessage(typ, nil); err != nil {
			continue // a retired number
		}
		if !seen[typ] {
			t.Errorf("%s is not covered", typ)
		}
	}
}
