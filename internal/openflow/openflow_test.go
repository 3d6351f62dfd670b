package openflow

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

func samplePattern() rules.Pattern {
	return rules.ExactPattern(packet.FlowKey{
		Src: packet.MustParseIP("10.0.0.1"), Dst: packet.MustParseIP("10.0.0.2"),
		SrcPort: 40000, DstPort: 11211, Proto: packet.ProtoTCP, Tenant: 7,
	})
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	msgs := []Message{
		Hello{},
		EchoRequest{},
		EchoReply{},
		&FlowMod{Command: FlowAdd, Pattern: samplePattern(), Priority: 10, Out: PathVF, Cookie: 0xfeed},
		&BarrierRequest{},
		&BarrierReply{},
		&DemandReport{ServerID: 2, Interval: 9,
			Entries: []DemandEntry{{
				Pattern: samplePattern(), PPS: 5618, BPS: 4.5e6, Epoch: 3,
				MedianPPS: 5000, MedianBPS: 4e6, ActiveEpochs: 7,
			}},
			Splits: []RateSplit{{Tenant: 7, VMIP: packet.MustParseIP("10.0.0.1"),
				EgressSoftBps: 1e8, EgressHardBps: 9e8, IngressSoftBps: 2e8, IngressHardBps: 8e8}},
			Sketch: &SketchMeta{TopK: 1024, Width: 2048, Depth: 4, Floor: 77, Evictions: 12},
		},
		&OffloadDecision{Interval: 9,
			Actions: []OffloadAction{{Pattern: samplePattern(), Offload: true}},
			HWRates: []VMRate{{Tenant: 7, VMIP: packet.MustParseIP("10.0.0.1"),
				EgressBps: 9e8, IngressBps: 2e8, EgressMaxed: true}},
		},
	}
	for _, m := range msgs {
		wire := Encode(m, 42)
		got, xid, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		if xid != 42 || n != len(wire) {
			t.Errorf("%s: xid=%d n=%d len=%d", m.Type(), xid, n, len(wire))
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	wire := Encode(&FlowMod{Pattern: samplePattern()}, 1)
	// Truncated.
	if _, _, _, err := Decode(wire[:4]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, _, err := Decode(wire[:len(wire)-2]); err == nil {
		t.Error("truncated body accepted")
	}
	// Wrong version.
	bad := append([]byte(nil), wire...)
	bad[0] = 99
	if _, _, _, err := Decode(bad); err == nil {
		t.Error("wrong version accepted")
	}
	// Unknown type.
	bad2 := append([]byte(nil), wire...)
	bad2[1] = 200
	if _, _, _, err := Decode(bad2); err == nil {
		t.Error("unknown type accepted")
	}
}

// TestWireTypeNumbers pins every live message type's number on the wire,
// so deleting a type from the iota cannot renumber the ones after it.
// Numbers 5 and 6 are retired: a frame of either type is refused.
func TestWireTypeNumbers(t *testing.T) {
	want := map[MsgType]uint8{
		TypeHello: 1, TypeEchoRequest: 2, TypeEchoReply: 3, TypeFlowMod: 4,
		TypeBarrierRequest: 7, TypeBarrierReply: 8, TypeDemandReport: 9,
		TypeOffloadDecision: 10, TypeError: 11, TypeRuleSync: 12, TypeSyncAck: 13,
		TypeTableRequest: 14, TypeTableReply: 15, TypeOverloadHint: 16,
		TypeLeaderHeartbeat: 17,
	}
	for typ, n := range want {
		if uint8(typ) != n {
			t.Errorf("%s is %d on the wire, want %d", typ, uint8(typ), n)
		}
	}
	for n := 0; n < 256; n++ {
		_, err := newMessage(MsgType(n), nil)
		if live := want[MsgType(n)] != 0; (err == nil) != live {
			t.Errorf("type %d: newMessage error %v, want live=%v", n, err, live)
		}
	}
	for _, n := range []uint8{5, 6} {
		frame := Encode(&BarrierRequest{}, 1)
		frame[1] = n
		if _, _, _, err := Decode(frame); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("type %d: Decode error = %v, want unknown message type", n, err)
		}
	}
}

func TestTableReplyLengthBombRejected(t *testing.T) {
	// A reply claiming 2^31 rules in a tiny body must not allocate.
	wire := Encode(&TableReply{}, 1)
	// Body currently holds count=0 at offset 8; rewrite to huge count.
	wire[8], wire[9], wire[10], wire[11] = 0x7f, 0xff, 0xff, 0xff
	if _, _, _, err := Decode(wire); err == nil {
		t.Error("length bomb accepted")
	}
}

func TestConnOverPipe(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a, b := NewConn(c1), NewConn(c2)

	done := make(chan error, 1)
	go func() {
		msg, xid, err := b.Recv()
		if err != nil {
			done <- err
			return
		}
		if msg.Type() != TypeTableRequest {
			done <- io.ErrUnexpectedEOF
			return
		}
		done <- b.WriteFrame(Encode(&TableReply{Rules: []TableRule{{Priority: 1}}}, xid))
	}()

	xid, err := a.Send(&TableRequest{})
	if err != nil {
		t.Fatal(err)
	}
	reply, rxid, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rxid != xid {
		t.Errorf("reply xid %d != request %d", rxid, xid)
	}
	tr, ok := reply.(*TableReply)
	if !ok || len(tr.Rules) != 1 || tr.Rules[0].Priority != 1 {
		t.Errorf("reply = %#v", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnHandshake(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	a, b := NewConn(c1), NewConn(c2)
	errs := make(chan error, 2)
	go func() { errs <- a.Handshake() }()
	go func() { errs <- b.Handshake() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type recordingHandler struct {
	got   []Message
	reply Message
}

func (h *recordingHandler) HandleMessage(msg Message, xid uint32, reply ReplyFunc) {
	h.got = append(h.got, msg)
	if h.reply != nil {
		reply(h.reply, xid)
	}
}

func TestServeDispatches(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	a, b := NewConn(c1), NewConn(c2)
	h := &recordingHandler{reply: &BarrierReply{}}
	done := make(chan error, 1)
	go func() { done <- Serve(b, h, NewRemoteTransport(b.WriteFrame).Reply) }()

	xid, err := a.Send(&BarrierRequest{})
	if err != nil {
		t.Fatal(err)
	}
	reply, rxid, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type() != TypeBarrierReply || rxid != xid {
		t.Errorf("reply %s xid %d", reply.Type(), rxid)
	}
	c2.Close()
	<-done
	if len(h.got) != 1 || h.got[0].Type() != TypeBarrierRequest {
		t.Errorf("handler saw %v", h.got)
	}
}

func TestSimTransportPair(t *testing.T) {
	eng := sim.NewEngine(1)
	ctrl := &recordingHandler{}
	dp := &recordingHandler{reply: &BarrierReply{}}
	toDP, _ := Pair(eng, 50*time.Microsecond, ctrl, dp)

	var sentXID uint32
	eng.At(0, func() {
		sentXID = toDP.Send(&BarrierRequest{})
	})
	eng.Run()
	if len(dp.got) != 1 || dp.got[0].Type() != TypeBarrierRequest {
		t.Fatalf("data plane saw %v", dp.got)
	}
	if len(ctrl.got) != 1 || ctrl.got[0].Type() != TypeBarrierReply {
		t.Fatalf("controller saw %v", ctrl.got)
	}
	_ = sentXID
	// One-way delay each direction: full exchange completes at 100µs.
	if eng.Now() != 100*time.Microsecond {
		t.Errorf("exchange finished at %v, want 100µs", eng.Now())
	}
	if toDP.Sent != 1 || toDP.SentBytes == 0 {
		t.Errorf("accounting: sent=%d bytes=%d", toDP.Sent, toDP.SentBytes)
	}
}

// replier answers every message with reply and keeps nothing.
type replier struct{ reply Message }

func (h replier) HandleMessage(_ Message, xid uint32, reply ReplyFunc) {
	if h.reply != nil {
		reply(h.reply, xid)
	}
}

// TestPairRoundTripAllocs pins an in-simulation barrier round trip: per
// direction a fresh frame, a scheduled delivery and a decode, and no
// reply func per delivery (Pair makes each direction's once).
func TestPairRoundTripAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	toDP, _ := Pair(eng, 50*time.Microsecond, replier{}, replier{&BarrierReply{}})
	var req Message = &BarrierRequest{}
	round := func() {
		toDP.Send(req)
		eng.Run()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n > 10 {
		t.Errorf("an in-simulation barrier round trip allocates %v times, want at most 10", n)
	}
}

// Property: FlowMod round-trips for arbitrary patterns.
func TestFlowModRoundTripProperty(t *testing.T) {
	f := func(tenant, src, dst uint32, srcPfx, dstPfx uint8, sp, dp uint16, proto uint8, prio uint16, out bool, cookie uint64) bool {
		m := &FlowMod{
			Command: FlowDelete,
			Pattern: rules.Pattern{
				Tenant: packet.TenantID(tenant),
				Src:    packet.IP(src), SrcPrefix: srcPfx % 33,
				Dst: packet.IP(dst), DstPrefix: dstPfx % 33,
				SrcPort: sp, DstPort: dp, Proto: proto,
			},
			Priority: prio,
			Cookie:   cookie,
		}
		if out {
			m.Out = PathVF
		}
		got, xid, _, err := Decode(Encode(m, 7))
		if err != nil || xid != 7 {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeOversizedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized message encoded without panic")
		}
	}()
	big := &DemandReport{Entries: make([]DemandEntry, 2000)}
	Encode(big, 1)
}

func TestChunkDemandReport(t *testing.T) {
	rep := DemandReport{ServerID: 4, Interval: 9,
		Splits: []RateSplit{{Tenant: 1}},
	}
	for i := 0; i < 2100; i++ {
		rep.Entries = append(rep.Entries, DemandEntry{PPS: float64(i)})
	}
	chunks := ChunkDemandReport(rep)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	total := 0
	for i, ch := range chunks {
		if ch.ServerID != 4 || ch.Interval != 9 {
			t.Errorf("chunk %d header wrong", i)
		}
		if i == 0 && len(ch.Splits) != 1 {
			t.Error("splits missing from first chunk")
		}
		if i > 0 && len(ch.Splits) != 0 {
			t.Error("splits duplicated on later chunk")
		}
		// Each chunk must encode within the frame limit.
		_ = Encode(&ch, 1)
		total += len(ch.Entries)
	}
	if total != 2100 {
		t.Errorf("entries lost: %d", total)
	}
	// Small reports pass through unchunked.
	small := DemandReport{Entries: make([]DemandEntry, 5)}
	if got := ChunkDemandReport(small); len(got) != 1 {
		t.Errorf("small report chunked into %d", len(got))
	}
}

// TestChunkDemandReportSketchMeta: sketch metadata rides the first chunk
// only, and every chunk of a sketch-mode report round-trips on the wire.
func TestChunkDemandReportSketchMeta(t *testing.T) {
	rep := DemandReport{ServerID: 4, Interval: 9,
		Sketch: &SketchMeta{TopK: 2048, Width: 4096, Depth: 4, Floor: 31, Evictions: 5},
	}
	for i := 0; i < 2100; i++ {
		rep.Entries = append(rep.Entries, DemandEntry{PPS: float64(i)})
	}
	for i, ch := range ChunkDemandReport(rep) {
		if i == 0 && !reflect.DeepEqual(ch.Sketch, rep.Sketch) {
			t.Error("sketch meta missing from first chunk")
		}
		if i > 0 && ch.Sketch != nil {
			t.Error("sketch meta duplicated on later chunk")
		}
		got, _, _, err := Decode(Encode(&ch, 1))
		if err != nil {
			t.Fatalf("chunk %d: decode: %v", i, err)
		}
		want := ch
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("chunk %d: round trip mismatch", i)
		}
	}
}

// TestFenceTailRequired pins the one layout each message has: a fenced
// message's term tail and a demand report's NIC and sketch sections are
// always written, so a body cut anywhere inside one, at its start too, is
// refused rather than read as a shorter layout.
func TestFenceTailRequired(t *testing.T) {
	ps := syncOf(0, 3).Patterns
	entry := DemandEntry{Pattern: samplePattern(), PPS: 10}
	report := func(sk *SketchMeta) *DemandReport {
		return &DemandReport{ServerID: 1, Interval: 2, Entries: []DemandEntry{entry}, NICPatterns: ps[:1], Sketch: sk}
	}
	// Each section is [from, to) in body bytes. A sync's fence tail
	// follows its seq, count and two patterns; a report's NIC section
	// (free count, pattern count, one pattern) follows its header words,
	// one entry and the split count, and its sketch section comes last.
	const syncTail, nicAt, sketchAt = 8 + 2*patternLen, 12 + entryLen + 4, 12 + entryLen + 4 + 8 + patternLen
	for _, c := range []struct {
		name     string
		msg      Message
		from, to int
	}{
		{"flow mod", &FlowMod{Command: FlowAdd, Pattern: ps[0], Term: 1}, 12 + patternLen, 20 + patternLen},
		{"offload decision", &OffloadDecision{Interval: 1, Actions: []OffloadAction{{Pattern: ps[0]}}, Term: 1}, 12 + 21, 20 + 21},
		{"full rule sync", &RuleSync{Seq: 1, Patterns: ps[:2], Term: 1}, syncTail, syncTail + 8},
		{"delta rule sync", &RuleSync{Seq: 2, Patterns: ps[:2], Term: 1, Delta: true, Base: 1, Removes: ps[2:]}, syncTail, syncTail + 8},
		{"part rule sync", &RuleSync{Seq: 3, Patterns: ps[:2], Term: 1, Parts: 2}, syncTail, syncTail + 8},
		{"table request", &TableRequest{Term: 1}, 0, 8},
		{"sync ack", &SyncAck{ServerID: 1, Seq: 2, Term: 1}, 8, 12},
		{"report nic section", report(nil), nicAt, sketchAt},
		{"report sketch flag", report(nil), sketchAt, sketchAt + 1},
		{"report sketch section", report(&SketchMeta{TopK: 8, Floor: 3}), sketchAt, sketchAt + 29},
	} {
		frame := Encode(c.msg, 7)
		if got, _, _, err := Decode(frame); err != nil || !reflect.DeepEqual(got, c.msg) {
			t.Fatalf("%s does not round-trip: %v", c.name, err)
		}
		if len(frame)-headerLen < c.to {
			t.Fatalf("%s: a %d-byte body has no section [%d, %d)", c.name, len(frame)-headerLen, c.from, c.to)
		}
		for cut := c.from; cut < c.to; cut++ {
			trunc := bytes.Clone(frame[:headerLen+cut])
			binary.BigEndian.PutUint16(trunc[2:4], uint16(len(trunc)))
			if got, _, _, err := Decode(trunc); err == nil {
				t.Errorf("%s cut at %d of its body decodes to %+v", c.name, cut, got)
			}
		}
	}
}
