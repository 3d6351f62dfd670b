package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// FuzzDecode throws arbitrary bytes at the frame decoder: it must never
// panic or over-allocate, only return an error or a valid message.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(&DemandReport{ServerID: 1}, 7))
	f.Add(Encode(&DemandReport{
		Entries: []DemandEntry{{Pattern: samplePattern(), PPS: 100}},
		Sketch:  &SketchMeta{TopK: 16, Width: 32, Depth: 2, Floor: 5},
	}, 9))
	f.Add(Encode(&FlowMod{Pattern: samplePattern()}, 3))
	f.Add([]byte{Version, 200, 0, 9, 0, 0, 0, 1, 0})
	// The benchmark's 84-entry report, whole and cut in the middle of an
	// entry with the header's length cut to match.
	rep := Encode(report84(), 5)
	f.Add(rep)
	cut := bytes.Clone(rep[:headerLen+12+40*entryLen+33])
	binary.BigEndian.PutUint16(cut[2:4], uint16(len(cut)))
	f.Add(cut)
	f.Add(longPrefixFrames()["flow mod src"])
	f.Add(badRateFrames()["median pps +Inf"])
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, _, n, err := Decode(data)
		if err == nil {
			if msg == nil || n <= 0 || n > len(data) {
				t.Fatalf("successful decode with msg=%v n=%d len=%d", msg, n, len(data))
			}
		}
	})
}

// longPrefixFrames returns valid frames of every body that carries a
// pattern, each with one prefix length on the wire raised to 33.
func longPrefixFrames() map[string][]byte {
	p := samplePattern()
	bad := func(m Message, patternAt, field int) []byte {
		frame := Encode(m, 1)
		if frame[headerLen+patternAt+field] != 32 {
			panic("the pattern is not where the test expects it")
		}
		frame[headerLen+patternAt+field] = 33
		return frame
	}
	return map[string][]byte{
		"flow mod src":        bad(&FlowMod{Pattern: p}, 12, 9),
		"flow mod dst":        bad(&FlowMod{Pattern: p}, 12, 14),
		"demand entry":        bad(&DemandReport{Entries: []DemandEntry{{Pattern: p}}}, 12, 9),
		"rule sync":           bad(&RuleSync{Seq: 1, Patterns: []rules.Pattern{p}}, 8, 14),
		"offload action":      bad(&OffloadDecision{Actions: []OffloadAction{{Pattern: p}}}, 8, 9),
		"table reply":         bad(&TableReply{Rules: []TableRule{{Pattern: p}}}, 4, 9),
		"demand nic patterns": bad(&DemandReport{NICPatterns: []rules.Pattern{p}}, 24, 9),
	}
}

// TestDecodeRejectsLongPrefix: a prefix length beyond 32 is no pattern any
// sender holds, so a frame that carries one is malformed.
func TestDecodeRejectsLongPrefix(t *testing.T) {
	for name, frame := range longPrefixFrames() {
		if msg, _, _, err := Decode(frame); err == nil {
			t.Errorf("%s: a prefix of 33 decodes to %+v", name, msg)
		}
	}
}

// FuzzChunkDemandReport builds a sketch-mode demand report from fuzzed
// dimensions, chunks it, encodes every chunk, and checks the reassembled
// report matches the original — the exact path a top-k report takes from
// local controller to TOR.
func FuzzChunkDemandReport(f *testing.F) {
	f.Add(uint16(3), uint16(1), uint64(9), true)
	f.Add(uint16(2100), uint16(4), uint64(0), true)
	f.Add(uint16(900), uint16(0), uint64(12345), false)
	f.Fuzz(func(t *testing.T, entries, splits uint16, floor uint64, withSketch bool) {
		if entries > 4000 {
			entries = entries % 4000
		}
		if splits > 64 {
			splits = splits % 64
		}
		rep := DemandReport{ServerID: 2, Interval: 5, NICFree: uint32(splits)}
		for i := 0; i < int(entries); i++ {
			k := packet.FlowKey{
				Tenant: packet.TenantID(1 + i%5), Src: packet.IP(i), Dst: packet.IP(i * 7),
				SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP,
			}
			rep.Entries = append(rep.Entries, DemandEntry{
				Pattern: rules.ExactPattern(k), PPS: float64(i), MedianPPS: float64(i) / 2,
				ActiveEpochs: uint32(1 + i%3),
			})
		}
		for i := 0; i < int(splits); i++ {
			rep.Splits = append(rep.Splits, RateSplit{Tenant: packet.TenantID(i), EgressSoftBps: float64(i)})
		}
		if withSketch {
			rep.Sketch = &SketchMeta{TopK: uint32(entries), Width: 2048, Depth: 4, Floor: floor, Evictions: floor / 2}
		}

		var got DemandReport
		for i, ch := range ChunkDemandReport(rep) {
			msg, _, _, err := Decode(Encode(&ch, uint32(i)))
			if err != nil {
				t.Fatalf("chunk %d failed round trip: %v", i, err)
			}
			d := msg.(*DemandReport)
			if i == 0 {
				got = *d
			} else {
				if d.Sketch != nil || d.Splits != nil || d.NICPatterns != nil {
					t.Fatalf("chunk %d carries first-chunk-only sections", i)
				}
				got.Entries = append(got.Entries, d.Entries...)
			}
		}
		got.ServerID, got.Interval, got.NICFree = rep.ServerID, rep.Interval, rep.NICFree
		if !reflect.DeepEqual(normalizeRep(got), normalizeRep(rep)) {
			t.Fatal("reassembled report differs from original")
		}
	})
}

// normalizeRep maps empty slices to nil so DeepEqual compares content.
func normalizeRep(r DemandReport) DemandReport {
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	if len(r.Splits) == 0 {
		r.Splits = nil
	}
	if len(r.NICPatterns) == 0 {
		r.NICPatterns = nil
	}
	return r
}

// ruleSyncSeeds are the shapes a RuleSync takes on the wire: full (at term
// 0 and at a later term), an empty delta, add-only, remove-only, both, and
// the first and final parts of a split full set.
func ruleSyncSeeds() []*RuleSync {
	ps := syncOf(0, 5).Patterns
	return []*RuleSync{
		{Seq: 1, Patterns: ps},
		{Seq: 2, Patterns: ps, Term: 3, Origin: 1},
		{Seq: 3, Delta: true, Base: 2},
		{Seq: 4, Delta: true, Base: 3, Patterns: ps[:2], Term: 3},
		{Seq: 5, Delta: true, Base: 4, Removes: ps[2:], Term: 3, Origin: 2},
		{Seq: 6, Delta: true, Base: 4, Patterns: ps[:1], Removes: ps[1:]},
		{Seq: 7, Patterns: ps[:3], Part: 0, Parts: 2, Term: 3},
		{Seq: 7, Patterns: ps[3:], Part: 1, Parts: 2, Term: 3},
	}
}

// FuzzRuleSync decodes arbitrary RuleSync bodies. What decodes must
// re-encode to a canonical frame — one that decodes to the same message and
// encodes to itself — and what does not must be rejected without allocating
// for the counts it claims.
func FuzzRuleSync(f *testing.F) {
	for _, m := range ruleSyncSeeds() {
		f.Add(Encode(m, 1)[headerLen:])
	}
	huge := Encode(&RuleSync{Seq: 9, Delta: true, Base: 8, Removes: syncOf(0, 1).Patterns}, 1)[headerLen:]
	binary.BigEndian.PutUint32(huge[len(huge)-patternLen-4:], 1<<30) // a remove count far beyond the body
	f.Add(huge)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxFrame-headerLen {
			return
		}
		frame := make([]byte, headerLen, headerLen+len(body))
		frame[0], frame[1] = Version, uint8(TypeRuleSync)
		frame = append(frame, body...)
		binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, _, _, err := Decode(frame)
		runtime.ReadMemStats(&after)
		// A decoded pattern is about twice its 20 wire bytes; nothing the
		// body does not hold may be allocated for.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64<<10+4*len(body)) {
			t.Fatalf("decoding a %d-byte body allocated %d bytes (err: %v)", len(body), grew, err)
		}
		if err != nil {
			return
		}
		canon := Encode(msg, 7)
		if len(canon) > len(frame) {
			t.Fatalf("a %d-byte frame re-encodes to %d bytes", len(frame), len(canon))
		}
		again, _, _, err := Decode(canon)
		if err != nil || !reflect.DeepEqual(again, msg) || !bytes.Equal(Encode(again, 7), canon) {
			t.Fatalf("re-encoding is not canonical: %v\nfirst:  %+v\nsecond: %+v", err, msg, again)
		}
	})
}

// TestRuleSyncShapes: every shape round-trips, a full sync without parts
// encodes as seq, count, patterns, term, origin and nothing more, and
// malformed tails are errors.
func TestRuleSyncShapes(t *testing.T) {
	for _, m := range ruleSyncSeeds() {
		back, xid, n, err := Decode(Encode(m, 11))
		if err != nil || xid != 11 || n != len(Encode(m, 11)) || !reflect.DeepEqual(back, m) {
			t.Errorf("%+v does not round-trip: %v, got %+v", m, err, back)
		}
	}
	full := syncOf(3, 4)
	legacy := buffer{b: make([]byte, headerLen)}
	legacy.u32(full.Seq)
	legacy.u32(uint32(len(full.Patterns)))
	for _, p := range full.Patterns {
		marshalPattern(&legacy, p)
	}
	legacy.u32(full.Term)
	legacy.u32(full.Origin)
	if got := Encode(full, 0); !bytes.Equal(got[headerLen:], legacy.b[headerLen:]) {
		t.Error("a full sync no longer encodes as seq, count, patterns, term, origin")
	}
	delta := Encode(&RuleSync{Seq: 9, Delta: true, Base: 8, Removes: full.Patterns}, 1)
	for name, cut := range map[string]int{"inside a remove": 7, "inside the remove count": 4*patternLen + 2, "after the kind": 4*patternLen + 8} {
		bad := bytes.Clone(delta[:len(delta)-cut])
		binary.BigEndian.PutUint16(bad[2:4], uint16(len(bad)))
		if _, _, _, err := Decode(bad); err == nil {
			t.Errorf("a delta truncated %s decodes", name)
		}
	}
	for name, tail := range map[string][]byte{"unknown kind": {9}, "part 2 of 2": {syncTailPart, 0, 2, 0, 2}, "part 0 of 0": {syncTailPart, 0, 0, 0, 0}} {
		bad := append(Encode(&RuleSync{Seq: 1, Term: 1}, 1), tail...)
		binary.BigEndian.PutUint16(bad[2:4], uint16(len(bad)))
		if _, _, _, err := Decode(bad); err == nil {
			t.Errorf("a tail with %s decodes", name)
		}
	}
	over := &RuleSync{Seq: 1, Patterns: make([]rules.Pattern, MaxSyncPatterns), Delta: true, Base: 1, Term: 1, Origin: 1}
	if n := len(Encode(over, 1)); n > MaxFrame {
		t.Errorf("MaxSyncPatterns patterns make a %d-byte frame", n)
	}
}

// badRateFrames returns a valid one-entry demand report with one rate of
// the entry replaced on the wire by NaN, an infinity or a negative number,
// for every rate the entry carries.
func badRateFrames() map[string][]byte {
	rate := map[string]int{"pps": 20, "bps": 28, "median pps": 40, "median bps": 48}
	frames := map[string][]byte{}
	for field, at := range rate {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			frame := Encode(&DemandReport{Entries: []DemandEntry{{Pattern: samplePattern(), PPS: 1, BPS: 2, MedianPPS: 3, MedianBPS: 4}}}, 1)
			binary.BigEndian.PutUint64(frame[headerLen+12+at:], math.Float64bits(x))
			frames[fmt.Sprintf("%s %v", field, x)] = frame
		}
	}
	return frames
}

// TestDecodeRejectsBadRate: no sender measures a rate that is not finite
// or is negative, so a demand entry that carries one is malformed.
func TestDecodeRejectsBadRate(t *testing.T) {
	for name, frame := range badRateFrames() {
		if msg, _, _, err := Decode(frame); err == nil {
			t.Errorf("%s: decodes to %+v", name, msg)
		}
	}
	// The same frame with a finite rate in the slot decodes.
	frame := badRateFrames()["median pps NaN"]
	binary.BigEndian.PutUint64(frame[headerLen+12+40:], math.Float64bits(3))
	if _, _, _, err := Decode(frame); err != nil {
		t.Fatalf("a finite rate in the same frame: %v", err)
	}
}

// reportSections is a report with every optional section chosen by mask:
// entries, splits, NIC patterns, sketch.
func reportSections(mask int) *DemandReport {
	rep := &DemandReport{ServerID: uint32(mask), Interval: uint32(100 + mask)}
	if mask&1 != 0 {
		rep.Entries = report84().Entries[:1+mask]
	}
	if mask&2 != 0 {
		rep.Splits = []RateSplit{{Tenant: 3, VMIP: 0x0a000001, EgressSoftBps: 1e9, EgressHardBps: 2e9}}
	}
	if mask&4 != 0 {
		rep.NICFree = 9
		rep.NICPatterns = []rules.Pattern{samplePattern()}
	}
	if mask&8 != 0 {
		rep.Sketch = &SketchMeta{TopK: 16, Width: 32, Depth: 2, Floor: 5, Evictions: uint64(mask)}
	}
	return rep
}

// FuzzConnRecv is the differential for a Conn's reused report: a run of
// valid frames through one Conn decodes, frame by frame, to exactly what a
// fresh Decode of each frame gives. A field the reset forgot, or an entry
// array kept too long or too short, shows as the earlier report's value.
func FuzzConnRecv(f *testing.F) {
	var all, reversed []byte
	for mask := 0; mask < 16; mask++ {
		all = AppendEncode(all, reportSections(mask), uint32(mask))
		reversed = AppendEncode(reversed, reportSections(15-mask), uint32(mask))
		f.Add(AppendEncode(Encode(reportSections(15), 1), reportSections(mask), 2))
	}
	f.Add(all)
	f.Add(reversed)
	f.Add(AppendEncode(AppendEncode(Encode(report84(), 1), EchoRequest{}, 2), syncOf(3, 5), 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The valid frames at the head of data, each with its fresh
		// decode. A message with a NaN in it is not DeepEqual to itself,
		// so it ends the run like an invalid frame.
		var stream []byte
		var want []Message
		for len(data) > 0 {
			msg, _, n, err := Decode(data)
			if again, _, _, _ := Decode(data); err != nil || !reflect.DeepEqual(msg, again) {
				break
			}
			stream, want, data = append(stream, data[:n]...), append(want, msg), data[n:]
		}
		c := NewConn(&splitReader{data: stream, end: io.EOF})
		for i, w := range want {
			got, _, err := c.Recv()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("frame %d through the Conn decodes to\n%+v\nfresh:\n%+v", i, got, w)
			}
		}
	})
}
