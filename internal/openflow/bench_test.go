package openflow

import (
	"net"
	"testing"
)

// BenchmarkEncodeRuleSync2k frames one 2,000-pattern RuleSync: the body is
// sized from its count and marshalled in place behind the header.
func BenchmarkEncodeRuleSync2k(b *testing.B) {
	msg := syncOf(1, 2000)
	b.ReportAllocs()
	b.SetBytes(int64(len(Encode(msg, 1))))
	for i := 0; i < b.N; i++ {
		_ = Encode(msg, uint32(i))
	}
}

// BenchmarkBroadcastRuleSync is the ToR controller's publish to a rack's
// 16 agents: the full 640-pattern TCAM (attach, new term, lost base), and
// the steady-state delta of 8 changes against it.
func BenchmarkBroadcastRuleSync(b *testing.B) {
	trs := make([]*Transport, 16)
	for i := range trs {
		trs[i] = NewRemoteTransport(func([]byte) error { return nil })
	}
	full := syncOf(1, 640)
	delta := &RuleSync{Seq: 2, Term: 2, Origin: 1, Delta: true, Base: 1,
		Patterns: full.Patterns[:4], Removes: full.Patterns[4:8]}
	for _, row := range []struct {
		name string
		msg  Message
	}{{"full640", full}, {"delta8of640", delta}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				broadcastAll(trs, row.msg)
			}
		})
	}
}

// report84 is the shape of one svc_ingest report: 84 aggregates and no
// other section.
func report84() *DemandReport {
	rep := &DemandReport{ServerID: 1, Interval: 7}
	for i, p := range syncOf(0, 84).Patterns {
		pps := 1000 + float64(i)
		rep.Entries = append(rep.Entries, DemandEntry{Pattern: p, PPS: pps, BPS: pps * 6400,
			Epoch: 7, MedianPPS: pps, MedianBPS: pps * 6400, ActiveEpochs: 2})
	}
	return rep
}

// BenchmarkEncodeDemandReport84 frames the report into a kept buffer, as
// Conn.Send does.
func BenchmarkEncodeDemandReport84(b *testing.B) {
	rep := report84()
	buf := AppendEncode(nil, rep, 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], rep, uint32(i))
	}
}

// BenchmarkDecodeDemandReport84 decodes it: the message and its entries are
// what is allocated.
func BenchmarkDecodeDemandReport84(b *testing.B) {
	frame := Encode(report84(), 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnRoundTrip is svc_ingest's round without the daemon: a report
// and an EchoRequest one way over a net.Pipe, the EchoReply back.
func BenchmarkConnRoundTrip(b *testing.B) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	client, server := NewConn(c1), NewConn(c2)
	reply := NewRemoteTransport(server.WriteFrame)
	go func() {
		defer c2.Close()
		for {
			msg, xid, err := server.Recv()
			if err != nil {
				return
			}
			if msg.Type() == TypeEchoRequest {
				reply.Reply(EchoReply{}, xid)
			}
		}
	}()
	rep := report84()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.Send(rep); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Send(EchoRequest{}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
