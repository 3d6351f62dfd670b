package openflow

import "testing"

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
				Broadcast(trs, row.msg)
			}
		})
	}
}
