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

// BenchmarkBroadcastRuleSync is the ToR controller's publish: one
// full-TCAM (640-pattern) RuleSync to a rack's 16 agents.
func BenchmarkBroadcastRuleSync(b *testing.B) {
	trs := make([]*Transport, 16)
	for i := range trs {
		trs[i] = NewRemoteTransport(func([]byte) error { return nil })
	}
	msg := syncOf(1, 640)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Broadcast(trs, msg)
	}
}
