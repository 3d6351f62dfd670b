package measure

import (
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

var flowAB = packet.FlowKey{
	Src: packet.MustParseIP("10.0.0.1"), Dst: packet.MustParseIP("10.0.0.2"),
	SrcPort: 40000, DstPort: 11211, Proto: packet.ProtoTCP, Tenant: 3,
}

// counterSource simulates a datapath whose counters grow at fixed rates.
type counterSource struct {
	eng  *sim.Engine
	pps  float64 // packets per second
	size int     // bytes per packet
	keys []packet.FlowKey
}

func (s *counterSource) read() []Reading {
	el := s.eng.Now().Seconds()
	out := make([]Reading, len(s.keys))
	for i, k := range s.keys {
		pkts := uint64(s.pps * el)
		out[i] = Reading{Key: k, Packets: pkts, Bytes: pkts * uint64(s.size)}
	}
	return out
}

func cfg() Config {
	return Config{
		SampleGap:         100 * time.Millisecond,
		Epoch:             500 * time.Millisecond,
		EpochsPerInterval: 2,
		HistoryIntervals:  4,
		Aggregate:         true,
	}
}

func TestMeasuresPPSAndBPS(t *testing.T) {
	eng := sim.NewEngine(1)
	src := &counterSource{eng: eng, pps: 5000, size: 750, keys: []packet.FlowKey{flowAB}}
	me := New(eng, cfg(), src.read)
	var reports []openflow.DemandReport
	me.OnReport = func(r openflow.DemandReport) { reports = append(reports, r) }
	me.Start()
	eng.RunUntil(3 * time.Second)
	me.Stop()

	if len(reports) < 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	last := reports[len(reports)-1]
	// With aggregation, the flow shows up as two aggregates.
	if len(last.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 aggregates", len(last.Entries))
	}
	for _, e := range last.Entries {
		if e.PPS < 4500 || e.PPS > 5500 {
			t.Errorf("pps = %v, want ~5000", e.PPS)
		}
		wantBPS := 5000.0 * 750 * 8
		if e.BPS < wantBPS*0.9 || e.BPS > wantBPS*1.1 {
			t.Errorf("bps = %v, want ~%v", e.BPS, wantBPS)
		}
		if e.MedianPPS <= 0 || e.ActiveEpochs == 0 {
			t.Errorf("median/active missing: %+v", e)
		}
	}
}

func TestAggregationMergesClientFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	// 10 client flows to the same service port.
	keys := make([]packet.FlowKey, 10)
	for i := range keys {
		keys[i] = flowAB
		keys[i].SrcPort = uint16(40000 + i)
	}
	src := &counterSource{eng: eng, pps: 100, size: 100, keys: keys}
	me := New(eng, cfg(), src.read)
	var last openflow.DemandReport
	me.OnReport = func(r openflow.DemandReport) { last = r }
	me.Start()
	eng.RunUntil(2 * time.Second)
	me.Stop()

	// Ingress aggregate <dst, 11211> merges all ten; egress aggregates
	// remain distinct per client port.
	var ingress *openflow.DemandEntry
	for i := range last.Entries {
		e := &last.Entries[i]
		if e.Pattern.DstPort == 11211 && e.Pattern.SrcPrefix == 0 {
			ingress = e
		}
	}
	if ingress == nil {
		t.Fatal("no ingress aggregate found")
	}
	if ingress.PPS < 900 || ingress.PPS > 1100 {
		t.Errorf("aggregate pps = %v, want ~1000 (10 × 100)", ingress.PPS)
	}
}

func TestExactModeKeysPerFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	c := cfg()
	c.Aggregate = false
	src := &counterSource{eng: eng, pps: 100, size: 100, keys: []packet.FlowKey{flowAB}}
	me := New(eng, c, src.read)
	var last openflow.DemandReport
	me.OnReport = func(r openflow.DemandReport) { last = r }
	me.Start()
	eng.RunUntil(2 * time.Second)
	me.Stop()
	if len(last.Entries) != 1 {
		t.Fatalf("entries = %d, want 1 exact flow", len(last.Entries))
	}
	if last.Entries[0].Pattern != rules.ExactPattern(flowAB) {
		t.Error("pattern not exact in non-aggregating mode")
	}
}

func TestIdleFlowsAgeOut(t *testing.T) {
	eng := sim.NewEngine(1)
	src := &counterSource{eng: eng, pps: 1000, size: 100, keys: []packet.FlowKey{flowAB}}
	me := New(eng, cfg(), src.read)
	var reports []openflow.DemandReport
	me.OnReport = func(r openflow.DemandReport) { reports = append(reports, r) }
	me.Start()
	eng.RunUntil(2 * time.Second)
	// Stop traffic: counters freeze.
	src.pps = 0
	// Freeze counters by replacing the source output: zero growth.
	frozen := src.read()
	meSrcFrozen(me, frozen)
	eng.RunUntil(10 * time.Second)
	me.Stop()
	last := reports[len(reports)-1]
	if len(last.Entries) != 0 {
		t.Errorf("idle flow still reported after window drained: %d entries", len(last.Entries))
	}
}

// meSrcFrozen swaps the engine's source for one returning fixed counters.
func meSrcFrozen(me *Engine, frozen []Reading) {
	me.src = func() []Reading { return frozen }
}

func TestActiveEpochsCountsBursts(t *testing.T) {
	eng := sim.NewEngine(1)
	// Bursty flow: counters grow only during odd seconds.
	var pkts uint64
	src := func() []Reading {
		sec := int(eng.Now().Seconds())
		if sec%2 == 1 {
			pkts += 500
		}
		return []Reading{{Key: flowAB, Packets: pkts, Bytes: pkts * 100}}
	}
	me := New(eng, cfg(), src)
	var last openflow.DemandReport
	me.OnReport = func(r openflow.DemandReport) { last = r }
	me.Start()
	eng.RunUntil(8 * time.Second)
	me.Stop()
	if len(last.Entries) == 0 {
		t.Fatal("bursty flow not reported")
	}
	e := last.Entries[0]
	win := uint32(cfg().EpochsPerInterval * cfg().HistoryIntervals)
	if e.ActiveEpochs == 0 || e.ActiveEpochs >= win {
		t.Errorf("ActiveEpochs = %d, want within (0,%d) for a bursty flow", e.ActiveEpochs, win)
	}
}

func TestProfileExportImport(t *testing.T) {
	eng := sim.NewEngine(1)
	src := &counterSource{eng: eng, pps: 5000, size: 200, keys: []packet.FlowKey{flowAB}}
	me := New(eng, cfg(), src.read)
	me.OnReport = func(openflow.DemandReport) {}
	me.Start()
	eng.RunUntil(3 * time.Second)
	me.Stop()

	prof := me.ProfileFor(3, flowAB.Src)
	if len(prof.Entries) == 0 {
		t.Fatal("empty profile for active VM")
	}
	// Import into a fresh engine (the migration destination): the next
	// report already carries the flow's history.
	me2 := New(eng, cfg(), func() []Reading { return nil })
	me2.ImportProfile(prof)
	var got openflow.DemandReport
	me2.OnReport = func(r openflow.DemandReport) { got = r }
	me2.Start()
	eng.RunUntil(eng.Now() + 2*time.Second)
	me2.Stop()
	found := false
	for _, e := range got.Entries {
		if e.MedianPPS > 0 {
			found = true
		}
	}
	if !found {
		t.Error("imported profile did not seed medians")
	}
}

func TestProfileScopedToVM(t *testing.T) {
	eng := sim.NewEngine(1)
	other := flowAB
	other.Src = packet.MustParseIP("10.0.0.9")
	src := &counterSource{eng: eng, pps: 100, size: 100, keys: []packet.FlowKey{flowAB, other}}
	me := New(eng, cfg(), src.read)
	me.Start()
	eng.RunUntil(2 * time.Second)
	me.Stop()
	prof := me.ProfileFor(3, packet.MustParseIP("10.0.0.9"))
	for _, e := range prof.Entries {
		touches := (e.Pattern.SrcPrefix == 32 && e.Pattern.Src == other.Src) ||
			(e.Pattern.DstPrefix == 32 && e.Pattern.Dst == other.Src)
		if !touches {
			t.Errorf("profile leaked foreign aggregate %v", e.Pattern)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 9}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestReportDeterministicOrder(t *testing.T) {
	mkReport := func() openflow.DemandReport {
		eng := sim.NewEngine(1)
		keys := make([]packet.FlowKey, 20)
		for i := range keys {
			keys[i] = flowAB
			keys[i].DstPort = uint16(1000 + i)
		}
		src := &counterSource{eng: eng, pps: 100, size: 100, keys: keys}
		me := New(eng, cfg(), src.read)
		var last openflow.DemandReport
		me.OnReport = func(r openflow.DemandReport) { last = r }
		me.Start()
		eng.RunUntil(2 * time.Second)
		me.Stop()
		return last
	}
	a, b := mkReport(), mkReport()
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("nondeterministic entry count")
	}
	for i := range a.Entries {
		if a.Entries[i].Pattern != b.Entries[i].Pattern {
			t.Fatalf("entry %d order differs", i)
		}
	}
}

var _ = rules.Pattern{} // keep import for pattern helpers in tests above
