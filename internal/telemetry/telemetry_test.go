package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
)

func testFlow() packet.FlowKey {
	return packet.FlowKey{
		Src: packet.MakeIP(10, 1, 0, 1), Dst: packet.MakeIP(10, 1, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: 6, Tenant: 7,
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	s := rec.Scope("vswitch/0")
	if s != nil {
		t.Fatalf("nil recorder Scope = %v, want nil", s)
	}
	// All of these must be no-ops, not panics.
	s.Record(Event{Kind: KindUpcall})
	s.Emit(KindDrop, 1, testFlow(), "shape", 0, 0)
	s.EmitPattern(KindOffloadDecision, 1, rules.Pattern{}, "", 1, 2)
	s.Hit(KindExactHit, 1, testFlow())
	s.Drop(1, testFlow(), "clamp")
	rec.Events(func(Event) { t.Fatal("nil recorder must have no events") })
	if w, r := rec.Recorded(); w != 0 || r != 0 {
		t.Fatalf("nil recorder Recorded = %d,%d", w, r)
	}

	var reg *Registry
	reg.Register(Metric{Name: "x", Read: func() float64 { return 1 }})
	var c uint64
	reg.Counter("y", "h", &c)
	reg.Gauge("z", "h", func() float64 { return 0 })
	if reg.Len() != 0 {
		t.Fatal("nil registry must stay empty")
	}
	reg.Each(func(*Metric, float64) { t.Fatal("nil registry must not walk") })
}

func TestSeqOrderAcrossScopes(t *testing.T) {
	now := time.Duration(0)
	rec := NewRecorder(func() time.Duration { return now }, Config{ShardCapacity: 16})
	a := rec.Scope("a")
	b := rec.Scope("b")
	// Interleave writes across shards.
	for i := 0; i < 10; i++ {
		now = time.Duration(i) * time.Microsecond
		if i%2 == 0 {
			a.Record(Event{Kind: KindUpcall, V1: float64(i)})
		} else {
			b.Record(Event{Kind: KindDrop, V1: float64(i)})
		}
	}
	var seqs []uint64
	var order []float64
	rec.Events(func(e Event) {
		seqs = append(seqs, e.Seq)
		order = append(order, e.V1)
	})
	if len(seqs) != 10 {
		t.Fatalf("got %d events, want 10", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("seq[%d] = %d, want %d (merge must restore global order)", i, s, i)
		}
		if order[i] != float64(i) {
			t.Fatalf("payload[%d] = %v, want %d", i, order[i], i)
		}
	}
	if rec.Scope("a") != a {
		t.Fatal("Scope must be idempotent per name")
	}
}

func TestRingWrapKeepsTail(t *testing.T) {
	rec := NewRecorder(nil, Config{ShardCapacity: 4})
	s := rec.Scope("x")
	for i := 0; i < 10; i++ {
		s.Record(Event{V1: float64(i)})
	}
	written, retained := rec.Recorded()
	if written != 10 || retained != 4 {
		t.Fatalf("Recorded = %d,%d, want 10,4", written, retained)
	}
	var got []float64
	rec.Events(func(e Event) { got = append(got, e.V1) })
	want := []float64{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v (flight recorder keeps the newest tail)", got, want)
		}
	}
}

func TestHitSampling(t *testing.T) {
	rec := NewRecorder(nil, Config{ShardCapacity: 64, HitSampleEvery: 10})
	s := rec.Scope("x")
	for i := 0; i < 100; i++ {
		s.Hit(KindExactHit, 1, testFlow())
	}
	n := 0
	rec.Events(func(e Event) {
		n++
		if e.Kind != KindExactHit {
			t.Fatalf("kind = %v", e.Kind)
		}
		if e.V1 != 10 {
			t.Fatalf("sampled hit must carry period in V1, got %v", e.V1)
		}
	})
	if n != 10 {
		t.Fatalf("100 hits at 1-in-10 sampling recorded %d events, want 10", n)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if other, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", other, k, name)
		}
		seen[name] = k
	}
}

func TestRegistryAndSampler(t *testing.T) {
	reg := NewRegistry()
	var drops uint64
	reg.Counter("fastrak_vswitch_drops_total", "total drops", &drops, "server=1")
	depth := 3.0
	reg.Gauge("fastrak_vswitch_queue_depth", "upcall queue depth", func() float64 { return depth }, "server=1")
	// Duplicate registration replaces, not duplicates.
	reg.Counter("fastrak_vswitch_drops_total", "total drops", &drops, "server=1")
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}

	sam := NewSampler(reg, time.Millisecond)
	sam.Tick(0)
	drops = 5
	depth = 1
	sam.Tick(time.Millisecond)
	if sam.Samples() != 2 {
		t.Fatalf("Samples = %d, want 2", sam.Samples())
	}
	var names []string
	sam.EachSeries(func(sr *Series) {
		names = append(names, sr.Metric.Name)
		if len(sr.At) != 2 || len(sr.Value) != 2 {
			t.Fatalf("series %s has %d/%d points", sr.Metric.Name, len(sr.At), len(sr.Value))
		}
	})
	if len(names) != 2 || names[0] != "fastrak_vswitch_drops_total" || names[1] != "fastrak_vswitch_queue_depth" {
		t.Fatalf("series order %v not sorted", names)
	}
}

func TestPrometheusExport(t *testing.T) {
	reg := NewRegistry()
	var a, b uint64 = 5, 7
	reg.Counter("fastrak_tor_acl_drops_total", "ACL drops", &a, "rack=0")
	reg.Counter("fastrak_tor_acl_drops_total", "ACL drops", &b, "rack=1")
	reg.Gauge("fastrak_tor_tcam_occupancy", "TCAM entries", func() float64 { return 2.5 })

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP fastrak_tor_acl_drops_total ACL drops\n",
		"# TYPE fastrak_tor_acl_drops_total counter\n",
		"fastrak_tor_acl_drops_total{rack=\"0\"} 5\n",
		"fastrak_tor_acl_drops_total{rack=\"1\"} 7\n",
		"# TYPE fastrak_tor_tcam_occupancy gauge\n",
		"fastrak_tor_tcam_occupancy 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear once per metric name, not per series.
	if strings.Count(out, "# TYPE fastrak_tor_acl_drops_total") != 1 {
		t.Fatalf("TYPE header repeated:\n%s", out)
	}
}

func TestCSVExport(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	reg.Counter("fastrak_x_total", "x", &c, "server=0")
	sam := NewSampler(reg, time.Millisecond)
	sam.Tick(0)
	c = 9
	sam.Tick(2 * time.Millisecond)

	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, sam); err != nil {
		t.Fatal(err)
	}
	want := "metric,labels,type,at_us,value\n" +
		"fastrak_x_total,server=0,counter,0,0\n" +
		"fastrak_x_total,server=0,counter,2000,9\n"
	if buf.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	now := time.Duration(0)
	rec := NewRecorder(func() time.Duration { return now }, Config{ShardCapacity: 32})
	sw := rec.Scope("vswitch/0")
	ctl := rec.Scope("torctl/0")
	f := testFlow()

	now = 10 * time.Microsecond
	sw.Emit(KindUpcall, f.Tenant, f, "", 1, 0)
	now = 20 * time.Microsecond
	ctl.EmitPattern(KindOffloadDecision, f.Tenant, rules.ExactPattern(f), "", 123.5, 1)
	now = 30 * time.Microsecond
	ctl.Record(Event{Kind: KindMigrationStart, Cause: "7:10.1.0.1", V1: 0, V2: 1})
	now = 40 * time.Microsecond
	ctl.Record(Event{Kind: KindMigrationEnd, Cause: "7:10.1.0.1"})

	reg := NewRegistry()
	var c uint64 = 3
	reg.Counter("fastrak_x_total", "x", &c)
	sam := NewSampler(reg, time.Millisecond)
	sam.Tick(15 * time.Microsecond)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec, sam); err != nil {
		t.Fatal(err)
	}

	events, threads, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace must parse back: %v\n%s", err, buf.String())
	}
	if threads[1] != "vswitch/0" || threads[2] != "torctl/0" {
		t.Fatalf("thread map %v", threads)
	}

	var kinds []string
	var phases []string
	for _, te := range events {
		if te.Args == nil {
			continue
		}
		kinds = append(kinds, te.Args.Kind)
		phases = append(phases, te.Ph)
	}
	wantKinds := []string{"upcall", "offload-decision", "migration-start", "migration-end"}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("kinds %v, want %v", kinds, wantKinds)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("kinds %v, want %v (causal Seq order)", kinds, wantKinds)
		}
	}
	if phases[2] != "b" || phases[3] != "e" {
		t.Fatalf("migration phases %v, want async b/e span", phases)
	}

	// The upcall event must carry the structured flow.
	var up TraceEvent
	for _, te := range events {
		if te.Args != nil && te.Args.Kind == "upcall" {
			up = te
		}
	}
	if up.Args == nil {
		t.Fatal("upcall event missing")
	}
	if up.Args.Src != "10.1.0.1" || up.Args.Dst != "10.1.0.2" || up.Args.DPort != 80 || up.Args.Tenant != 7 {
		t.Fatalf("upcall args = %+v", up.Args)
	}
	if up.Ts != 10 {
		t.Fatalf("upcall ts = %v µs, want 10", up.Ts)
	}

	// Counter track present.
	foundCtr := false
	for _, te := range events {
		if te.Ph == "C" && te.Name == "fastrak_x_total" && te.CtrArgs["value"] == 3 {
			foundCtr = true
		}
	}
	if !foundCtr {
		t.Fatalf("missing counter track:\n%s", buf.String())
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() []byte {
		rec := NewRecorder(nil, Config{ShardCapacity: 8})
		s := rec.Scope("x")
		s.Emit(KindUpcall, 1, testFlow(), "", 0, 0)
		s.Drop(1, testFlow(), "shape")
		reg := NewRegistry()
		var c uint64 = 42
		reg.Counter("fastrak_a_total", "a", &c, "server=0")
		sam := NewSampler(reg, time.Millisecond)
		sam.Tick(0)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, rec, sam); err != nil {
			t.Fatal(err)
		}
		var pbuf bytes.Buffer
		if err := WritePrometheus(&pbuf, reg); err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), pbuf.Bytes()...)
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("exports must be byte-identical across identical runs")
	}
}

// TestDisabledPathAllocs is the telemetry-compiled-in-but-disabled alloc
// gate at the package level: nil-scope calls must not allocate.
func TestDisabledPathAllocs(t *testing.T) {
	var s *Scoped
	f := testFlow()
	if n := testing.AllocsPerRun(100, func() {
		s.Hit(KindExactHit, f.Tenant, f)
		s.Drop(f.Tenant, f, "shape")
		s.Emit(KindUpcall, f.Tenant, f, "", 0, 0)
	}); n != 0 {
		t.Fatalf("disabled telemetry path allocates %v/op, want 0", n)
	}
}

// TestEnabledPathAllocs: steady-state recording into a warm ring must not
// allocate either — events are value types copied into preallocated slots.
func TestEnabledPathAllocs(t *testing.T) {
	rec := NewRecorder(nil, Config{ShardCapacity: 64})
	s := rec.Scope("x")
	f := testFlow()
	if n := testing.AllocsPerRun(1000, func() {
		s.Emit(KindUpcall, f.Tenant, f, "", 1, 2)
	}); n != 0 {
		t.Fatalf("enabled telemetry ring write allocates %v/op, want 0", n)
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var s *Scoped
	f := testFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Emit(KindUpcall, f.Tenant, f, "", 0, 0)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	rec := NewRecorder(nil, Config{ShardCapacity: 4096})
	s := rec.Scope("x")
	f := testFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Emit(KindUpcall, f.Tenant, f, "", 1, 2)
	}
}

func BenchmarkHitSampled(b *testing.B) {
	rec := NewRecorder(nil, Config{ShardCapacity: 4096, HitSampleEvery: 1024})
	s := rec.Scope("x")
	f := testFlow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Hit(KindExactHit, f.Tenant, f)
	}
}

func BenchmarkSamplerTick(b *testing.B) {
	reg := NewRegistry()
	var c [64]uint64
	for i := range c {
		reg.Counter("fastrak_bench_total", "bench", &c[i], "server="+string(rune('a'+i%26)), "idx="+string(rune('A'+i%26)))
	}
	sam := NewSampler(reg, time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sam.Tick(time.Duration(i) * time.Millisecond)
	}
}
