package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/openflow"
)

// Run with `go test` in this directory: the benchmark is a module of its
// own, so the root module's `go test ./...` does not reach it.

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	digests := func(seed int64) [3]string {
		pk, err := genDPInputs(seed).packetDigest()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		svc := openflow.Encode(svcReport(rng, 1, 7, 4), 1)
		return [3]string{pk, newCtlGen(seed).frameDigest(3), string(svc)}
	}
	a, again, b := digests(1), digests(1), digests(2)
	for i, what := range []string{"packets", "ctl_cycle report frames", "svc_ingest report frame"} {
		if a[i] != again[i] {
			t.Errorf("%s: the same seed gave different bytes", what)
		}
		if a[i] == b[i] {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", what)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50},
		{90, 46}, // rank 0.9*4 = 3.6: 40 + 0.6*(50-40)
		{25, 20},
		{10, 14}, // rank 0.4: 10 + 0.4*(20-10)
	} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an unsorted even set: got %v, want 4", got)
	}
	var l latencies
	l.add(1500)
	l.add(-5)
	l.add(math.MaxInt64)
	if us := l.sortedUS(); us[0] != 0 || us[1] != 1.5 || us[2] != float64(math.MaxUint32)/1e3 {
		t.Errorf("latencies clamp and convert: %v", us)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},    // overlaps a: [10,60) is covered once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // clipped to the parent: [90,100)
		{Name: "leaf", Start: 12, End: 20, Parent: 1}, // a child of a, not of root
		{Name: "open", Start: 50, Parent: 0},          // never ended: ignored
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 8, "b": 30, "c": 30, "leaf": 8}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("an unfinished span has a self time")
	}

	parent := &tracer{spans: []span{{Name: "x", Parent: -1}}}
	child := parent.child(2)
	r := child.begin("r", -1, 1)
	child.end(child.begin("k", r, 1))
	child.end(r)
	parent.adopt(child)
	if len(parent.spans) != 3 || parent.spans[1].Parent != -1 || parent.spans[2].Parent != 1 {
		t.Errorf("adopt did not rebase parents: %+v", parent.spans)
	}
	var off *tracer
	off.end(off.begin("nothing", -1, 0)) // tracing off must be callable
	off.adopt(child)
}

func names(ms []metric) map[string]int {
	out := make(map[string]int)
	for _, m := range ms {
		out[m.name]++
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			out[m.name] += 100
		}
	}
	return out
}

// TestQuickSmoke runs all four workloads at 1/50 of the work and asserts
// only that the checks pass and every declared metric is reported exactly
// once; then one traced run, for the per-layer names, which must also be
// the ones BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 0.1, quick: true, outDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runEndToEnd(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.attempted, res.failed)
		}
		got := names(res.metrics)
		for _, m := range spec.EndToEnd {
			if got[m.Name] != 1 {
				t.Errorf("%s: end-to-end metric %s reported %d times", w.name, m.Name, got[m.Name])
			}
		}
		if len(got) != len(spec.EndToEnd) {
			t.Errorf("%s: reported %v, declared %v", w.name, got, spec.EndToEnd)
		}
	}

	o.trace = true
	res, err := runTraced(workloads[0], o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Errorf("traced run failed %d ops", res.failed)
	}
	got := names(res.metrics)
	if len(spec.PerLayer) != len(layerMetrics) || len(got) != len(layerMetrics) {
		t.Errorf("per-layer metrics: BENCHMARK.json declares %d, the benchmark %d, the run reported %d",
			len(spec.PerLayer), len(layerMetrics), len(got))
	}
	for i, m := range spec.PerLayer {
		if got[m.Name] != 1 {
			t.Errorf("per-layer metric %s reported %d times", m.Name, got[m.Name])
		}
		if i < len(layerMetrics) && (layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(o.outDir + "/" + w.name + "-seed1.trace.json"); err != nil {
			t.Errorf("span file: %v", err)
		}
	}
}
