// Command bench is the repository's benchmark: four closed-loop workloads
// that each build their inputs from a seed, run for a fixed time, check
// the program's outputs and report five end-to-end metrics; with -trace 1
// the same run is repeated with the benchmark's own spans around every
// call into a layer, and the per-layer metrics are reported instead.
// README.md describes the metrics, the workloads and the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runStats is what one timed section of a workload produced.
type runStats struct {
	ops, failed uint64
	wall        time.Duration // of the whole timed section
	lat         latencies
}

// opsPerS is completed ops over wall seconds; a failed op counts as missing.
func (s runStats) opsPerS() float64 { return float64(s.ops-s.failed) / s.wall.Seconds() }

// rig is one workload, set up and warm: run measures for d (with spans
// when tr is non-nil), check runs the untimed output checks, layers adds
// the rig's per-layer metrics after a traced run.
type rig interface {
	run(d time.Duration, tr *tracer) (runStats, error)
	check() (attempted, failed uint64, err error)
	layers(tr *tracer, work float64, out map[string]float64) error
	close()
}

type workload struct {
	name string
	// setup builds the rig from the seed and warms it; work scales the
	// fixed amount of warm-up work (1 = the full warm-up).
	setup func(seed int64, work float64) (rig, error)
	// traceSeconds is how long the workload runs when another workload's
	// traced run needs its per-layer metrics; traceFloor is the shortest
	// traced run that still yields every one of them (-quick).
	traceSeconds, traceFloor float64
}

var workloads = []workload{
	{"dp_steady", func(seed int64, work float64) (rig, error) { return setupDP(seed, false, work) }, 0.5, 0.02},
	{"dp_newflows", func(seed int64, work float64) (rig, error) { return setupDP(seed, true, work) }, 0.5, 0.02},
	{"ctl_cycle", func(seed int64, work float64) (rig, error) { return setupCtl(seed, work) }, 1, 0.1},
	{"svc_ingest", func(seed int64, work float64) (rig, error) { return setupSvc(seed, work) }, 2, 0.6},
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's outcome; its JSON form is the last line of
// output.
type result struct {
	workload          string
	correct           bool
	attempted, failed uint64
	samples           int
	metrics           []metric
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// work is the scale of every fixed amount of work in the run: 1, or 1/50
// with -quick.
func (o options) work() float64 {
	if o.quick {
		return 1.0 / 50
	}
	return 1
}

// setups is how many times the set-up is repeated for setup_s.
func (o options) setups() int {
	if o.quick {
		return 1
	}
	return 3
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	quick := flag.Bool("quick", false, "1/50 of the work (smoke test)")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for the span files")
	flag.Parse()

	// One load generator per core: the box has 2 cores, and every workload
	// uses at most 2 generator goroutines.
	procs := 2
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)

	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: *out}
	if opts.quick {
		opts.seconds /= 50
	}
	printEnv(os.Stdout, opts)

	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	for _, w := range selected {
		var res result
		var err error
		if opts.trace {
			res, err = runTraced(w, opts)
		} else {
			res, err = runEndToEnd(w, opts)
		}
		if err != nil {
			// A whole-run invariant failed: no number is reported.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
	}
}

// printEnv records the run environment; it is part of every output.
func printEnv(w io.Writer, o options) {
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, commit, o.seed, o.seconds, o.trace)
	fmt.Fprintln(w, "env: control traffic crosses the loopback interface, not a link; packets never leave the process")
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// liveHeapMB is HeapAlloc after a forced collection: the least of five
// readings 25 ms apart, because svc_ingest's daemon keeps ticking while it
// is measured and a tick in flight holds garbage that is not live state.
func liveHeapMB() float64 {
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(25 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = min(least, float64(ms.HeapAlloc)/(1<<20))
	}
	return least
}

// segments is how many back-to-back segments the timed section is cut
// into; every timing reported is the median over them.
func (o options) segments() int {
	if o.quick {
		return 2
	}
	return 10
}

// runEndToEnd measures the five end-to-end metrics with tracing off.
func runEndToEnd(w workload, o options) (result, error) {
	// Set-up is repeated and its median reported: one set-up of about a
	// second does not repeat within a tenth. The last rig is the one used.
	var r rig
	var setups []float64
	for i := 0; i < o.setups(); i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(o.seed, o.work()); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()

	// The timed section is cut into segments run back to back, and each
	// timing is the median of the segments' figures: the box slows down in
	// spells of seconds, and a spell that covers a fifth of a run moves the
	// whole run's p90 all the way but less than half of the segments.
	var whole runStats
	var rates, p50s, p90s []float64
	runtime.GC()
	for i := 0; i < o.segments(); i++ {
		st, err := r.run(seconds(o.seconds)/time.Duration(o.segments()), nil)
		if err != nil {
			return result{}, err
		}
		if len(st.lat) == 0 {
			return result{}, errors.New("no latency samples")
		}
		p50, p90 := st.lat.p50p90()
		rates, p50s, p90s = append(rates, st.opsPerS()), append(p50s, p50), append(p90s, p90)
		whole.ops += st.ops
		whole.failed += st.failed
		whole.wall += st.wall
		whole.lat = append(whole.lat, st.lat...)
	}
	samples := len(whole.lat)
	p50, p90 := whole.lat.p50p90()
	fmt.Printf("%s: over the whole timed section: %.6f ops/s, p50 %.3f us, p90 %.3f us\n", w.name, whole.opsPerS(), p50, p90)
	whole.lat = nil // the samples are the benchmark's, not the program's
	heap := liveHeapMB()
	attempted, failed, err := r.check()
	if err != nil {
		return result{}, err
	}
	res := result{
		workload:  w.name,
		attempted: whole.ops + attempted,
		failed:    whole.failed + failed,
		samples:   samples,
		metrics: []metric{
			{"setup_s", median(setups), "s"},
			{"ops_per_s", median(rates), "1/s"},
			{"lat_p50_us", median(p50s), "us"},
			{"lat_p90_us", median(p90s), "us"},
			{"live_heap_mb", heap, "MB"},
		},
	}
	res.correct = res.failed == 0
	return res, nil
}

// runTraced reports every per-layer metric. The selected workload runs
// for half the time untraced and half traced (the ratio is the tracing
// overhead); the other three run briefly, traced, because their layers'
// metrics are part of every traced output; then the layer probes run.
func runTraced(w workload, o options) (result, error) {
	out := make(map[string]float64)
	res := result{workload: w.name}
	for _, x := range workloads {
		r, err := x.setup(o.seed, o.work()/4)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", x.name, err)
		}
		d := seconds(max(x.traceSeconds*o.work(), x.traceFloor))
		var untraced float64
		if x.name == w.name {
			d = seconds(max(o.seconds/2, x.traceFloor))
			runtime.GC()
			st, err := r.run(d, nil)
			if err != nil {
				r.close()
				return result{}, err
			}
			res.attempted, res.failed = st.ops, st.failed
			untraced = st.opsPerS()
		}
		tr := newTracer(1 << 18)
		runtime.GC()
		st, err := r.run(d, tr)
		if err == nil {
			err = r.layers(tr, o.work(), out)
		}
		r.close()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", x.name, err)
		}
		if x.name == w.name {
			res.attempted += st.ops
			res.failed += st.failed
			res.samples = len(st.lat)
			out["trace.overhead_ratio"] = st.opsPerS() / untraced
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", x.name, o.seed))
		if err := writeChromeTrace(path, tr.spans); err != nil {
			return result{}, err
		}
		printSelfTimes(os.Stdout, x.name, tr.spans)
	}
	if err := probeLayers(o.seed, o.work(), out); err != nil {
		return result{}, err
	}
	if err := attribute(out); err != nil {
		return result{}, err
	}
	for _, m := range layerMetrics {
		v, ok := out[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.metrics = append(res.metrics, metric{m.name, v, m.unit})
		delete(out, m.name)
	}
	if len(out) != 0 {
		return result{}, fmt.Errorf("undeclared per-layer metrics measured: %v", out)
	}
	res.correct = res.failed == 0
	return res, nil
}

// attribute derives the part of a warm vector that the stage probes do
// not explain, and fails the run when the stages claim more than the
// whole: the decomposition must not rot silently.
func attribute(out map[string]float64) error {
	whole := out["vswitch.vector_hit_ns_per_pkt"]
	// Every packet pays key extraction and shaping; the share that leaves
	// through the tunnel also pays encap and marshal.
	stages := out["packet.key_extract_ns"] + out["ratelimit.reserve_ns"] +
		out["vswitch.encap_share"]*(out["tunnel.vxlan_encap_ns"]+out["packet.marshal_ns_64"])
	out["vswitch.unattributed_ns_per_pkt"] = whole - stages
	fmt.Printf("dp_steady: stages explain %.1f of %.1f ns/pkt (%.0f%%), %.0f%% is cache probes and glue\n",
		stages, whole, 100*stages/whole, 100*(whole-stages)/whole)
	if stages > 1.1*whole {
		return fmt.Errorf("stage probes sum to %.1f ns/pkt, more than 1.1x the whole vector's %.1f", stages, whole)
	}
	return nil
}

func printSelfTimes(w io.Writer, name string, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s: span %-22s self %10.3f ms\n", name, n, float64(self[n])/1e6)
	}
}

func (r result) print(w io.Writer) {
	fmt.Fprintf(w, "%s: ops attempted %d, failed %d, latency samples %d\n", r.workload, r.attempted, r.failed, r.samples)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jsonMetric)}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s: %-36s %16.6f %s\n", r.workload, m.name, m.value, m.unit)
		js.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(js)
	if err != nil {
		panic(err) // floats and strings only; NaN would be a benchmark bug
	}
	fmt.Fprintf(w, "%s\n", b)
}
