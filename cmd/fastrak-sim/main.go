// Command fastrak-sim runs a configurable FasTrak deployment and reports
// what the rule manager does: a rack of servers, a set of tenant VM pairs
// with request/response services at different rates, and periodic status
// lines showing which flows won the express lane.
//
// Usage:
//
//	fastrak-sim [-servers 4] [-tenants 3] [-flows 6] [-tcam 16]
//	            [-duration 5s] [-epoch 250ms] [-seed 1]
//	            [-faults <plan>|random] [-fault-seed 1]
//
// The -faults flag injects failures while the workload runs: either a
// plan spec in the internal/faults DSL, e.g.
//
//	-faults 'linkflap:uplink1@1s+500ms,period=100ms; tcamreject:tor0@2s+1s'
//
// or the literal "random" for a seeded random plan over every registered
// fault surface (links, control channels, TCAMs, TOR controllers).
// -fault-seed drives the injector's randomness independently of -seed.
//
// The -trace flag enables the flight recorder and metric sampler;
// -trace-out, -metrics-out and -csv-out write a Perfetto-loadable Chrome
// trace, a Prometheus text snapshot and sampled time series respectively
// (each implies -trace). -migrate live-migrates the hottest service's
// server VM halfway through the run, so the trace shows the §4.1.2
// pull-back / re-offload episode end to end; inspect it with
// cmd/fastrak-trace.
//
// The -overload flag instead runs the canned slow-path overload scenario
// (experiments.RunOverload): a storming tenant floods the upcall path
// beside a well-behaved victim while the stats channel degrades, and the
// run reports isolation, drop accounting and convergence.
//
// -smartnic N equips every server with an N-entry SmartNIC rule table,
// turning placement into the three-rung ladder software → SmartNIC →
// TCAM; status lines then also show the NIC-tier rule count, and the
// random fault plan draws NIC reset/corruption faults too. -tiered runs
// the canned ladder scenario (experiments.RunTiered) instead: a
// latecomer flow graduates through the tiers while displaced incumbents
// demote, with full drop accounting.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/packet"
)

func main() {
	servers := flag.Int("servers", 4, "physical servers in the rack")
	racks := flag.Int("racks", 1, "racks (each with servers/racks machines and its own TOR controller)")
	tenants := flag.Int("tenants", 3, "number of tenants")
	flows := flag.Int("flows", 6, "services per tenant (each gets a client/server VM pair)")
	tcam := flag.Int("tcam", 16, "ToR hardware rule capacity")
	duration := flag.Duration("duration", 5*time.Second, "virtual time to simulate")
	epoch := flag.Duration("epoch", 250*time.Millisecond, "measurement epoch T")
	seed := flag.Int64("seed", 1, "simulation seed")
	faultSpec := flag.String("faults", "", "fault plan DSL, or \"random\" for a seeded random plan")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault injector's randomness")
	smartnic := flag.Int("smartnic", 0, "per-server SmartNIC rule-table capacity; >0 enables the NIC offload tier between the vswitch and the TCAM")
	overload := flag.Bool("overload", false, "run the canned slow-path overload scenario instead of the rack workload")
	tiered := flag.Bool("tiered", false, "run the canned three-tier placement-ladder scenario (experiments.RunTiered) instead of the rack workload")
	failover := flag.Bool("failover", false, "run the canned control-plane failover scenario (experiments.RunFailover): hot-standby TOR controllers under partitions, crashes and pauses")
	shards := flag.Int("shards", 0, "run the wall-clock throughput mode instead of the sim: drive the sharded batch data plane with this many shard workers (1 = inline deterministic configuration)")
	sketchMode := flag.Bool("sketch", false, "measure flow demand with the streaming count-min + space-saving accountant instead of walking exact per-flow counters (an accounting mode only: the decision engine is unchanged); with -flows >= 10000 this switches to the standalone accounting scale benchmark (no rack sim)")
	sketchK := flag.Int("sketch-topk", 0, "heavy-hitter set size per server in -sketch mode (0 = default 1024)")
	replicas := flag.Int("replicas", 0, "TOR controller replicas per rack (>1 adds hot standbys and leader election; every rack is epoch-fenced)")
	leaseTTL := flag.Duration("lease-ttl", 0, "hardware rule lease TTL (>0 enables lease-based fail-safe expiry back to the software path)")
	trace := flag.Bool("trace", false, "enable the flight recorder and metric sampler")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file (implies -trace; default results/fastrak-trace.json when -trace is set)")
	metricsOut := flag.String("metrics-out", "", "write final metrics in Prometheus text format to this file (implies -trace)")
	csvOut := flag.String("csv-out", "", "write sampled time series as CSV to this file (implies -trace)")
	migrate := flag.Bool("migrate", false, "live-migrate the hottest service's client VM halfway through the run (exercises the §4.1.2 pull-back/re-offload protocol; defaults to true when tracing so a recorded trace always contains a migration episode — pass -migrate=false to suppress)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastrak-sim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fastrak-sim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fastrak-sim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fastrak-sim: -memprofile: %v\n", err)
			}
		}()
	}

	// sketchScaleFloor separates the two -sketch shapes: below it, -flows
	// keeps its services-per-tenant meaning and the rack sim just runs
	// with sketch accounting; at or above it, the flow count is a scale
	// target no per-flow table should carry, and the standalone
	// accounting benchmark runs instead.
	const sketchScaleFloor = 10_000
	if *sketchMode && *flows >= sketchScaleFloor {
		runSketchScale(*flows, *seed)
		return
	}
	if *shards > 0 {
		runThroughput(*shards, *duration, *seed)
		return
	}
	if *overload {
		runOverload(*seed, *faultSeed, *duration)
		return
	}
	if *tiered {
		runTiered(*seed, *duration)
		return
	}
	if *failover {
		runFailover(*seed, *faultSeed, *duration)
		return
	}

	opts := fastrak.Options{
		Servers:          *servers,
		TCAMCapacity:     *tcam,
		Seed:             *seed,
		SmartNICCapacity: *smartnic,
		SketchAccounting: *sketchMode,
		SketchTopK:       *sketchK,
		Controller:       fastrak.ControllerOptions{Epoch: *epoch, Replicas: *replicas, LeaseTTL: *leaseTTL},
	}
	if *racks > 1 {
		opts.Racks = *racks
		opts.ServersPerRack = (*servers + *racks - 1) / *racks
	}
	d, err := fastrak.NewDeployment(opts)
	if err != nil {
		panic(err)
	}

	// Observability: the flight recorder and sampler attach before any
	// traffic flows so the trace covers the whole episode.
	wantTrace := *trace || *traceOut != "" || *metricsOut != "" || *csvOut != ""
	var tel *fastrak.Telemetry
	if wantTrace {
		tel = d.EnableTelemetry(fastrak.TelemetryOptions{})
		if *traceOut == "" {
			*traceOut = "results/fastrak-trace.json"
		}
		// A trace without a migration episode misses the protocol the
		// recorder exists to explain; trace runs migrate unless the
		// user explicitly said -migrate=false.
		migrateSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "migrate" {
				migrateSet = true
			}
		})
		if !migrateSet {
			*migrate = true
		}
	}

	// Fault injection: register every surface, then apply the plan.
	var inj *faults.Injector
	if *faultSpec != "" {
		inj = faults.NewInjector(d.Cluster.Eng, *faultSeed)
		d.Cluster.RegisterFaults(inj)
		d.Manager.RegisterFaults(inj)
		var plan faults.Plan
		if *faultSpec == "random" {
			links, channels, tables, controllers := inj.Targets()
			plan = faults.RandomPlan(*faultSeed, *duration*3/4, faults.TargetSet{
				Links: links, Channels: channels, Tables: tables, Controllers: controllers,
				NICs:       inj.NICTargets(),
				Partitions: inj.PartitionTargets(),
				Pausables:  inj.PausableTargets(),
			})
		} else {
			plan, err = faults.ParsePlan(*faultSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fastrak-sim: bad -faults plan: %v\n", err)
				os.Exit(2)
			}
		}
		if err := inj.Apply(plan); err != nil {
			fmt.Fprintf(os.Stderr, "fastrak-sim: -faults plan: %v\n", err)
			os.Exit(2)
		}
	}

	// Each tenant gets `flows` services; service i of tenant t runs at
	// a rate that grows with i, so the DE has a clear ranking to find.
	type svc struct {
		tenant uint32
		client *host.VM
		rate   time.Duration
		dst    packet.IP
		port   uint16
	}
	var svcs []svc
	for t := 0; t < *tenants; t++ {
		tenant := uint32(10 + t)
		for i := 0; i < *flows; i++ {
			cIP := fmt.Sprintf("10.%d.0.%d", t, 10+2*i)
			sIP := fmt.Sprintf("10.%d.0.%d", t, 11+2*i)
			client, err := d.AddVM((2*i)%*servers, tenant, cIP, fastrak.VMOptions{VCPUs: 2})
			if err != nil {
				panic(err)
			}
			server, err := d.AddVM((2*i+1)%*servers, tenant, sIP, fastrak.VMOptions{VCPUs: 2})
			if err != nil {
				panic(err)
			}
			port := uint16(9000 + i)
			server.BindApp(port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
				vm.Send(p.IP.Src, port, p.TCP.SrcPort, 600, host.SendOptions{Seq: p.Meta.Seq}, nil)
			}))
			// Rates: 100/s for service 0 up to ~100*3^i.
			period := 10 * time.Millisecond / time.Duration(1<<uint(i))
			svcs = append(svcs, svc{tenant: tenant, client: client, rate: period, dst: server.Key.IP, port: port})
		}
	}
	for _, s := range svcs {
		s := s
		d.Cluster.Eng.Every(s.rate, func() {
			s.client.Send(s.dst, 40000, s.port, 64, host.SendOptions{}, nil)
		})
	}

	// Live migration: move the hottest service's server VM (the last
	// service of the first tenant — highest rate, so its flow is
	// offloaded) to the next server halfway through the run. The rule
	// manager pulls its express lane back first (§4.1.2), which is the
	// episode the flight recorder is built to explain.
	if *migrate {
		hot := svcs[*flows-1]
		from := (2*(*flows-1) + 1) % *servers
		to := (from + 1) % *servers
		ip := hot.dst.String()
		d.Cluster.Eng.After(*duration/2, func() {
			if err := d.MigrateVM(from, to, hot.tenant, ip); err != nil {
				fmt.Fprintf(os.Stderr, "fastrak-sim: migrate: %v\n", err)
				return
			}
			fmt.Printf("t=%-8v migrated tenant %d VM %s: server %d -> %d\n",
				d.Now().Round(time.Millisecond), hot.tenant, ip, from, to)
		})
	}

	d.Start()
	steps := 10
	for i := 0; i < steps; i++ {
		d.Run(*duration / time.Duration(steps))
		used, capacity := d.HardwareRules()
		if *smartnic > 0 {
			fmt.Printf("t=%-8v hw-rules=%d/%d offloaded=%d nic=%d\n",
				d.Now().Round(time.Millisecond), used, capacity, len(d.Offloaded()), len(d.NICPlaced()))
		} else {
			fmt.Printf("t=%-8v hw-rules=%d/%d offloaded=%d\n",
				d.Now().Round(time.Millisecond), used, capacity, len(d.Offloaded()))
		}
	}
	d.Stop()

	fmt.Println("\nfinal express-lane set (highest-pps services win the TCAM):")
	for _, p := range d.Offloaded() {
		fmt.Println("  ", p)
	}
	if *smartnic > 0 {
		fmt.Println("\nSmartNIC tier (next band down the ladder):")
		for _, p := range d.NICPlaced() {
			fmt.Println("  ", p)
		}
		var nic metrics.NICCounters
		for _, srv := range d.Cluster.Servers {
			if srv.SmartNIC != nil {
				nic = nic.Add(srv.SmartNIC.Counters())
			}
		}
		fmt.Printf("SmartNIC datapath: %v\n", nic)
	}
	msgs, bytes, samples := d.Manager.ControlStats()
	fmt.Printf("\ncontrol plane: %d messages, %d bytes, %d datapath samples\n", msgs, bytes, samples)

	// Slow-path health: unified drop accounting and overload-detector
	// activity summed over every server's vswitch.
	var drops metrics.DropCounters
	var upcalls, served, entered, recovered uint64
	for _, srv := range d.Cluster.Servers {
		tel := srv.VSwitch.Counters()
		drops = drops.Add(tel.Drops)
		upcalls += tel.Upcalls
		served += tel.UpcallsServed
		e, r := srv.VSwitch.OverloadEvents()
		entered += e
		recovered += r
	}
	fmt.Printf("slow path: %d upcalls, %d served, drops %v, overload entered=%d recovered=%d\n",
		upcalls, served, drops, entered, recovered)

	if inj != nil {
		fmt.Println("\nfault log:")
		for _, line := range inj.Log() {
			fmt.Println("  ", line)
		}
		var retries, giveups, repairs, orphans, crashes uint64
		for _, tc := range d.Manager.TORCtls {
			retries += tc.Retries
			giveups += tc.GiveUps
			repairs += tc.Repairs
			orphans += tc.Orphans
			crashes += tc.Crashes
		}
		var dropped uint64
		for _, tr := range d.Manager.Transports() {
			dropped += tr.Dropped
		}
		fmt.Printf("recovery: %d install retries, %d give-ups, %d reconcile repairs, %d orphan removals, %d controller crashes, %d control messages dropped\n",
			retries, giveups, repairs, orphans, crashes, dropped)
	}

	if tel != nil {
		written, retained := tel.Recorder.Recorded()
		fmt.Printf("\ntelemetry: %d events recorded (%d retained), %d metrics, %d samples\n",
			written, retained, tel.Registry.Len(), tel.Sampler.Samples())
		write := func(what, path string, fn func(string) error) {
			if path == "" {
				return
			}
			if err := fn(path); err != nil {
				fmt.Fprintf(os.Stderr, "fastrak-sim: write %s: %v\n", what, err)
				os.Exit(1)
			}
			fmt.Printf("  %s -> %s\n", what, path)
		}
		write("trace", *traceOut, tel.WriteTrace)
		write("metrics", *metricsOut, tel.WriteMetrics)
		write("csv", *csvOut, tel.WriteCSV)
	}
}

// runOverload drives the canned slow-path overload scenario and prints
// its invariants and event log.
func runOverload(seed, faultSeed int64, duration time.Duration) {
	res, err := experiments.RunOverload(experiments.OverloadConfig{
		Seed: seed, FaultSeed: faultSeed, Horizon: duration,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastrak-sim: overload scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("event log:")
	for _, line := range res.Log {
		fmt.Println("  ", line)
	}
	fmt.Println("\nper-tenant slow-path accounting (storming server):")
	for _, tu := range res.PerTenant {
		fmt.Printf("  tenant %-3d arrived=%-7d served=%-7d qdrop=%-6d clamp=%-6d residual=%d\n",
			tu.Tenant, tu.Arrived, tu.Served, tu.QueueDrops, tu.ClampDrops, tu.Residual)
	}
	fmt.Printf("\nvictim: served fraction %.3f, clamp drops %d\n", res.VictimServedFraction, res.VictimClampDrops)
	fmt.Printf("overload detector: entered %d, recovered %d; hints sent %d, received %d\n",
		res.OverloadsEntered, res.OverloadsRecovered, res.HintsSent, res.HintsReceived)
	fmt.Printf("stats path: %d reports lost, %d delayed, %d interval gaps seen at the TOR\n",
		res.ReportsLost, res.ReportsDelayed, res.StatsGaps)
	fmt.Printf("decisions: installs %d→%d, demotes %d→%d, flaps %d→%d (settle→horizon), %d suppressed\n",
		res.InstallsAtSettle, res.InstallsEnd, res.DemotesAtSettle, res.DemotesEnd,
		res.FlapsAtSettle, res.FlapsEnd, res.Suppressions)
	fmt.Printf("storm offloaded mid-storm: %v; converged after faults cleared: %v\n",
		res.StormOffloaded, res.Converged())
}

// runTiered drives the canned three-tier placement-ladder scenario and
// prints the observed graduations, demotions and conservation figures.
func runTiered(seed int64, duration time.Duration) {
	res, err := experiments.RunTiered(experiments.TieredConfig{Seed: seed, Horizon: duration})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastrak-sim: tiered scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("event log:")
	for _, line := range res.Log {
		fmt.Println("  ", line)
	}
	fmt.Println("\ntiers when the latecomer appeared:")
	for _, l := range res.TiersAtSettle {
		fmt.Println("  ", l)
	}
	fmt.Println("tiers at the horizon:")
	for _, l := range res.TiersEnd {
		fmt.Println("  ", l)
	}
	fmt.Println("\ngraduated nic->tcam:")
	for _, s := range res.Graduated {
		fmt.Println("  ", s)
	}
	fmt.Println("demoted under pressure:")
	for _, s := range res.DemotedUnderPressure {
		fmt.Println("  ", s)
	}
	fmt.Printf("\nSmartNIC datapath: %v\n", res.NIC)
	fmt.Printf("placements: nic +%d -%d (reasserts %d, orphan sweeps %d), tcam +%d -%d\n",
		res.NICPlacements, res.NICDemotes, res.NICReasserts, res.NICOrphans,
		res.Installs, res.Demotes)
	fmt.Printf("conservation: sent=%d delivered=%d queue=%d shape=%d rate=%d blackholed=%d unaccounted=%d\n",
		res.Sent, res.Delivered, res.LinkQueueDrops, res.ShapeDrops, res.RateDrops,
		res.BlackholeDrops, res.Unaccounted)
	fmt.Printf("ladder demonstrated: %v\n", res.Passed())
}

// runFailover drives the canned control-plane HA scenario — hot-standby
// TOR controllers walked through partitions, crashes and pauses — and
// prints the leadership, fencing, lease and reconvergence figures.
func runFailover(seed, faultSeed int64, duration time.Duration) {
	res, err := experiments.RunFailover(experiments.FailoverConfig{
		Seed: seed, FaultSeed: faultSeed, Horizon: duration,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastrak-sim: failover scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("fault log:")
	for _, line := range res.FaultLog {
		fmt.Println("  ", line)
	}
	fmt.Printf("\nleadership: %d elections, %d step-downs; final leader replica %d (term %d), %d acting at the end\n",
		res.Elections, res.StepDowns, res.LeaderReplica, res.FinalTerm, res.Leaders)
	fmt.Printf("fencing: %d stale-term installs rejected by switches, %d stale-term errors returned to deposed leaders, %d stale syncs dropped by locals; term conflicts: %d\n",
		res.FencedInstalls, res.FencedOut, res.FencedSyncs, res.TermConflicts)
	fmt.Printf("leases: %d refreshes, %d TCAM expiries, %d placer expiries, %d degraded demotes; every hardware rule leased at the end: %v\n",
		res.LeaseRefreshes, res.TCAMLeaseExpiries, res.PlacerExpiries, res.DegradedDemotes, res.LeaseConserved)
	fmt.Printf("recovery: %d crashes, %d pauses survived\n", res.Crashes, res.Pauses)
	fmt.Printf("reconvergence: hardware matches desired: %v; matches never-faulted twin: %v\n",
		res.HardwareMatchesDesired, res.MatchesBaseline)
	fmt.Printf("rate cap: peak %.2f Mbps against a %.2f Mbps cap, %d violations\n",
		res.PeakCappedBps/1e6, res.CapLimitBps/1e6, res.CapViolations)
	fmt.Printf("conservation: sent=%d delivered=%d queue=%d down=%d loss=%d shape=%d upcall=%d clamp=%d rate=%d blackholed=%d unaccounted=%d\n",
		res.Sent, res.Delivered, res.LinkQueueDrops, res.LinkDownDrops, res.LinkLossDrops,
		res.ShapeDrops, res.UpcallQueueDrops, res.ClampDrops, res.RateDrops,
		res.BlackholeDrops, res.Unaccounted)
	ok := res.Leaders == 1 && res.TermConflicts == 0 && res.BlackholeDrops == 0 &&
		res.HardwareMatchesDesired && res.MatchesBaseline && res.LeaseConserved
	fmt.Printf("failover invariants held: %v\n", ok)
}
