package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	fastrak "repro"
	"repro/internal/host"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/ratelimit"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/smartnic"
	"repro/internal/tor"
	"repro/internal/tunnel"
)

// layerMetrics declares every per-layer metric, in output order. A traced
// run fails unless it measured exactly these. README.md has the table of
// which end-to-end metric, on which workload, each one should move.
var layerMetrics = []struct{ name, unit string }{
	{"packet.key_extract_ns", "ns"},
	{"packet.marshal_ns_64", "ns"},
	{"packet.marshal_ns_1400", "ns"},
	{"ratelimit.reserve_ns", "ns"},
	{"tunnel.vxlan_encap_ns", "ns"},
	{"tunnel.vxlan_allocs_per_op", "count"},
	{"tunnel.gre_encap_decap_ns", "ns"},
	{"tunnel.gre_allocs_per_op", "count"},
	{"smartnic.lookup_hit_ns", "ns"},
	{"smartnic.lookup_hit_allocs", "count"},
	{"smartnic.lookup_miss_ns", "ns"},
	{"smartnic.install_remove_ns", "ns"},
	{"vswitch.vector_hit_ns_per_pkt", "ns"},
	{"vswitch.allocs_per_pkt_hit", "count"},
	{"vswitch.encap_share", "ratio"},
	{"vswitch.unattributed_ns_per_pkt", "ns"},
	{"vswitch.vector_miss_ns_per_pkt", "ns"},
	{"vswitch.allocs_per_pkt_miss", "count"},
	{"vswitch.exact_hit_ratio", "ratio"},
	{"vswitch.megaflow_hit_ratio", "ratio"},
	{"vswitch.table_walks_per_kpkt", "count"},
	{"vswitch.refill_us", "us"},
	{"vswitch.shards2_pps_ratio", "ratio"},
	{"rules.epoch_publish_us", "us"},
	{"rules.classify_ns_1k", "ns"},
	{"rules.classify_ns_10k", "ns"},
	{"rules.tcam_insert_us_2k", "us"},
	{"tor.install_acl_us", "us"},
	{"tor.stats_us_2k", "us"},
	{"telemetry.recorder_overhead_ratio", "ratio"},
	{"sketch.observe_ns", "ns"},
	{"sketch.merge4_us", "us"},
	{"openflow.report_encode_us", "us"},
	{"openflow.report_decode_us", "us"},
	{"openflow.flowmod_encode_ns", "ns"},
	{"openflow.rulesync_encode_us_2k", "us"},
	{"openflow.bytes_out_per_cycle", "B"},
	{"openflow.frames_out_per_cycle", "count"},
	{"decision.candidates_us", "us"},
	{"decision.smoother_us", "us"},
	{"decision.rank_full_us", "us"},
	{"decision.rank_incremental_us", "us"},
	{"decision.damper_us", "us"},
	{"decision.allocs_per_cycle", "count"},
	{"core.ingest_us_per_report", "us"},
	{"core.tick_us", "us"},
	{"core.confirm_us", "us"},
	{"core.publish_us", "us"},
	{"core.installs_per_cycle", "count"},
	{"core.removes_per_cycle", "count"},
	{"core.retries_per_cycle", "count"},
	{"core.cycle_allocs", "count"},
	{"service.echo_rtt_idle_us", "us"},
	{"service.rtt_p99_us", "us"},
	{"service.rtt_max_ms", "ms"},
	{"service.stall_share", "ratio"},
	{"service.engine_lead_max_ms", "ms"},
	{"service.engine_lead_share", "ratio"},
	{"service.flowsetup_ms_p50", "ms"},
	{"service.flowsetup_ms_p90", "ms"},
	{"service.admin_placements_ms", "ms"},
	{"service.bytes_out_per_s", "B/s"},
	{"adminapi.metrics_scrape_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.rack_s_per_virtual_s", "ratio"},
	{"sim.heap_mb", "MB"},
	{"switch.wall_ns_per_pkt", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// sink keeps the probes' results alive so the calls are not optimized
// away.
var sink uint64

// perOp times n calls of fn, five times over, and returns the median
// nanoseconds per call and allocations per call.
func perOp(n int, fn func(i int)) (ns, allocs float64) {
	if n < 1 {
		n = 1
	}
	var nss, as []float64
	for rep := 0; rep < 5; rep++ {
		m0 := mallocs()
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		as = append(as, float64(mallocs()-m0)/float64(n))
	}
	return median(nss), median(as)
}

// probeLayers times calls into the public functions of the layers that no
// workload isolates, on inputs generated from the seed. work scales the
// call counts.
func probeLayers(seed int64, work float64, out map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	n := func(full int) int { return int(float64(full) * work) }
	var failure error
	fail := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}

	// packet: flow-key extraction, and marshaling the VXLAN frame the
	// plane sends, for the smallest and a near-MTU payload.
	inner := func(payload int) *packet.Packet {
		p := packet.NewTCP(dpTenant, packet.MakeIP(10, 0, 0, 1), packet.MakeIP(10, 0, 9, 1), 40000, 11211, 0)
		p.Payload = make([]byte, payload)
		rng.Read(p.Payload)
		return p
	}
	small, large := inner(dpPayload), inner(1400)
	out["packet.key_extract_ns"], _ = perOp(n(1<<20), func(i int) {
		small.TCP.SrcPort = uint16(i)
		sink += uint64(small.Key().SrcPort)
	})
	buf := make([]byte, 0, 2048)
	for _, c := range []struct {
		name string
		in   *packet.Packet
	}{{"packet.marshal_ns_64", small}, {"packet.marshal_ns_1400", large}} {
		outer, err := tunnel.VXLANEncap(dpServerIP, dpPeerIP, dpTenant, c.in)
		if err != nil {
			return err
		}
		out[c.name], _ = perOp(n(500e3), func(int) {
			b, err := outer.AppendMarshalTruncated(buf[:0])
			fail(err)
			sink += uint64(len(b))
		})
		tunnel.Release(outer)
	}

	// ratelimit: the reservation the plane makes per shaped packet.
	tb := ratelimit.NewTokenBucket(100e9, 1e9)
	out["ratelimit.reserve_ns"], _ = perOp(n(2<<20), func(i int) {
		_, ok := tb.ReserveLimit(time.Duration(i)*time.Microsecond, 118, time.Millisecond)
		if !ok {
			sink++
		}
	})

	// tunnel: pooled VXLAN encap as the plane calls it, and the GRE round
	// trip of the hardware path.
	hash := small.Key().FastHash()
	out["tunnel.vxlan_encap_ns"], out["tunnel.vxlan_allocs_per_op"] = perOp(n(400e3), func(int) {
		outer, err := tunnel.VXLANEncapHashed(dpServerIP, dpPeerIP, dpTenant, small, hash)
		fail(err)
		tunnel.Release(outer)
	})
	out["tunnel.gre_encap_decap_ns"], out["tunnel.gre_allocs_per_op"] = perOp(n(100e3), func(int) {
		outer, err := tunnel.GREEncap(dpServerIP, dpPeerIP, dpTenant, small)
		fail(err)
		_, _, err = tunnel.GREDecap(outer)
		fail(err)
		tunnel.Release(outer)
	})

	// smartnic: match-action lookup on a 64-rule table, with admission and
	// jitter off so the lookup and forward scheduling are what is timed.
	eng := sim.NewEngine(seed)
	nic := smartnic.New(eng, smartnic.Config{Capacity: 64, LookupLatency: 2 * time.Microsecond})
	nic.SetForward(func(packet.TenantID, packet.IP, *packet.Packet) {})
	nicKeys := make([]packet.FlowKey, 64)
	for i := range nicKeys {
		nicKeys[i] = packet.FlowKey{Tenant: packet.TenantID(1 + i%8), Src: packet.MakeIP(10, 3, 0, byte(10+i)),
			Dst: packet.MakeIP(10, 3, 200, 1), SrcPort: uint16(40000 + i), DstPort: 9000, Proto: packet.ProtoTCP}
		fail(nic.Install(rules.AggregatePattern(nicKeys[i].EgressAggregate()), 0))
	}
	nicPkt := packet.FromKey(nicKeys[0], 600)
	out["smartnic.lookup_hit_ns"], out["smartnic.lookup_hit_allocs"] = perOp(n(100e3), func(i int) {
		if !nic.TryEgress(nicKeys[i%len(nicKeys)], nicPkt) {
			fail(fmt.Errorf("smartnic: unexpected miss"))
		}
		if i%1024 == 1023 {
			eng.Run() // drain the scheduled forwards: part of the datapath cost
		}
	})
	eng.Run()
	missKey := packet.FlowKey{Tenant: 9, Src: packet.MakeIP(10, 9, 0, 1), Dst: packet.MakeIP(10, 9, 0, 2),
		SrcPort: 40000, DstPort: 9000, Proto: packet.ProtoTCP}
	out["smartnic.lookup_miss_ns"], _ = perOp(n(400e3), func(int) {
		if nic.TryEgress(missKey, nicPkt) {
			fail(fmt.Errorf("smartnic: unexpected hit"))
		}
	})
	spare := smartnic.New(sim.NewEngine(seed), smartnic.Config{Capacity: 64})
	sparePat := rules.AggregatePattern(missKey.EgressAggregate())
	out["smartnic.install_remove_ns"], _ = perOp(n(40e3), func(int) {
		fail(spare.Install(sparePat, 0))
		spare.Remove(sparePat)
	})

	// rules: tuple-space classification of the workload's own rule shape
	// at 1k and 10k rules, and filling a 2k-entry TCAM.
	keys := make([]packet.FlowKey, 4096)
	for i := range keys {
		keys[i] = packet.FlowKey{Tenant: dpTenant, Src: packet.MakeIP(10, 0, 0, byte(1+i%8)), Dst: packet.MakeIP(10, 0, 9, 1),
			SrcPort: uint16(30000 + i), DstPort: uint16(dpPortBase + rng.Intn(dpPortSpan)), Proto: packet.ProtoTCP}
	}
	for _, c := range []struct {
		name string
		sets int
	}{{"rules.classify_ns_1k", 1}, {"rules.classify_ns_10k", 10}} {
		vm := &rules.VMRules{Tenant: dpTenant}
		for s := 0; s < c.sets; s++ {
			vm.Security = append(vm.Security, genRuleSet(rng, packet.MakeIP(10, 0, 0, 1)).Security...)
		}
		compiled := vm.Compile()
		out[c.name], _ = perOp(n(150e3), func(i int) {
			a, _ := compiled.EvaluateMask(keys[i%len(keys)])
			sink += uint64(a)
		})
	}
	g := newCtlGen(seed)
	pat := func(i int) rules.Pattern {
		p := g.patterns[i%ctlPatterns]
		p.DstPort = uint16(1 + i/ctlPatterns)
		return p
	}
	ns, _ := perOp(n(20)+1, func(int) {
		tc := rules.NewTCAM(2000)
		for j := 0; j < 2000; j++ {
			fail(tc.Insert(&rules.TCAMEntry{Pattern: pat(j), Priority: 100, Action: rules.Allow}))
		}
	})
	out["rules.tcam_insert_us_2k"] = ns / 1e3

	// tor: installing and removing one ACL in a ToR that holds 2k, and
	// the counter read the controller makes every tick.
	t := tor.New(sim.NewEngine(seed), packet.MakeIP(192, 168, 100, 1), 2001, time.Microsecond)
	for j := 0; j < 2000; j++ {
		fail(t.InstallACL(&rules.TCAMEntry{Pattern: pat(j), Priority: 100, Action: rules.Allow}))
	}
	ns, _ = perOp(n(1000), func(i int) {
		p := pat(2000 + i%64)
		fail(t.InstallACL(&rules.TCAMEntry{Pattern: p, Priority: 100, Action: rules.Allow}))
		if t.RemoveACL(p) != 1 {
			fail(fmt.Errorf("tor: ACL not removed"))
		}
	})
	out["tor.install_acl_us"] = ns / 1e3
	ns, _ = perOp(n(200)+1, func(int) { sink += uint64(len(t.Stats())) })
	out["tor.stats_us_2k"] = ns / 1e3

	// sketch: the per-packet accrual and the report-time merge (exact
	// accounting is the default, so no workload runs these).
	scfg := sketch.Config{TopK: 1024, Width: 2048, Depth: 4, Aggregate: true}
	shard := sketch.NewShard(scfg)
	for _, k := range keys[:512] {
		shard.Observe(k, 1, 1500)
	}
	out["sketch.observe_ns"], _ = perOp(n(50e3), func(i int) { shard.Observe(keys[i&511], 1, 1500) })
	acct := sketch.New(scfg, 4)
	for i, k := range keys {
		acct.Shard(i%4).Observe(k, 1, 1500)
	}
	ns, _ = perOp(n(10)+1, func(int) { sink += acct.Merged().Floor() })
	out["sketch.merge4_us"] = ns / 1e3

	// openflow: the codec on the frames the control plane is made of.
	chunk := g.reports(1)[0][0]
	for len(chunk.Entries) < 800 {
		chunk.Entries = append(chunk.Entries, chunk.Entries...)
	}
	chunk.Entries = chunk.Entries[:800]
	ns, _ = perOp(n(300)+1, func(int) { sink += uint64(len(openflow.Encode(&chunk, 1))) })
	out["openflow.report_encode_us"] = ns / 1e3
	frame := openflow.Encode(&chunk, 1)
	ns, _ = perOp(n(500)+1, func(int) {
		_, _, _, err := openflow.Decode(frame)
		fail(err)
	})
	out["openflow.report_decode_us"] = ns / 1e3
	mod := &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: pat(0), Priority: 100}
	out["openflow.flowmod_encode_ns"], _ = perOp(n(200e3), func(int) { sink += uint64(len(openflow.Encode(mod, 1))) })
	sync := &openflow.RuleSync{Seq: 1}
	for j := 0; j < 2000; j++ {
		sync.Patterns = append(sync.Patterns, pat(j))
	}
	ns, _ = perOp(n(300)+1, func(int) { sink += uint64(len(openflow.Encode(sync, 1))) })
	out["openflow.rulesync_encode_us_2k"] = ns / 1e3

	if failure != nil {
		return failure
	}
	return probeRack(seed, work, out)
}

// probeRack times a short seeded rack in the deterministic simulator: 6
// servers with SmartNICs, request/response pairs across them, offloads
// happening. It is the only measurement of the vswitch.Switch path that
// the simulator and both daemons forward through.
func probeRack(seed int64, work float64, out map[string]float64) error {
	// A 200 ms control interval, so that rules move within the first half
	// second of virtual time.
	d, err := fastrak.NewDeployment(fastrak.Options{Servers: 6, SmartNICCapacity: 16, Seed: seed,
		Controller: fastrak.ControllerOptions{Epoch: 100 * time.Millisecond}})
	if err != nil {
		return err
	}
	const pairs = 12
	for i := 0; i < pairs; i++ {
		cip := fmt.Sprintf("10.%d.0.1", 1+i)
		sip := fmt.Sprintf("10.%d.0.2", 1+i)
		tenant := uint32(1 + i%4)
		client, err := d.AddVM(i%6, tenant, cip, fastrak.VMOptions{})
		if err != nil {
			return err
		}
		server, err := d.AddVM((i+1+i/6)%6, tenant, sip, fastrak.VMOptions{})
		if err != nil {
			return err
		}
		server.BindApp(8080, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 8080, p.TCP.SrcPort, 600, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		// 2k to 13k requests per second: a spread of scores, so the TCAM
		// and the SmartNICs each take some.
		period := time.Duration(500/(1+i)) * time.Microsecond
		dst := server.Key.IP
		d.Cluster.Eng.Every(period, func() {
			client.Send(dst, 40000, 8080, 64, host.SendOptions{}, nil)
		})
	}
	d.Start()
	virtual := seconds(max(2*work, 0.5))
	events0 := d.Cluster.Eng.Processed()
	start := time.Now()
	d.Run(virtual)
	wall := time.Since(start)
	d.Stop()
	events := float64(d.Cluster.Eng.Processed() - events0)
	var pkts uint64
	for _, srv := range d.Cluster.Servers {
		c := srv.VSwitch.Counters()
		pkts += c.Tx + c.Rx
	}
	if len(d.Offloaded())+len(d.NICPlaced()) == 0 || pkts == 0 {
		return fmt.Errorf("rack probe: no offload happened (%d packets)", pkts)
	}
	out["sim.events_per_s"] = events / wall.Seconds()
	out["sim.ns_per_event"] = float64(wall.Nanoseconds()) / events
	out["sim.rack_s_per_virtual_s"] = wall.Seconds() / virtual.Seconds()
	out["switch.wall_ns_per_pkt"] = float64(wall.Nanoseconds()) / float64(pkts)
	out["sim.heap_mb"] = liveHeapMB()
	runtime.KeepAlive(d)
	return nil
}
