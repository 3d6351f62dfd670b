package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// dpRig is the shared rig of dp_steady and dp_newflows: an inline
// one-shard vswitch.ShardedPlane with 8 VMs of ~1k rules each, 4 VXLAN
// peers and VIF limits that never drop.
type dpRig struct {
	in       *dpInputs
	pl       *vswitch.ShardedPlane
	inj      *vswitch.PlaneInjector
	newflows bool
	// mutations counts control-plane mutations issued so far; its value
	// mod 3 picks the next one.
	mutations int
	// before and after are the plane's counters around the last run;
	// burstUS is a traced run's median burst latency.
	before, after vswitch.PlaneCounters
	burstUS       float64
}

const vec = packet.DefaultVectorSize

// burst is the number of consecutive vectors one latency sample covers.
// The box interrupts about one vector in ten for some 4 us when it is
// busy and almost none when it is quiet, which puts the p90 of single
// 8 us vectors on the edge of that shoulder; over four vectors the same
// interruptions move the p90 by a tenth, not by a third.
const burst = 4

// Warm-up sizes, part of setup_s: about a second of forwarding each on the
// seed commit (a new flow costs about twice a known one).
const (
	steadyWarmPackets   = 9 << 19
	newflowsWarmPackets = 5 << 19
)

func newDPPlane(in *dpInputs, cfg vswitch.PlaneConfig) *vswitch.ShardedPlane {
	cfg.Tunneling, cfg.ServerIP = true, dpServerIP
	pl := vswitch.NewShardedPlane(cfg)
	for i, key := range in.vms {
		pl.AttachVM(key, in.rules[i])
		pl.SetVIFLimit(key, 100e9)
	}
	for _, ip := range in.remotes {
		pl.SetTunnel(rules.TunnelMapping{Tenant: dpTenant, VMIP: ip, Remote: dpPeerIP})
	}
	return pl
}

func setupDP(seed int64, newflows bool, work float64) (*dpRig, error) {
	in := genDPInputs(seed)
	r := &dpRig{in: in, newflows: newflows}
	r.pl = newDPPlane(in, vswitch.PlaneConfig{Shards: 1})
	r.inj = r.pl.NewInjector()
	if newflows {
		for sent := 0; sent < int(newflowsWarmPackets*work); sent += epochPackets {
			r.mutate()
			r.replay(in.epoch, in.epochKeys)
		}
	} else {
		for sent := 0; sent < int(steadyWarmPackets*work); sent += steadyFlows {
			r.replay(in.steady, in.steadyKeys)
		}
	}
	return r, r.conserved()
}

func (r *dpRig) replay(pkts []*packet.Packet, keys []vswitch.VMKey) {
	for i, p := range pkts {
		r.inj.Egress(keys[i], p)
	}
	r.inj.Flush()
}

// mutate issues the next control-plane mutation in rotation. Each one
// publishes a rule epoch, which makes the shard flush its caches at the
// next vector.
func (r *dpRig) mutate() {
	key := r.in.vms[r.mutations%dpVMs]
	switch r.mutations % 3 {
	case 0:
		r.pl.SetVIFLimit(key, 100e9+float64(r.mutations))
	case 1:
		r.pl.Invalidate(rules.Pattern{Tenant: dpTenant})
	case 2:
		r.pl.AttachVM(key, r.in.rules[r.mutations%dpVMs])
	}
	r.mutations++
}

// run replays the workload's packet sequence, whole passes at a time,
// until d has elapsed. One latency sample per burst of four 32-packet
// vectors: from the first Egress to the return of the Flush that processes
// the last (the clock is read once per burst; a burst starts where the one
// before ended).
func (r *dpRig) run(d time.Duration, tr *tracer) (runStats, error) {
	pkts, keys := r.in.steady, r.in.steadyKeys
	if r.newflows {
		pkts, keys = r.in.epoch, r.in.epochKeys
	}
	var st runStats
	// Room for 400k vectors/s, so the timed section never grows the slice.
	st.lat = make(latencies, 0, (int(d.Seconds()*400e3)+len(pkts)/vec)/burst)
	var vectors uint64
	r.before = r.pl.Counters()
	start := time.Now()
	last := time.Duration(0)
	for last < d {
		if r.newflows {
			m := tr.begin("plane.mutate", -1, uint64(r.mutations))
			r.mutate()
			tr.end(m)
			last = time.Since(start) // the mutation is not part of a vector
		}
		for base := 0; base < len(pkts); base += vec {
			// Trace one vector in 16: a span per vector would be millions.
			if tr != nil && vectors%16 == 0 {
				root := tr.begin("dp.vector", -1, vectors)
				fill := tr.begin("inj.fill", root, vectors)
				for i := base; i < base+vec-1; i++ {
					r.inj.Egress(keys[i], pkts[i])
				}
				tr.end(fill)
				proc := tr.begin("plane.process", root, vectors)
				r.inj.Egress(keys[base+vec-1], pkts[base+vec-1])
				r.inj.Flush()
				tr.end(proc)
				tr.end(root)
			} else {
				for i := base; i < base+vec; i++ {
					r.inj.Egress(keys[i], pkts[i])
				}
				r.inj.Flush()
			}
			vectors++
			if vectors%burst == 0 {
				now := time.Since(start)
				st.lat.add(now - last)
				last = now
			}
		}
	}
	st.wall = time.Since(start)
	st.ops = vectors * vec
	r.after = r.pl.Counters()
	if tr != nil {
		r.burstUS, _ = st.lat.p50p90()
	}
	return st, r.conserved()
}

// conserved is the whole-run invariant: every packet the plane took is in
// exactly one of Tx, Denied, Unrouted or a drop counter.
func (r *dpRig) conserved() error {
	c := r.pl.Counters()
	if c.Packets == 0 || c.Tx+c.Denied+c.Unrouted+c.Drops.Total() != c.Packets {
		return fmt.Errorf("packet conservation violated: %+v", c)
	}
	return nil
}

// check runs the untimed output checks. For dp_newflows it pushes the
// 4096 verify packets through a second plane built from the same inputs
// with OnVerdict set, and compares every verdict with
// rules.VMRules.Evaluate/QueueFor on the same key.
func (r *dpRig) check() (attempted, failed uint64, err error) {
	if err := r.conserved(); err != nil {
		return 0, 0, err
	}
	if !r.newflows {
		return 0, 0, nil
	}
	type verdict struct {
		allow bool
		queue int
	}
	byIP := make(map[packet.IP]*rules.VMRules)
	for i, key := range r.in.vms {
		byIP[key.IP] = r.in.rules[i]
	}
	want := func(k packet.FlowKey) verdict {
		v := verdict{allow: true}
		for _, ip := range [2]packet.IP{k.Src, k.Dst} {
			vm := byIP[ip]
			if vm == nil || len(vm.Security) == 0 {
				continue
			}
			if vm.Evaluate(k) != rules.Allow {
				return verdict{}
			}
			if q := vm.QueueFor(k); q > v.queue {
				v.queue = q
			}
		}
		return v
	}
	const n = verifyPackets
	got := make([]verdict, 0, n)
	gotKeys := make([]packet.FlowKey, 0, n)
	pl := newDPPlane(r.in, vswitch.PlaneConfig{Shards: 1,
		OnVerdict: func(_ int, k packet.FlowKey, allow bool, queue int) {
			gotKeys = append(gotKeys, k)
			got = append(got, verdict{allow, queue})
		}})
	inj := pl.NewInjector()
	for i, p := range r.in.verify {
		inj.Egress(r.in.verifyKeys[i], p)
	}
	inj.Flush()
	pl.Close()
	if len(got) != n {
		return n, n, nil
	}
	for i, k := range gotKeys {
		if got[i] != want(k) {
			failed++
		}
	}
	return n, failed, nil
}

func (r *dpRig) close() { r.pl.Close() }

// steadyPPS replays the steady flow set for n packets and returns packets
// per second.
func (r *dpRig) steadyPPS(n int) float64 {
	start := time.Now()
	for sent := 0; sent < n; sent += steadyFlows {
		r.replay(r.in.steady, r.in.steadyKeys)
	}
	return float64(n) / time.Since(start).Seconds()
}

// layers measures the rig's per-layer metrics after a traced run; work
// scales the fixed packet counts of the side measurements.
func (r *dpRig) layers(tr *tracer, work float64, out map[string]float64) error {
	spans, before, after := tr.spans, r.before, r.after
	pkts := after.Packets - before.Packets
	n := int(float64(1<<19) * work)
	if n < 4*steadyFlows {
		n = 4 * steadyFlows
	}
	if !r.newflows {
		// The share of packets that is allowed and leaves through the
		// tunnel, so pays encap and marshal.
		local := after.LocalTx - before.LocalTx
		out["vswitch.encap_share"] = float64(after.Tx-before.Tx-local) / float64(pkts)
		out["vswitch.vector_hit_ns_per_pkt"] = r.burstUS * 1e3 / (burst * vec)
		m0 := mallocs()
		inline := r.steadyPPS(n)
		out["vswitch.allocs_per_pkt_hit"] = float64(mallocs()-m0) / float64(n)

		// The same replay with a flight recorder attached to the plane.
		rec := telemetry.NewRecorder(func() time.Duration { return 0 }, telemetry.Config{})
		r.pl.SetRecorder(rec.Scope("plane"))
		recorded := r.steadyPPS(n)
		r.pl.SetRecorder(nil)
		out["telemetry.recorder_overhead_ratio"] = inline / recorded

		// Worker mode: 2 shards, one producer goroutine per shard, each
		// replaying half the flows. On a 2-core box four goroutines share
		// two cores, so this is not a scaling measurement.
		out["vswitch.shards2_pps_ratio"] = r.shards2PPS(n) / inline
		return nil
	}

	hits := after.Megaflow.Hits - before.Megaflow.Hits
	walks := after.Megaflow.Misses - before.Megaflow.Misses
	out["vswitch.exact_hit_ratio"] = float64(pkts-hits-walks) / float64(pkts)
	out["vswitch.megaflow_hit_ratio"] = float64(hits) / float64(hits+walks)
	out["vswitch.table_walks_per_kpkt"] = float64(walks) / float64(pkts) * 1e3
	out["rules.epoch_publish_us"] = median(durationsUS(spans, "plane.mutate"))

	// Pure-miss vectors: after a full epoch (so the caches to flush are as
	// large as they get) publish, then send vectors of new 5-tuples only.
	// The first pays the flush; the rest are warm miss vectors.
	const half = vec / 2
	var first, warm, allocs []float64
	for rep := 0; rep < 5; rep++ {
		r.replay(r.in.epoch, r.in.epochKeys)
		r.mutate()
		var durs []float64
		m0 := mallocs()
		for v := 0; v < 64; v++ {
			start := time.Now()
			for h := 0; h < 2; h++ { // two 16-packet groups of new tuples
				base := (2*v + h) * vec
				for i := base; i < base+half; i++ {
					r.inj.Egress(r.in.epochKeys[i], r.in.epoch[i])
				}
			}
			r.inj.Flush()
			durs = append(durs, float64(time.Since(start).Nanoseconds()))
		}
		allocs = append(allocs, float64(mallocs()-m0)/(64*vec))
		first = append(first, durs[0])
		warm = append(warm, median(durs[1:]))
	}
	out["vswitch.vector_miss_ns_per_pkt"] = median(warm) / vec
	out["vswitch.allocs_per_pkt_miss"] = median(allocs)
	out["vswitch.refill_us"] = (median(first) - median(warm)) / 1e3
	return r.conserved()
}

func (r *dpRig) shards2PPS(n int) float64 {
	pl := newDPPlane(r.in, vswitch.PlaneConfig{Shards: 2})
	defer pl.Close()
	const producers = 2
	per := steadyFlows / producers
	injs := make([]*vswitch.PlaneInjector, producers)
	pass := func(pr int) {
		lo := pr * per
		for i := lo; i < lo+per; i++ {
			injs[pr].Egress(r.in.steadyKeys[i], r.in.steady[i])
		}
		injs[pr].Flush()
		pl.Barrier() // the packet buffers are about to be reused
	}
	for pr := range injs {
		injs[pr] = pl.NewInjector()
		pass(pr)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for sent := 0; sent < n/producers; sent += per {
				pass(pr)
			}
		}(pr)
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds()
}
