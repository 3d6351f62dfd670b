package vswitch

import (
	"runtime"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestFastPathAllocsWithTelemetryDisabled is the observability overhead
// gate the doc comment in telemetry.go promises: with the flight-recorder
// hooks compiled into the switch but no recorder attached (SetRecorder
// never called / called with nil), the warm per-packet classification
// path must stay exactly 0 allocs/op. It runs as a regular test — not an
// advisory benchmark — so a hook that builds an Event value outside its
// nil guard fails CI loudly.
func TestFastPathAllocsWithTelemetryDisabled(t *testing.T) {
	sw, _ := benchSwitch(1000)
	sw.SetRecorder(nil) // explicit: telemetry compiled in, detached
	dst := packet.MustParseIP("10.0.9.9")
	key := func(i int) packet.FlowKey {
		return packet.FlowKey{
			Tenant: 3, Src: vmA.IP, Dst: dst,
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1024 + i%40000),
			Proto:   packet.ProtoTCP,
		}
	}

	// Warm the wildcard cache: one slow-path evaluation's mask covers the
	// whole port space, and an exact entry covers key(0) precisely.
	src := sw.endpoint(3, vmA.IP)
	sw.core.miss(key(0), flowSlotHash(key(0)), src, nil)

	t.Run("megaflow-hit", func(t *testing.T) {
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			i++
			if sw.core.mega.lookup(key(i)) == nil {
				t.Fatal("megaflow miss on warmed region")
			}
		}); n != 0 {
			t.Fatalf("warm megaflow hit allocates %v/op with telemetry disabled, want 0", n)
		}
	})
	t.Run("exact-hit", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if e := sw.core.exact.lookup(key(0), flowSlotHash(key(0))); e == nil {
				t.Fatal("exact miss on installed key")
			}
		}); n != 0 {
			t.Fatalf("exact fast-path hit allocates %v/op with telemetry disabled, want 0", n)
		}
	})
	t.Run("slow-path-evaluate", func(t *testing.T) {
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			i++
			evaluate(key(i), src, nil)
		}); n != 0 {
			t.Fatalf("tuple-space evaluate allocates %v/op with telemetry disabled, want 0", n)
		}
	})
}

// TestVectorPipelineAllocs is the batched-path gate: a warm vector of 32
// packets through the sharded plane's full pipeline — flow-key
// extraction, exact/megaflow classification, VXLAN encap, wire
// serialization — must stay exactly 0 allocs per vector, with and
// without a flight recorder attached. The steady state reuses the
// injector's pooled vector and the shard's scratch arrays, flow table and
// wire buffer; anything that breaks that shows up here as a hard failure,
// not a benchmark regression.
func TestVectorPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; the pooled pipeline cannot be 0-alloc there")
	}
	build := func(withTelemetry bool) (*ShardedPlane, *PlaneInjector, []VMKey, []*packet.Packet) {
		eng := sim.NewEngine(1)
		pl := NewShardedPlane(PlaneConfig{Shards: 1, Tunneling: true, ServerIP: srvA, Now: eng.Now})
		pl.AttachVM(vmA, &rules.VMRules{Tenant: 3, VMIP: vmA.IP, Security: []rules.SecurityRule{
			{Pattern: rules.Pattern{Tenant: 3, Proto: packet.ProtoTCP}, Action: rules.Allow, Priority: 1},
		}})
		dst := packet.MustParseIP("10.0.9.9")
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: dst, Remote: srvB})
		if withTelemetry {
			rec := telemetry.NewRecorder(eng.Now, telemetry.Config{})
			pl.SetRecorder(rec.Scope("plane"))
		}
		inj := pl.NewInjector()
		keys := make([]VMKey, packet.DefaultVectorSize)
		pkts := make([]*packet.Packet, packet.DefaultVectorSize)
		for i := range pkts {
			keys[i] = vmA
			pkts[i] = packet.NewTCP(3, vmA.IP, dst, uint16(40000+i), 80, 256)
		}
		return pl, inj, keys, pkts
	}
	vector := func(inj *PlaneInjector, keys []VMKey, pkts []*packet.Packet) {
		for i := range pkts {
			inj.Egress(keys[i], pkts[i])
		}
		inj.Flush()
	}
	for _, tc := range []struct {
		name          string
		withTelemetry bool
	}{
		{"telemetry-detached", false},
		{"telemetry-attached", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, inj, keys, pkts := build(tc.withTelemetry)
			// Warm: installs exact entries and the megaflow, and sizes the
			// shard's wire buffer.
			vector(inj, keys, pkts)
			vector(inj, keys, pkts)
			before := pl.Counters()
			if n := testing.AllocsPerRun(100, func() { vector(inj, keys, pkts) }); n != 0 {
				t.Fatalf("warm 32-packet vector allocates %v/op (%s), want 0", n, tc.name)
			}
			c := pl.Counters()
			if got := c.Packets - before.Packets; got == 0 || c.Tx != c.Packets {
				t.Fatalf("gate did no work: before %+v after %+v", before, c)
			}

			// A vector of 32 new 5-tuples the megaflow covers installs 32
			// exact entries and must allocate nothing either: an entry is a
			// slot of the flow table, not a heap object. Warm past the
			// table's last doubling first, so growth is not what is counted.
			port := 0
			newFlows := func() {
				for _, p := range pkts {
					p.TCP.SrcPort = uint16(port) // stays below the warm vector's 40000+
					port++
				}
				vector(inj, keys, pkts)
			}
			for port < ExactTableSlots/2+len(pkts) {
				newFlows()
			}
			before = pl.Counters()
			if n := testing.AllocsPerRun(100, newFlows); n != 0 {
				t.Fatalf("32-packet vector of new flows allocates %v/op (%s), want 0", n, tc.name)
			}
			c = pl.Counters()
			if hits := c.Megaflow.Hits - before.Megaflow.Hits; hits != c.Packets-before.Packets || hits < 3200 || c.Tx != c.Packets {
				t.Fatalf("new-flow gate: %d megaflow hits over %d packets", hits, c.Packets-before.Packets)
			}
		})
	}
}

// TestMissVectorAllocs is the gate beside it for the path a new connection
// takes: once two epochs have sized the tables and made the shaping buckets,
// a later epoch — table walks, megaflow installs, megaflow hits that install
// exact entries, exact hits — allocates nothing. A flush keeps every
// table's arrays; a cache that rebuilt itself per epoch shows here. The
// count is over the whole epoch, not testing.AllocsPerRun's per-vector
// average, which rounds a map's few growth steps down to zero.
func TestMissVectorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; the pooled pipeline cannot be 0-alloc there")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pl, keys, pkts := newflowsPlane(4096)
	defer pl.Close()
	inj := pl.NewInjector()
	epoch := func() {
		for i, p := range pkts {
			inj.Egress(keys[i], p)
		}
		inj.Flush()
	}
	for range 2 { // the second sees the first's buckets kept across a publish
		epoch()
		pl.Invalidate(rules.Pattern{Tenant: 3})
	}
	before := pl.Counters()
	// Mallocs counts the whole process, so a stray allocation by a goroutine
	// an earlier test left behind shows too; the plane's own would show in
	// every epoch, so the least of five is taken.
	const epochs = 5
	least := ^uint64(0)
	var m0, m1 runtime.MemStats
	for range epochs {
		runtime.ReadMemStats(&m0)
		epoch()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
		pl.Invalidate(rules.Pattern{Tenant: 3})
	}
	if least != 0 {
		t.Fatalf("a later epoch's %d packets allocate %d times, want 0", len(pkts), least)
	}
	c := pl.Counters()
	// Three megaflow hits per walk, and one more for each flow the exact
	// table evicted between its two sightings.
	walks, hits := c.Megaflow.Misses-before.Megaflow.Misses, c.Megaflow.Hits-before.Megaflow.Hits
	evicted := c.ExactEvictions - before.ExactEvictions
	if c.EpochFlushes != before.EpochFlushes+epochs || walks != epochs*4096/4 || hits < 3*walks || hits > 3*walks+evicted {
		t.Fatalf("gate did not run the miss path: %d flushes, %d walks, %d megaflow hits, %d evictions",
			c.EpochFlushes-before.EpochFlushes, walks, hits, evicted)
	}
}
