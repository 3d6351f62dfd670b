package workload

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
)

func rig(t *testing.T) (*cluster.Cluster, *host.VM, *host.VM) {
	t.Helper()
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 11})
	a, err := c.AddVM(0, 3, packet.MustParseIP("10.0.0.1"), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddVM(1, 3, packet.MustParseIP("10.0.0.2"), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b
}

func TestStreamDeliversWindowedTraffic(t *testing.T) {
	c, a, b := rig(t)
	s := &Stream{Client: a, Server: b, Port: 5001, Size: 1448, Threads: 3}
	s.Start(c.Eng)
	c.Eng.RunUntil(200 * time.Millisecond)
	s.Stop()
	if s.Messages == 0 {
		t.Fatal("no messages delivered")
	}
	gbps := float64(s.Received) * 8 / 0.2 / 1e9
	if gbps < 0.1 {
		t.Errorf("throughput %.3f Gbps implausibly low", gbps)
	}
	if gbps > 10 {
		t.Errorf("throughput %.3f Gbps exceeds line rate", gbps)
	}
}

func TestStreamThroughputScalesWithSize(t *testing.T) {
	// Fig. 3(a) shape: larger app data sizes achieve higher throughput.
	measure := func(size int) float64 {
		c, a, b := rig(t)
		s := &Stream{Client: a, Server: b, Port: 5001, Size: size, Threads: 3}
		s.Start(c.Eng)
		c.Eng.RunUntil(100 * time.Millisecond)
		s.Stop()
		return float64(s.Received) * 8 / 0.1
	}
	small := measure(64)
	large := measure(32000)
	if large <= 2*small {
		t.Errorf("32000B throughput %.2e not well above 64B %.2e", large, small)
	}
}

func TestRRClosedLoop(t *testing.T) {
	c, a, b := rig(t)
	r := &RR{Client: a, Server: b, Port: 5002, Size: 64, Threads: 1, Burst: 1}
	r.Start(c.Eng)
	c.Eng.RunUntil(100 * time.Millisecond)
	r.Stop()
	if r.Transactions == 0 {
		t.Fatal("no transactions")
	}
	if r.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	// Closed loop: exactly one in flight; RTT × TPS ≈ 1.
	rtt := r.Latency.Mean().Seconds()
	tps := r.TPS(100 * time.Millisecond)
	littles := rtt * tps
	if littles < 0.75 || littles > 1.1 {
		t.Errorf("Little's law violated for closed loop: RTT×TPS = %.2f", littles)
	}
}

func TestRRBurstIncreasesTPSAndLatency(t *testing.T) {
	// Fig. 3(d)/(e): pipelining raises TPS and queueing raises latency.
	run := func(burst int) (float64, time.Duration) {
		c, a, b := rig(t)
		r := &RR{Client: a, Server: b, Port: 5002, Size: 600, Threads: 3, Burst: burst}
		r.Start(c.Eng)
		c.Eng.RunUntil(200 * time.Millisecond)
		r.Stop()
		return r.TPS(200 * time.Millisecond), r.Latency.Mean()
	}
	tps1, lat1 := run(1)
	tps32, lat32 := run(32)
	if tps32 <= tps1 {
		t.Errorf("burst TPS %.0f not above closed-loop %.0f", tps32, tps1)
	}
	if lat32 <= lat1 {
		t.Errorf("burst latency %v not above closed-loop %v", lat32, lat1)
	}
}

func TestMemcachedMemslapFinishes(t *testing.T) {
	c, a, b := rig(t)
	mc := &Memcached{VM: b, ValueSize: 600}
	mc.Start()
	ms := &Memslap{Client: a, Servers: []packet.IP{b.Key.IP}, Concurrency: 4, TotalRequests: 500}
	ms.Start(c.Eng)
	c.Eng.RunUntil(10 * time.Second)
	if ms.FinishedAt == 0 {
		t.Fatal("memslap did not finish")
	}
	if ms.Completed != 500 {
		t.Errorf("completed %d", ms.Completed)
	}
	if mc.Served != 500 {
		t.Errorf("served %d", mc.Served)
	}
	if ms.Latency.Count() == 0 || ms.Latency.Mean() <= 0 {
		t.Error("no latency recorded")
	}
}

func TestMemslapSpreadsAcrossServers(t *testing.T) {
	c, a, _ := rig(t)
	b1, _ := c.AddVM(1, 3, packet.MustParseIP("10.0.0.3"), 4, nil)
	b2, _ := c.AddVM(1, 3, packet.MustParseIP("10.0.0.4"), 4, nil)
	m1 := &Memcached{VM: b1}
	m2 := &Memcached{VM: b2}
	m1.Start()
	m2.Start()
	ms := &Memslap{Client: a, Servers: []packet.IP{b1.Key.IP, b2.Key.IP}, Concurrency: 4, TotalRequests: 400}
	ms.Start(c.Eng)
	c.Eng.RunUntil(10 * time.Second)
	if ms.FinishedAt == 0 {
		t.Fatal("did not finish")
	}
	if m1.Served == 0 || m2.Served == 0 {
		t.Errorf("unbalanced: %d/%d", m1.Served, m2.Served)
	}
	ratio := float64(m1.Served) / float64(m2.Served)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("round-robin skewed: %d vs %d", m1.Served, m2.Served)
	}
}

func TestFileTransferPacedByDisk(t *testing.T) {
	c, a, b := rig(t)
	f := &FileTransfer{Sender: a, Receiver: b, Port: 22, DiskBps: 10e6, TotalBytes: 125_000} // 0.1s at 10 Mbps
	f.Start(c.Eng)
	c.Eng.RunUntil(5 * time.Second)
	if f.FinishedAt == 0 {
		t.Fatal("transfer did not finish")
	}
	// 1 Mb at 10 Mbps = 100 ms, plus small stack delays.
	if f.FinishedAt < 90*time.Millisecond || f.FinishedAt > 300*time.Millisecond {
		t.Errorf("finish at %v, want ~100ms (disk paced)", f.FinishedAt)
	}
	// scp's pps signature is low (§6.2.1: ~135 pps for a real disk).
	if pps := f.Rate(); pps > 1000 {
		t.Errorf("pps %f implausibly high for disk-bound transfer", pps)
	}
}

func TestIOZoneFractionalLoad(t *testing.T) {
	c, a, _ := rig(t)
	z := &IOZone{VM: a, Utilization: 0.4}
	z.Start(c.Eng)
	c.Eng.RunUntil(100 * time.Millisecond)
	used := a.CPU.Account.LogicalCPUs(100 * time.Millisecond)
	if used < 0.3 || used > 0.5 {
		t.Errorf("iozone used %.2f CPUs, want ~0.4", used)
	}
}

func TestShuffleCompletes(t *testing.T) {
	c, _, _ := rig(t)
	// 2 mappers on server 0, 2 reducers on server 1.
	var mappers, reducers []*host.VM
	for i := 0; i < 2; i++ {
		m, err := c.AddVM(0, 3, packet.MakeIP(10, 3, 0, byte(10+i)), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.AddVM(1, 3, packet.MakeIP(10, 3, 0, byte(20+i)), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		mappers = append(mappers, m)
		reducers = append(reducers, r)
	}
	sh := &Shuffle{
		Mappers: mappers, Reducers: reducers,
		PartitionBytes: 200_000, DiskBps: 400e6,
	}
	sh.Start(c.Eng)
	c.Eng.RunUntil(10 * time.Second)
	if sh.FinishedAt == 0 {
		t.Fatalf("shuffle incomplete: delivered %d", sh.Delivered)
	}
	// All 2×2 partitions delivered in full.
	want := uint64(4 * 200_000)
	if sh.Delivered < want {
		t.Errorf("delivered %d < %d", sh.Delivered, want)
	}
	// Disk-paced: 2 mappers × 400 Mbps reading 400 KB each ≈ 8 ms floor.
	if sh.FinishedAt < 8*time.Millisecond {
		t.Errorf("finished at %v, faster than the disk allows", sh.FinishedAt)
	}
}

// lossyPort drops every Nth packet before forwarding.
type lossyPort struct {
	next fabric.Port
	n    int
	seen int
}

func (l *lossyPort) Input(p *packet.Packet) {
	l.seen++
	if l.seen%l.n == 0 {
		return
	}
	l.next.Input(p)
}

func TestStreamRecoversFromLoss(t *testing.T) {
	c, a, b := rig(t)
	// Drop every 10th frame on b's access link.
	if err := c.TapServer(1, func(next fabric.Port) fabric.Port {
		return &lossyPort{next: next, n: 10}
	}); err != nil {
		t.Fatal(err)
	}
	s := &Stream{Client: a, Server: b, Port: 5001, Size: 1448, Threads: 2,
		RetryTimeout: 5 * time.Millisecond}
	s.Start(c.Eng)
	c.Eng.RunUntil(200 * time.Millisecond)
	s.Stop()
	if s.Retransmits == 0 {
		t.Error("loss did not trigger retransmission")
	}
	if s.Messages < 1000 {
		t.Errorf("only %d messages delivered under 10%% loss", s.Messages)
	}
	// Dedup: received bytes equal distinct messages × size exactly.
	if s.Received != uint64(s.Messages)*1448 {
		t.Errorf("duplicate counting: %d bytes for %d messages", s.Received, s.Messages)
	}
}

func TestRRRecoversFromLoss(t *testing.T) {
	c, a, b := rig(t)
	if err := c.TapServer(1, func(next fabric.Port) fabric.Port {
		return &lossyPort{next: next, n: 7}
	}); err != nil {
		t.Fatal(err)
	}
	r := &RR{Client: a, Server: b, Port: 5002, Size: 600, Threads: 2, Burst: 8,
		RetryTimeout: 5 * time.Millisecond}
	r.Start(c.Eng)
	c.Eng.RunUntil(200 * time.Millisecond)
	r.Stop()
	if r.Retransmits == 0 {
		t.Error("loss did not trigger retransmission")
	}
	if r.Transactions < 1000 {
		t.Errorf("only %d transactions under loss", r.Transactions)
	}
}
