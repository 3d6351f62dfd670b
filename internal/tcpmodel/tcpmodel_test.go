package tcpmodel

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

func rig(t *testing.T) (*cluster.Cluster, *host.VM, *host.VM) {
	t.Helper()
	c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 5})
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

func TestBulkTransferCompletes(t *testing.T) {
	c, a, b := rig(t)
	const total = 2_000_000
	conn := New(c.Eng, a, b, 45000, 5201, total)
	conn.Start()
	c.Eng.RunUntil(30 * time.Second)
	if !conn.done {
		t.Fatalf("transfer incomplete: %d/%d", conn.sndUna, total)
	}
	if conn.Stats.Timeouts != 0 {
		t.Errorf("clean path incurred %d timeouts", conn.Stats.Timeouts)
	}
	if conn.Stats.BytesAcked != total {
		t.Errorf("acked %d", conn.Stats.BytesAcked)
	}
}

func TestCwndGrowth(t *testing.T) {
	c, a, b := rig(t)
	conn := New(c.Eng, a, b, 45000, 5201, 500_000)
	conn.Start()
	c.Eng.RunUntil(30 * time.Second)
	if !conn.done {
		t.Fatal("incomplete")
	}
	if conn.cwnd <= 2 {
		t.Errorf("cwnd did not grow: %.1f", conn.cwnd)
	}
}

// migrate installs the placer rule + ToR ACL redirecting the connection's
// data direction to the VF, and opens the old-path loss window — the §6.2
// shift.
func migrate(c *cluster.Cluster, conn *Conn, a *host.VM, lossWindow time.Duration) {
	agg := rules.AggregatePattern(packet.FlowKey{
		Src: a.Key.IP, Dst: conn.rcvr.Key.IP,
		SrcPort: conn.srcPort, DstPort: conn.dstPort,
		Proto: packet.ProtoTCP, Tenant: 3,
	}.IngressAggregate())
	a.Placer.HandleMessage(&openflow.FlowMod{
		Command: openflow.FlowAdd, Pattern: agg, Out: openflow.PathVF, Priority: 10,
	}, 1, nil)
	_ = c.TOR.InstallACL(&rules.TCAMEntry{Pattern: agg, Action: rules.Allow, Priority: 5})
	conn.DropOldPathUntil = c.Eng.Now() + lossWindow
}

func TestMigrationRecoversWithFastRetransmit(t *testing.T) {
	// Fig. 12: offload an iperf-like flow 1 s in; TCP sees loss and
	// reordering, recovers via fast retransmit with no timeouts, and
	// the connection progresses.
	c, a, b := rig(t)
	const total = 50_000_000
	const shiftAt = 50 * time.Millisecond
	conn := New(c.Eng, a, b, 45000, 5201, total)
	conn.Start()
	c.Eng.At(shiftAt, func() {
		migrate(c, conn, a, 2*time.Millisecond)
	})
	c.Eng.RunUntil(60 * time.Second)
	if !conn.done {
		t.Fatalf("transfer incomplete after migration: %d/%d", conn.sndUna, total)
	}
	if conn.Stats.FastRetransmits == 0 {
		t.Error("migration loss did not trigger fast retransmit")
	}
	if conn.Stats.Timeouts != 0 {
		t.Errorf("migration caused %d timeouts; paper observes none", conn.Stats.Timeouts)
	}
	// Post-migration data flows on the VF path.
	vfData := false
	for _, tp := range conn.Trace {
		if tp.Kind == TraceData && tp.At > shiftAt+10*time.Millisecond {
			vfData = true
			break
		}
	}
	if !vfData {
		t.Error("no data progressed after the shift")
	}
}

func TestTraceMonotoneProgress(t *testing.T) {
	c, a, b := rig(t)
	conn := New(c.Eng, a, b, 45000, 5201, 3_000_000)
	conn.Start()
	c.Eng.At(500*time.Millisecond, func() { migrate(c, conn, a, 2*time.Millisecond) })
	c.Eng.RunUntil(60 * time.Second)
	if !conn.done {
		t.Fatal("incomplete")
	}
	// Receiver-side in-order data trace must be non-decreasing in seq.
	var prev uint32
	for _, tp := range conn.Trace {
		if tp.Kind != TraceData {
			continue
		}
		if tp.Seq < prev {
			t.Fatalf("in-order trace regressed: %d after %d", tp.Seq, prev)
		}
		prev = tp.Seq
	}
}

func TestTimeoutPathRecovers(t *testing.T) {
	// A long total-loss window (all in-flight drops, nothing to dup-ack)
	// must eventually recover via RTO rather than hang.
	c, a, b := rig(t)
	conn := New(c.Eng, a, b, 45000, 5201, 5_000_000)
	conn.Start()
	// Drop everything on the (only) VIF path for 300 ms > RTO, early
	// enough that the transfer is still in flight.
	c.Eng.At(time.Millisecond, func() {
		conn.DropOldPathUntil = c.Eng.Now() + 300*time.Millisecond
	})
	c.Eng.RunUntil(120 * time.Second)
	if !conn.done {
		t.Fatalf("connection hung: %d acked", conn.sndUna)
	}
	if conn.Stats.Timeouts == 0 {
		t.Error("expected RTO recovery under total loss")
	}
}
