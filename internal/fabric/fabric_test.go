package fabric

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/qos"
	"repro/internal/sim"
)

func pkt(size int) *packet.Packet {
	return packet.NewTCP(1, 1, 2, 10, 20, size)
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine(1)
	var arrived []time.Duration
	dst := PortFunc(func(p *packet.Packet) { arrived = append(arrived, eng.Now()) })
	// 1 Gbps, 1µs propagation. A packet with WireLen w takes w*8ns + 1µs.
	l := NewLink(eng, 1e9, time.Microsecond, nil, dst)
	p := pkt(946) // WireLen = 946 + 54 = 1000 → 8µs serialization
	l.Send(0, p)
	eng.Run()
	if len(arrived) != 1 {
		t.Fatal("packet not delivered")
	}
	want := 8*time.Microsecond + time.Microsecond
	if arrived[0] != want {
		t.Errorf("arrival at %v, want %v", arrived[0], want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng := sim.NewEngine(1)
	var arrived []time.Duration
	dst := PortFunc(func(p *packet.Packet) { arrived = append(arrived, eng.Now()) })
	l := NewLink(eng, 1e9, 0, nil, dst)
	for i := 0; i < 3; i++ {
		l.Send(0, pkt(946)) // 8µs each
	}
	eng.Run()
	if len(arrived) != 3 {
		t.Fatalf("delivered %d", len(arrived))
	}
	for i, want := range []time.Duration{8 * time.Microsecond, 16 * time.Microsecond, 24 * time.Microsecond} {
		if arrived[i] != want {
			t.Errorf("packet %d at %v, want %v", i, arrived[i], want)
		}
	}
}

func TestLinkThroughputAtLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	dst := PortFunc(func(p *packet.Packet) { delivered++ })
	l := NewLink(eng, 10e9, 0, NewFIFO(100000), dst)
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(0, pkt(1446)) // WireLen 1500 → 1.2µs at 10G
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	elapsed := eng.Now()
	gbps := float64(n*1500*8) / elapsed.Seconds() / 1e9
	if gbps < 9.9 || gbps > 10.1 {
		t.Errorf("throughput %.2f Gbps, want 10", gbps)
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	l := NewLink(eng, 1e6, 0, NewFIFO(5), PortFunc(func(*packet.Packet) { delivered++ }))
	for i := 0; i < 100; i++ {
		l.Send(0, pkt(1000))
	}
	eng.Run()
	_, _, drops := l.Stats()
	if drops == 0 {
		t.Error("no drops despite overflow")
	}
	if delivered+int(drops) != 100 {
		t.Errorf("delivered %d + drops %d != 100", delivered, drops)
	}
}

func TestLinkWithQoSScheduler(t *testing.T) {
	eng := sim.NewEngine(1)
	var order []uint64
	dst := PortFunc(func(p *packet.Packet) { order = append(order, p.Meta.Seq) })
	sched := qos.NewScheduler(qos.DefaultConfig()) // queue 7 strict
	l := NewLink(eng, 1e9, 0, sched, dst)
	low := pkt(1000)
	low.Meta.Seq = 1
	hi := pkt(1000)
	hi.Meta.Seq = 2
	low2 := pkt(1000)
	low2.Meta.Seq = 3
	l.Send(0, low) // starts transmitting immediately
	l.Send(0, low2)
	l.Send(7, hi)
	eng.Run()
	// low is already on the wire; hi must preempt low2 in the queue.
	want := []uint64{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRouter(t *testing.T) {
	var gotA, gotB int
	r := NewRouter()
	r.AddRoute(packet.MustParseIP("192.168.1.10"), PortFunc(func(*packet.Packet) { gotA++ }))
	r.AddRoute(packet.MustParseIP("192.168.1.11"), PortFunc(func(*packet.Packet) { gotB++ }))
	r.PortFor(packet.MustParseIP("192.168.1.10")).Input(pkt(100))
	r.PortFor(packet.MustParseIP("192.168.1.11")).Input(pkt(100))
	if gotA != 1 || gotB != 1 {
		t.Errorf("routing wrong: A=%d B=%d", gotA, gotB)
	}
	unroutable := packet.MustParseIP("10.99.99.99")
	if r.PortFor(unroutable) != nil {
		t.Error("unroutable destination has a port")
	}
	// Default route catches the unroutable.
	var def int
	r.DefaultPort = PortFunc(func(*packet.Packet) { def++ })
	r.PortFor(unroutable).Input(pkt(100))
	if def != 1 {
		t.Error("default port not used")
	}
}

// TestLinkDownHoldsQueueAndCountsInflight pins the SetDown contract:
// queued packets are held (not dropped) while the wire is down, packets
// mid-propagation are lost and counted in FaultDrops, and restoring the
// link resumes the pump.
func TestLinkDownHoldsQueueAndCountsInflight(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	dst := PortFunc(func(*packet.Packet) { delivered++ })
	// 1 Gbps, 10µs propagation: WireLen 1000 → 8µs serialization.
	l := NewLink(eng, 1e9, 10*time.Microsecond, nil, dst)
	l.Send(0, pkt(946))
	l.Send(0, pkt(946))
	l.Send(0, pkt(946))
	// Fail the wire at 12µs: packet 0 is propagating (8–18µs) and packet
	// 1 is mid-serialization (8–16µs) — both are on the wire and lost;
	// packet 2 is still queued and held.
	eng.At(12*time.Microsecond, func() { l.SetDown(true) })
	eng.RunUntil(200 * time.Microsecond)
	if delivered != 0 {
		t.Fatalf("delivered %d while down, want 0", delivered)
	}
	down, loss := l.FaultDrops()
	if down != 2 || loss != 0 {
		t.Fatalf("FaultDrops = (%d,%d), want (2,0): exactly the on-wire packets", down, loss)
	}
	if l.QueueLen() == 0 {
		t.Fatal("queue must hold packets while the link is down")
	}
	// Restore: the held packet drains.
	l.SetDown(false)
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered %d after recovery, want 1", delivered)
	}
}

// TestLinkLossAccounting pins probabilistic loss: every dropped packet is
// counted, conservation holds, and clearing the fault stops the loss.
func TestLinkLossAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := 0
	l := NewLink(eng, 10e9, 0, NewFIFO(100000), PortFunc(func(*packet.Packet) { delivered++ }))
	l.SetLoss(0.5, rand.New(rand.NewSource(7)))
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(0, pkt(100))
	}
	eng.Run()
	_, loss := l.FaultDrops()
	if loss == 0 || loss == n {
		t.Fatalf("loss drops = %d, want 0 < loss < %d at p=0.5", loss, n)
	}
	if delivered+int(loss) != n {
		t.Errorf("conservation: delivered %d + loss %d != %d", delivered, loss, n)
	}
	if fr := float64(loss) / n; fr < 0.4 || fr > 0.6 {
		t.Errorf("loss fraction %.3f implausible for p=0.5", fr)
	}
	// Clear and verify no further loss.
	l.SetLoss(0, nil)
	for i := 0; i < 100; i++ {
		l.Send(0, pkt(100))
	}
	eng.Run()
	_, loss2 := l.FaultDrops()
	if loss2 != loss {
		t.Errorf("loss kept counting after clear: %d → %d", loss, loss2)
	}
}

// TestFIFOOverloadAccounting drives a link at 10× line rate for a
// sustained period and checks exact drop accounting: every offered packet
// is either delivered or counted as a tail drop, and the queue bound is
// respected throughout.
func TestFIFOOverloadAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered := uint64(0)
	const limit = 64
	l := NewLink(eng, 1e9, 0, NewFIFO(limit), PortFunc(func(*packet.Packet) { delivered++ }))
	// WireLen 1000 → 8µs serialization at 1 Gbps → 125 kpps drain.
	// Offer 10× that for 20ms.
	const (
		period  = 800 * time.Nanosecond // 1.25 Mpps offered
		horizon = 20 * time.Millisecond
	)
	offered := uint64(0)
	tk := eng.Every(period, func() {
		offered++
		l.Send(0, pkt(946))
		if l.QueueLen() > limit {
			t.Fatalf("queue length %d exceeds limit %d", l.QueueLen(), limit)
		}
	})
	eng.At(horizon, tk.Stop)
	eng.Run()
	txPkts, txBytes, drops := l.Stats()
	if drops == 0 {
		t.Fatal("no tail drops under 10× overload")
	}
	if delivered+drops != offered {
		t.Errorf("conservation: delivered %d + drops %d != offered %d", delivered, drops, offered)
	}
	if txPkts != delivered {
		t.Errorf("txPkts %d != delivered %d (zero-propagation link)", txPkts, delivered)
	}
	if txBytes != txPkts*1000 {
		t.Errorf("txBytes %d != %d", txBytes, txPkts*1000)
	}
	// Drain rate ≈ line rate: delivered ≈ horizon / 8µs.
	wantDelivered := uint64(horizon / (8 * time.Microsecond))
	if diff := int64(delivered) - int64(wantDelivered); diff < -limit || diff > limit {
		t.Errorf("delivered %d, want ≈%d (line-rate drain)", delivered, wantDelivered)
	}
}

// TestSetDstLateBinding pins the documented concurrency contract: the
// destination is read at delivery time, so rewiring a busy link redirects
// the packets still in flight.
func TestSetDstLateBinding(t *testing.T) {
	eng := sim.NewEngine(1)
	gotOld, gotNew := 0, 0
	l := NewLink(eng, 1e9, 10*time.Microsecond, nil, PortFunc(func(*packet.Packet) { gotOld++ }))
	l.Send(0, pkt(946)) // serializes by 8µs, arrives at 18µs
	// Retarget while the packet is still propagating.
	eng.At(12*time.Microsecond, func() {
		l.SetDst(PortFunc(func(*packet.Packet) { gotNew++ }))
	})
	eng.Run()
	if gotOld != 0 || gotNew != 1 {
		t.Errorf("delivery went old=%d new=%d, want 0/1 (late-bound dst)", gotOld, gotNew)
	}
}

func TestFIFODrops(t *testing.T) {
	f := NewFIFO(2)
	if !f.Enqueue(0, pkt(1)) || !f.Enqueue(0, pkt(1)) {
		t.Fatal("enqueue failed below limit")
	}
	if f.Enqueue(0, pkt(1)) {
		t.Error("enqueue succeeded beyond limit")
	}
	if f.Len() != 2 {
		t.Errorf("len=%d", f.Len())
	}
}
