package host

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestCPUStationSerialService(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewCPUStation(eng, 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		s.Submit(10*time.Microsecond, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if s.Account.Busy() != 30*time.Microsecond {
		t.Errorf("busy = %v", s.Account.Busy())
	}
}

func TestCPUStationParallelSlots(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewCPUStation(eng, 4)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		s.Submit(10*time.Microsecond, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	// All four run in parallel: all complete at 10µs.
	for i, d := range done {
		if d != 10*time.Microsecond {
			t.Errorf("completion %d at %v", i, d)
		}
	}
	// Utilization: 40µs busy over 10µs elapsed = 4 CPUs.
	if got := s.Account.LogicalCPUs(10 * time.Microsecond); got != 4 {
		t.Errorf("LogicalCPUs = %v", got)
	}
}

func TestCPUStationQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewCPUStation(eng, 2)
	n := 0
	for i := 0; i < 10; i++ {
		s.Submit(5*time.Microsecond, func() { n++ })
	}
	if len(s.queue) != 8 {
		t.Errorf("queue = %d, want 8 (2 in service)", len(s.queue))
	}
	eng.Run()
	if n != 10 {
		t.Errorf("completed %d", n)
	}
	// 10 items × 5µs over 2 slots = 25µs makespan.
	if eng.Now() != 25*time.Microsecond {
		t.Errorf("makespan %v", eng.Now())
	}
}

func TestCPUStationZeroAndNegativeCost(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewCPUStation(eng, 1)
	ran := 0
	s.Submit(0, func() { ran++ })
	s.Submit(-time.Second, func() { ran++ })
	eng.Run()
	if ran != 2 {
		t.Errorf("ran = %d", ran)
	}
	if eng.Now() != 0 {
		t.Errorf("zero-cost work advanced time to %v", eng.Now())
	}
}

func TestServerAddRemoveVM(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := model.Default()
	up := fabric.NewLink(eng, cm.LinkBps, 0, nil, fabric.Discard)
	srv := NewServer(eng, &cm, model.VSwitchConfig{}, 0, packet.MustParseIP("192.168.1.10"), up)
	vm, err := srv.AddVM(VMConfig{Tenant: 3, IP: packet.MustParseIP("10.0.0.1"), VLAN: 100, VCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if vm.CPU.Slots() != 2 {
		t.Errorf("vcpus = %d", vm.CPU.Slots())
	}
	if _, err := srv.AddVM(VMConfig{Tenant: 3, IP: packet.MustParseIP("10.0.0.1"), VLAN: 100}); err == nil {
		t.Error("duplicate VM accepted")
	}
	// The VM's VF steers tagged ingress for it; removal releases the VF,
	// and the same frame then misses.
	steerMisses := func() uint64 {
		p := packet.NewTCP(3, packet.MustParseIP("10.0.0.9"), vm.Key.IP, 1000, 80, 100)
		p.VLAN = &packet.VLAN{ID: 100}
		srv.NIC.Input(p)
		_, _, _, _, miss := srv.NIC.Counters()
		return miss
	}
	if miss := steerMisses(); miss != 0 {
		t.Errorf("tagged frame for the VM missed its VF (%d misses)", miss)
	}
	if _, err := srv.RemoveVM(vm.Key); err != nil {
		t.Fatal(err)
	}
	if steerMisses() != 1 {
		t.Error("VF not released on removal")
	}
	if _, err := srv.RemoveVM(vm.Key); err == nil {
		t.Error("double remove accepted")
	}
}

func TestCPUAccountingSeparatesHostAndGuest(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := model.Default()
	up := fabric.NewLink(eng, cm.LinkBps, 0, nil, fabric.Discard)
	srv := NewServer(eng, &cm, model.VSwitchConfig{}, 0, packet.MustParseIP("192.168.1.10"), up)
	vm, _ := srv.AddVM(VMConfig{Tenant: 3, IP: packet.MustParseIP("10.0.0.1"), VLAN: 100})
	for i := 0; i < 100; i++ {
		vm.Send(packet.MustParseIP("10.0.9.9"), 1000, 80, 1448, SendOptions{}, nil)
	}
	eng.Run()
	elapsed := eng.Now()
	if srv.GuestCPUs(elapsed) <= 0 {
		t.Error("no guest CPU charged")
	}
	if srv.HostCPUs(elapsed) <= 0 {
		t.Error("no host CPU charged")
	}
	if srv.TotalCPUs(elapsed) != srv.GuestCPUs(elapsed)+srv.HostCPUs(elapsed) {
		t.Error("total != host + guest")
	}
	srv.ResetCPUAccounting()
	if srv.TotalCPUs(time.Second) != 0 {
		t.Error("reset did not clear accounting")
	}
}

func TestSendAssignsSequence(t *testing.T) {
	eng := sim.NewEngine(1)
	cm := model.Default()
	up := fabric.NewLink(eng, cm.LinkBps, 0, nil, fabric.Discard)
	srv := NewServer(eng, &cm, model.VSwitchConfig{}, 0, packet.MustParseIP("192.168.1.10"), up)
	a, _ := srv.AddVM(VMConfig{Tenant: 3, IP: packet.MustParseIP("10.0.0.1"), VLAN: 100})
	b, _ := srv.AddVM(VMConfig{Tenant: 3, IP: packet.MustParseIP("10.0.0.2"), VLAN: 100})
	var seqs []uint64
	b.BindApp(80, AppFunc(func(_ *VM, p *packet.Packet) { seqs = append(seqs, p.Meta.Seq) }))
	a.Send(b.Key.IP, 1000, 80, 64, SendOptions{}, nil)
	a.Send(b.Key.IP, 1000, 80, 64, SendOptions{}, nil)
	a.Send(b.Key.IP, 1000, 80, 64, SendOptions{Seq: 99}, nil)
	eng.Run()
	if len(seqs) != 3 {
		t.Fatalf("delivered %d (intra-host via vswitch)", len(seqs))
	}
	if seqs[0] == 0 || seqs[0] == seqs[1] {
		t.Errorf("auto sequences %v", seqs[:2])
	}
	if seqs[2] != 99 {
		t.Errorf("explicit seq = %d", seqs[2])
	}
}
