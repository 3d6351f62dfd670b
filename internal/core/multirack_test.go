package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
)

// multiRig builds a 2-rack testbed (2 servers per rack) with a client VM
// in rack 0 and a server VM in rack 1.
func multiRig(t *testing.T) (*cluster.Cluster, *host.VM, *host.VM) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Racks: 2, Servers: 2,
		VSwitchCfg: model.VSwitchConfig{Tunneling: true},
		Seed:       41,
	})
	cl, err := c.AddVM(0, 3, clientIP, 4, nil) // rack 0
	if err != nil {
		t.Fatal(err)
	}
	sv, err := c.AddVM(2, 3, serverIP, 4, nil) // rack 1 (servers rack-major)
	if err != nil {
		t.Fatal(err)
	}
	return c, cl, sv
}

func TestMultiRackSoftwarePath(t *testing.T) {
	c, cl, sv := multiRig(t)
	received := 0
	sv.BindApp(8080, host.AppFunc(func(*host.VM, *packet.Packet) { received++ }))
	cl.Send(serverIP, 40000, 8080, 640, host.SendOptions{}, nil)
	c.Eng.Run()
	if received != 1 {
		t.Fatalf("cross-rack VXLAN delivery = %d", received)
	}
}

func TestMultiRackExpressLane(t *testing.T) {
	// Cross-rack express lane under FasTrak: both racks' TOR
	// controllers independently offload the hot service (each sees the
	// demand from its side), and GRE carries the traffic ToR-to-ToR.
	cfg := fastCfg()
	c, cl, sv := multiRig(t)
	mgr := Attach(c, cfg)
	if len(mgr.RackCtls) != 2 {
		t.Fatalf("TOR controllers = %d, want one per rack", len(mgr.RackCtls))
	}
	sv.BindApp(11211, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		vm.Send(p.IP.Src, 11211, p.TCP.SrcPort, 600, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	c.Eng.Every(300*time.Microsecond, func() {
		cl.Send(serverIP, 40000, 11211, 100, host.SendOptions{}, nil)
	})
	mgr.Start()
	c.Eng.RunUntil(4 * time.Second)
	mgr.Stop()

	// Both ToRs hold hardware rules for the conversation.
	if got := len(mgr.RackCtls[0][0].offloadedList()); got == 0 {
		t.Error("rack 0 offloaded nothing")
	}
	if got := len(mgr.RackCtls[1][0].offloadedList()); got == 0 {
		t.Error("rack 1 offloaded nothing")
	}
	// Express-lane traffic crossed the fabric: both ToRs saw GRE.
	_, _, _, _, greRx0, greTx0 := c.TORs[0].Counters()
	_, _, _, _, greRx1, greTx1 := c.TORs[1].Counters()
	if greTx0 == 0 || greRx1 == 0 || greTx1 == 0 || greRx0 == 0 {
		t.Errorf("GRE counters: rack0 tx=%d rx=%d, rack1 tx=%d rx=%d",
			greTx0, greRx0, greTx1, greRx1)
	}
	// And the endpoints observed express-lane arrivals.
	if sv.LatencyVF.Count() == 0 || cl.LatencyVF.Count() == 0 {
		t.Errorf("VF arrivals: server=%d client=%d", sv.LatencyVF.Count(), cl.LatencyVF.Count())
	}
	// The VF path still beats the cross-rack VIF path.
	if sv.LatencyVIF.Count() > 0 && sv.LatencyVF.Mean() >= sv.LatencyVIF.Mean() {
		t.Errorf("cross-rack express lane not faster: vf=%v vif=%v",
			sv.LatencyVF.Mean(), sv.LatencyVIF.Mean())
	}
}

func TestMultiRackMigrationAcrossRacks(t *testing.T) {
	// §4.3.3: "As VMs are migrated to servers attached to other TORs,
	// only the associated TOR controllers need to recompute offloading
	// decisions."
	cfg := fastCfg()
	c, cl, sv := multiRig(t)
	mgr := Attach(c, cfg)
	sv.BindApp(11211, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		vm.Send(p.IP.Src, 11211, p.TCP.SrcPort, 600, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	c.Eng.Every(300*time.Microsecond, func() {
		cl.Send(serverIP, 40000, 11211, 100, host.SendOptions{}, nil)
	})
	mgr.Start()
	c.Eng.RunUntil(2 * time.Second)
	if len(mgr.OffloadedPatterns()) == 0 {
		t.Fatal("precondition: nothing offloaded")
	}
	// Migrate the server VM from rack 1 (server 2) to rack 0 (server 1).
	if err := mgr.MigrateVM(2, 1, 3, serverIP); err != nil {
		t.Fatal(err)
	}
	moved, ok := c.FindVM(3, serverIP)
	if !ok || c.RackOf(moved.Server().ID) != 0 {
		t.Fatal("VM not homed in rack 0 after migration")
	}
	moved.BindApp(11211, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		vm.Send(p.IP.Src, 11211, p.TCP.SrcPort, 600, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	before, _, _, _ := moved.Counters()
	c.Eng.RunUntil(c.Eng.Now() + 2*time.Second)
	mgr.Stop()
	_, rxAfter, _, _ := moved.Counters()
	if rxAfter <= before {
		t.Error("no traffic delivered after cross-rack migration")
	}
	// The service re-offloads; now intra-rack, rack 0's controller owns
	// all the state.
	if len(mgr.OffloadedPatterns()) == 0 {
		t.Error("service not re-offloaded at the destination rack")
	}
	if got := len(mgr.RackCtls[1][0].offloadedList()); got != 0 {
		t.Errorf("rack 1 still holds %d offloaded patterns for a migrated VM", got)
	}
}

func TestMultiRackBudgetsAreIndependent(t *testing.T) {
	// Each ToR has its own TCAM; filling rack 0's budget must not
	// consume rack 1's (§4.3.3's scalability argument).
	c := cluster.New(cluster.Config{
		Racks: 2, Servers: 1,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		TCAMCapacity: 4,
		Seed:         43,
	})
	cfg := fastCfg()
	// Rack-local service pairs: both VMs of each pair in the same rack.
	mk := func(serverIdx int, tenant packet.TenantID) (*host.VM, *host.VM) {
		a, err := c.AddVM(serverIdx, tenant, packet.MakeIP(10, byte(tenant), 0, 1), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.AddVM(serverIdx, tenant, packet.MakeIP(10, byte(tenant), 0, 2), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.BindApp(9000, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 9000, p.TCP.SrcPort, 200, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		return a, b
	}
	a0, b0 := mk(0, 5) // rack 0
	a1, b1 := mk(1, 6) // rack 1
	mgr := Attach(c, cfg)
	c.Eng.Every(250*time.Microsecond, func() {
		a0.Send(b0.Key.IP, 40000, 9000, 100, host.SendOptions{}, nil)
		a1.Send(b1.Key.IP, 40000, 9000, 100, host.SendOptions{}, nil)
	})
	mgr.Start()
	c.Eng.RunUntil(3 * time.Second)
	mgr.Stop()
	if got := c.TORs[0].TCAMUsed(); got == 0 {
		t.Error("rack 0 TCAM unused")
	}
	if got := c.TORs[1].TCAMUsed(); got == 0 {
		t.Error("rack 1 TCAM unused")
	}
	// Intra-rack traffic never installs state on the other rack's ToR.
	for _, p := range mgr.RackCtls[0][0].offloadedList() {
		if p.Tenant == 6 {
			t.Errorf("rack 0 holds rack 1's pattern %v", p)
		}
	}
	for _, p := range mgr.RackCtls[1][0].offloadedList() {
		if p.Tenant == 5 {
			t.Errorf("rack 1 holds rack 0's pattern %v", p)
		}
	}
}
