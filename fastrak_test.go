package fastrak

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/packet"
)

func TestDeploymentLifecycle(t *testing.T) {
	d, err := NewDeployment(Options{Servers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	client, err := d.AddVM(0, 3, "10.0.0.1", VMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := d.AddVM(1, 3, "10.0.0.2", VMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	server.BindApp(8080, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		received++
		vm.Send(p.IP.Src, 8080, p.TCP.SrcPort, 128, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	d.Start()
	d.Cluster.Eng.Every(500*time.Microsecond, func() {
		client.Send(server.Key.IP, 40000, 8080, 64, host.SendOptions{}, nil)
	})
	d.Run(3 * time.Second)
	d.Stop()
	if received == 0 {
		t.Fatal("no traffic delivered")
	}
	// The 2000 pps service flow should have been offloaded.
	if len(d.Offloaded()) == 0 {
		t.Error("nothing offloaded")
	}
	used, capacity := d.HardwareRules()
	if used == 0 || capacity < used {
		t.Errorf("hardware rules used=%d capacity=%d", used, capacity)
	}
}

func TestDeploymentValidation(t *testing.T) {
	d, err := NewDeployment(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddVM(0, 1, "not-an-ip", VMOptions{}); err == nil {
		t.Error("bad IP accepted")
	}
	if _, err := d.AddVM(99, 1, "10.0.0.1", VMOptions{}); err == nil {
		t.Error("bad server index accepted")
	}
	if err := d.MigrateVM(0, 1, 1, "bogus"); err == nil {
		t.Error("bad migrate IP accepted")
	}
}

func TestDeploymentSecurityRules(t *testing.T) {
	d, err := NewDeployment(Options{Servers: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := d.AddVM(0, 3, "10.0.0.1", VMOptions{})
	server, err := d.AddVM(1, 3, "10.0.0.2", VMOptions{
		SecurityRules: []SecurityRule{{DstPort: 8080, Allow: true, Priority: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed, denied := 0, 0
	server.BindApp(8080, host.AppFunc(func(*host.VM, *packet.Packet) { allowed++ }))
	server.BindApp(22, host.AppFunc(func(*host.VM, *packet.Packet) { denied++ }))
	client.Send(server.Key.IP, 40000, 8080, 64, host.SendOptions{}, nil)
	client.Send(server.Key.IP, 40001, 22, 64, host.SendOptions{}, nil)
	d.Run(time.Second)
	if allowed != 1 {
		t.Errorf("allowed port received %d", allowed)
	}
	if denied != 0 {
		t.Errorf("denied port received %d (default-deny broken)", denied)
	}
}

func TestDeploymentVMLookupAndMigration(t *testing.T) {
	d, _ := NewDeployment(Options{Servers: 3, Seed: 5})
	d.AddVM(0, 3, "10.0.0.1", VMOptions{VCPUs: 2})
	vm, ok := d.VM(3, "10.0.0.1")
	if !ok || vm.CPU.Slots() != 2 {
		t.Fatal("VM lookup failed")
	}
	if err := d.MigrateVM(0, 2, 3, "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	moved, _ := d.Cluster.FindVM(3, packet.MustParseIP("10.0.0.1"))
	if moved.Server().ID != 2 {
		t.Errorf("VM on server %d after migration", moved.Server().ID)
	}
}

func TestDeploymentRateLimits(t *testing.T) {
	d, _ := NewDeployment(Options{Servers: 2, Seed: 6})
	_, err := d.AddVM(0, 3, "10.0.0.1", VMOptions{EgressBps: 100e6, IngressBps: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	// Initial even split installed on the VIF without the controller
	// running.
	eg, in, ok := d.Cluster.Servers[0].VSwitch.VIFRates(vmKeyOf(3, "10.0.0.1"))
	_ = eg
	_ = in
	if !ok {
		t.Error("VM not attached to vswitch")
	}
}

func vmKeyOf(tenant uint32, ip string) (k vmKeyT) {
	return vmKeyT{Tenant: packet.TenantID(tenant), IP: packet.MustParseIP(ip)}
}

// vmKeyT mirrors vswitch.VMKey for the test.
type vmKeyT = struct {
	Tenant packet.TenantID
	IP     packet.IP
}

func TestDeploymentMultiRack(t *testing.T) {
	d, err := NewDeployment(Options{Racks: 2, Servers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Manager.RackCtls); got != 2 {
		t.Fatalf("TOR controllers = %d, want 2", got)
	}
	client, err := d.AddVM(0, 3, "10.0.0.1", VMOptions{}) // rack 0
	if err != nil {
		t.Fatal(err)
	}
	server, err := d.AddVM(2, 3, "10.0.0.2", VMOptions{}) // rack 1
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	server.BindApp(8080, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		received++
		vm.Send(p.IP.Src, 8080, p.TCP.SrcPort, 200, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	d.Start()
	d.Cluster.Eng.Every(400*time.Microsecond, func() {
		client.Send(server.Key.IP, 40000, 8080, 64, host.SendOptions{}, nil)
	})
	d.Run(3 * time.Second)
	d.Stop()
	if received == 0 {
		t.Fatal("no cross-rack traffic")
	}
	if len(d.Offloaded()) == 0 {
		t.Error("cross-rack service not offloaded")
	}
	used, capacity := d.HardwareRules()
	if used == 0 || capacity == 0 {
		t.Errorf("hardware rules: %d/%d", used, capacity)
	}
}
