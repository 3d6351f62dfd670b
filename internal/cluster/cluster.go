// Package cluster assembles the emulated testbed: servers with SR-IOV
// NICs and vswitches, access links to an L3 ToR, and tenant/VM
// provisioning — the role the lab setup of §5.1 plays (six HP servers on
// a Nexus ToR). A Cluster is pure substrate: the FasTrak rule manager
// (internal/core) attaches on top of it.
package cluster

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/qos"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/smartnic"
	"repro/internal/tor"
	"repro/internal/vswitch"
)

// Config describes a testbed to build.
type Config struct {
	// Racks is the number of ToRs (default 1), each over Servers machines.
	// Racks connect leaf-to-leaf, the deployment shape §4.3.3 is designed
	// for: "a TOR controller for every TOR switch".
	Racks int
	// Servers is the number of physical machines per rack (default 2; the
	// paper uses six).
	Servers int
	// VSwitchCfg selects the software path's functions on all servers.
	VSwitchCfg model.VSwitchConfig
	// TCAMCapacity is each ToR's hardware rule budget (entries).
	TCAMCapacity int
	// Seed drives all randomness.
	Seed int64
	// QoSAccessLinks enables the ToR's egress QoS scheduler on access
	// links; otherwise they are FIFO.
	QoSAccessLinks bool
	// SmartNIC, when non-nil with Capacity > 0, equips every server with
	// a SmartNIC offload tier between the vswitch and the ToR TCAM.
	SmartNIC *smartnic.Config
}

// Cluster is an assembled testbed.
type Cluster struct {
	Eng *sim.Engine
	CM  *model.CostModel
	// TOR is rack 0's switch; TORs lists every rack's.
	TOR     *tor.TOR
	TORs    []*tor.TOR
	Servers []*host.Server

	vlanByTenant map[packet.TenantID]packet.VLANID
	nextVLAN     packet.VLANID
	// rackOf maps server index → rack index.
	rackOf []int
	// uplinks and downlinks hold each server's access-link pair
	// (server→ToR, ToR→server) for tap insertion and fault injection.
	uplinks   []*fabric.Link
	downlinks []*fabric.Link
}

// Uplink returns server idx's server→ToR access link (nil if out of
// range).
func (c *Cluster) Uplink(idx int) *fabric.Link {
	if idx < 0 || idx >= len(c.uplinks) {
		return nil
	}
	return c.uplinks[idx]
}

// Downlink returns server idx's ToR→server access link (nil if out of
// range).
func (c *Cluster) Downlink(idx int) *fabric.Link {
	if idx < 0 || idx >= len(c.downlinks) {
		return nil
	}
	return c.downlinks[idx]
}

// RegisterFaults names every access link on the injector: "uplink<i>" is
// server i's server→ToR link, "downlink<i>" the reverse; servers with a
// SmartNIC register it as "nic<i>" for reset/corruption faults. The rule
// manager's core.Manager.RegisterFaults calls it beside registering the
// control-plane targets, so a rig makes that one call.
func (c *Cluster) RegisterFaults(inj *faults.Injector) {
	for i := range c.uplinks {
		inj.RegisterLink(fmt.Sprintf("uplink%d", i), c.uplinks[i])
		inj.RegisterLink(fmt.Sprintf("downlink%d", i), c.downlinks[i])
	}
	for i, s := range c.Servers {
		if s.SmartNIC != nil {
			inj.RegisterNIC(fmt.Sprintf("nic%d", i), s.SmartNIC)
		}
	}
}

// TapServer interposes a capture/transform port on the ToR→server link of
// server idx: wrap receives the current destination (the server's NIC)
// and returns the port the link should deliver to instead.
func (c *Cluster) TapServer(idx int, wrap func(fabric.Port) fabric.Port) error {
	if idx < 0 || idx >= len(c.downlinks) {
		return fmt.Errorf("cluster: no server %d", idx)
	}
	c.downlinks[idx].SetDst(wrap(c.Servers[idx].NIC))
	return nil
}

// New builds the testbed. Servers are indexed rack-major (rack 0's
// first); server i of rack rk has provider address 192.168.(1+rk).(10+i)
// and rack rk's ToR loopback 192.168.100.(1+rk).
func New(cfg Config) *Cluster {
	if cfg.Racks <= 0 {
		cfg.Racks = 1
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.TCAMCapacity <= 0 {
		cfg.TCAMCapacity = 2000
	}
	cm := model.Default()
	c := &Cluster{
		Eng:          sim.NewEngine(cfg.Seed),
		CM:           &cm,
		vlanByTenant: make(map[packet.TenantID]packet.VLANID),
		nextVLAN:     100,
	}
	for rk := 0; rk < cfg.Racks; rk++ {
		loop := packet.MakeIP(192, 168, 100, byte(1+rk))
		c.TORs = append(c.TORs, tor.New(c.Eng, loop, cfg.TCAMCapacity, cm.TORLatency))
	}
	c.TOR = c.TORs[0]

	// Servers and access links.
	for rk := 0; rk < cfg.Racks; rk++ {
		for i := 0; i < cfg.Servers; i++ {
			ip := serverIP(rk, i)
			// Server → ToR uplink.
			up := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, nil, c.TORs[rk])
			srv := host.NewServer(c.Eng, c.CM, cfg.VSwitchCfg, len(c.Servers), ip, up)
			// ToR → server downlink, optionally QoS-scheduled.
			var q fabric.Queue
			if cfg.QoSAccessLinks {
				q = qos.NewScheduler(qos.DefaultConfig())
			}
			down := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, q, srv.NIC)
			if cfg.SmartNIC != nil && cfg.SmartNIC.Capacity > 0 {
				srv.AttachSmartNIC(smartnic.New(c.Eng, *cfg.SmartNIC))
			}
			c.TORs[rk].AddRoute(ip, fabric.LinkPort{L: down})
			c.Servers = append(c.Servers, srv)
			c.rackOf = append(c.rackOf, rk)
			c.uplinks = append(c.uplinks, up)
			c.downlinks = append(c.downlinks, down)
		}
	}

	// Leaf mesh: a bidirectional link pair between every ToR pair; each
	// ToR routes the peer's loopback and the peer rack's server addresses
	// over it.
	for a := 0; a < cfg.Racks; a++ {
		for b := a + 1; b < cfg.Racks; b++ {
			ab := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, nil, c.TORs[b])
			ba := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, nil, c.TORs[a])
			c.TORs[a].AddRoute(c.TORs[b].Loopback, fabric.LinkPort{L: ab})
			c.TORs[b].AddRoute(c.TORs[a].Loopback, fabric.LinkPort{L: ba})
			for i := 0; i < cfg.Servers; i++ {
				c.TORs[a].AddRoute(serverIP(b, i), fabric.LinkPort{L: ab})
				c.TORs[b].AddRoute(serverIP(a, i), fabric.LinkPort{L: ba})
			}
		}
	}
	return c
}

// serverIP is the provider address of server i in rack rk.
func serverIP(rk, i int) packet.IP {
	return packet.MakeIP(192, 168, byte(1+rk), byte(10+i))
}

// RackOf returns the rack index hosting server idx (-1 if out of range).
func (c *Cluster) RackOf(idx int) int {
	if idx < 0 || idx >= len(c.Servers) {
		return -1
	}
	return c.rackOf[idx]
}

// HomeTOR returns the ToR of the rack hosting server idx.
func (c *Cluster) HomeTOR(idx int) *tor.TOR {
	rk := c.RackOf(idx)
	if rk < 0 {
		return nil
	}
	return c.TORs[rk]
}

// configureTenantEverywhere binds the tenant's VLAN on every ToR.
func (c *Cluster) configureTenantEverywhere(tenant packet.TenantID, vlan packet.VLANID) error {
	for _, t := range c.TORs {
		if err := t.ConfigureTenant(tenant, vlan); err != nil {
			return err
		}
	}
	return nil
}

// registerVMEverywhere installs the VM's VRF state: local registration at
// its home ToR and GRE tunnel mappings (tenant, VM IP) → home ToR on every
// ToR, so any rack can originate express-lane traffic toward it (the
// offloaded tunnel mappings of §4.1.3).
func (c *Cluster) registerVMEverywhere(idx int, tenant packet.TenantID, ip packet.IP) error {
	home := c.HomeTOR(idx)
	if err := home.RegisterLocalVM(tenant, ip, c.Servers[idx].IP); err != nil {
		return err
	}
	for _, t := range c.TORs {
		if err := t.SetVRFTunnel(tenant, ip, home.Loopback); err != nil {
			return err
		}
	}
	return nil
}

// unregisterVMEverywhere removes the VM's ToR state (migration away).
func (c *Cluster) unregisterVMEverywhere(fromIdx int, tenant packet.TenantID, ip packet.IP) {
	c.HomeTOR(fromIdx).UnregisterLocalVM(tenant, ip)
	for _, t := range c.TORs {
		t.RemoveVRFTunnel(tenant, ip)
	}
}

// VLANFor returns (allocating if needed) the tenant's access VLAN.
func (c *Cluster) VLANFor(tenant packet.TenantID) packet.VLANID {
	if v, ok := c.vlanByTenant[tenant]; ok {
		return v
	}
	v := c.nextVLAN
	c.nextVLAN++
	c.vlanByTenant[tenant] = v
	if err := c.configureTenantEverywhere(tenant, v); err != nil {
		panic(fmt.Sprintf("cluster: configure tenant: %v", err))
	}
	return v
}

// AddVM provisions a tenant VM on server idx: VIF+VF attachment, ToR VRF
// registration, GRE mapping (home ToR), and VXLAN mappings on every other
// server's vswitch so the software path can reach it.
func (c *Cluster) AddVM(idx int, tenant packet.TenantID, ip packet.IP, vcpus int, r *rules.VMRules) (*host.VM, error) {
	if idx < 0 || idx >= len(c.Servers) {
		return nil, fmt.Errorf("cluster: no server %d", idx)
	}
	srv := c.Servers[idx]
	vlan := c.VLANFor(tenant)
	vm, err := srv.AddVM(host.VMConfig{Tenant: tenant, IP: ip, VLAN: vlan, VCPUs: vcpus, Rules: r})
	if err != nil {
		return nil, err
	}
	if err := c.registerVMEverywhere(idx, tenant, ip); err != nil {
		return nil, err
	}
	// Software-path directory: every vswitch learns the VM's server.
	m := rules.TunnelMapping{Tenant: tenant, VMIP: ip, Remote: srv.IP}
	for _, s := range c.Servers {
		s.VSwitch.SetTunnel(m)
	}
	return vm, nil
}

// MoveVM migrates a VM from one server to another, updating tunnel
// mappings at source and destination (requirement S4). The FasTrak rule
// manager is responsible for pulling offloaded rules back *before* calling
// this (§4.1.2).
func (c *Cluster) MoveVM(fromIdx, toIdx int, tenant packet.TenantID, ip packet.IP) (*host.VM, error) {
	if fromIdx == toIdx {
		return nil, fmt.Errorf("cluster: migration to same server")
	}
	src := c.Servers[fromIdx]
	old, err := src.RemoveVM(vswitch.VMKey{Tenant: tenant, IP: ip})
	if err != nil {
		return nil, err
	}
	c.unregisterVMEverywhere(fromIdx, tenant, ip)
	vm, err := c.Servers[toIdx].AddVM(host.VMConfig{
		Tenant: tenant, IP: ip, VLAN: old.VLAN, VCPUs: old.CPU.Slots(), Rules: old.Rules,
	})
	if err != nil {
		return nil, err
	}
	if err := c.registerVMEverywhere(toIdx, tenant, ip); err != nil {
		return nil, err
	}
	m := rules.TunnelMapping{Tenant: tenant, VMIP: ip, Remote: c.Servers[toIdx].IP}
	for _, s := range c.Servers {
		s.VSwitch.SetTunnel(m)
	}
	return vm, nil
}

// RemoveVM deprovisions a tenant VM from server idx, undoing AddVM: the
// host detaches VIF/VF, ToR VRF registration and GRE mappings are
// withdrawn everywhere, and every vswitch forgets the tunnel directory
// entry. The FasTrak rule manager is responsible for pulling offloaded
// rules back first, exactly as for migration (§4.1.2).
func (c *Cluster) RemoveVM(idx int, tenant packet.TenantID, ip packet.IP) error {
	if idx < 0 || idx >= len(c.Servers) {
		return fmt.Errorf("cluster: no server %d", idx)
	}
	if _, err := c.Servers[idx].RemoveVM(vswitch.VMKey{Tenant: tenant, IP: ip}); err != nil {
		return err
	}
	c.unregisterVMEverywhere(idx, tenant, ip)
	for _, s := range c.Servers {
		s.VSwitch.RemoveTunnel(tenant, ip)
	}
	return nil
}

// FindVM locates a VM by tenant and IP.
func (c *Cluster) FindVM(tenant packet.TenantID, ip packet.IP) (*host.VM, bool) {
	key := vswitch.VMKey{Tenant: tenant, IP: ip}
	for _, s := range c.Servers {
		if vm, ok := s.VMs[key]; ok {
			return vm, true
		}
	}
	return nil, false
}
