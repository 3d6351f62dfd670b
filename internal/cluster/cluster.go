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
	// Servers is the number of physical machines (the paper uses six).
	Servers int
	// CostModel parameterizes all timing; zero value means
	// model.Default().
	CostModel *model.CostModel
	// VSwitchCfg selects the software path's functions on all servers.
	VSwitchCfg model.VSwitchConfig
	// TCAMCapacity is the ToR's hardware rule budget (entries).
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
	// TOR is the (first) rack's switch; TORs lists every rack's (see
	// NewMulti for multi-rack testbeds).
	TOR     *tor.TOR
	TORs    []*tor.TOR
	Servers []*host.Server

	vlanByTenant map[packet.TenantID]packet.VLANID
	nextVLAN     packet.VLANID
	// rackOf maps server index → rack index (empty = all rack 0).
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
// SmartNIC register it as "nic<i>" for reset/corruption faults.
// Control-plane targets are registered separately by the rule manager
// (core.Manager.RegisterFaults).
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

// ServerIP returns the provider address of server i.
func ServerIP(i int) packet.IP {
	return packet.MakeIP(192, 168, 1, byte(10+i))
}

// TORIP is the ToR loopback address.
var TORIP = packet.MustParseIP("192.168.100.1")

// New builds the testbed.
func New(cfg Config) *Cluster {
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.TCAMCapacity <= 0 {
		cfg.TCAMCapacity = 2000
	}
	cm := cfg.CostModel
	if cm == nil {
		def := model.Default()
		cm = &def
	}
	eng := sim.NewEngine(cfg.Seed)
	c := &Cluster{
		Eng: eng, CM: cm,
		TOR:          tor.New(eng, TORIP, cfg.TCAMCapacity, cm.TORLatency),
		vlanByTenant: make(map[packet.TenantID]packet.VLANID),
		nextVLAN:     100,
	}
	c.TORs = []*tor.TOR{c.TOR}
	for i := 0; i < cfg.Servers; i++ {
		ip := ServerIP(i)
		// Server → ToR uplink.
		up := fabric.NewLink(eng, cm.LinkBps, cm.PropDelay, nil, c.TOR)
		srv := host.NewServer(eng, cm, cfg.VSwitchCfg, i, ip, up)
		// ToR → server downlink, optionally QoS-scheduled.
		var q fabric.Queue
		if cfg.QoSAccessLinks {
			q = qos.NewScheduler(qos.DefaultConfig())
		}
		down := fabric.NewLink(eng, cm.LinkBps, cm.PropDelay, q, srv.NIC)
		if cfg.SmartNIC != nil && cfg.SmartNIC.Capacity > 0 {
			srv.AttachSmartNIC(smartnic.New(eng, *cfg.SmartNIC))
		}
		c.TOR.AddRoute(ip, fabric.LinkPort{L: down})
		c.Servers = append(c.Servers, srv)
		c.uplinks = append(c.uplinks, up)
		c.downlinks = append(c.downlinks, down)
	}
	return c
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
