package cluster

import (
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/smartnic"
	"repro/internal/tor"
)

// This file extends the testbed to multiple racks — the deployment shape
// §4.3.3 is designed for: "a TOR controller for every TOR switch ... no
// single controller is responsible for offloading decisions for all the
// flows in the data center". Racks connect leaf-to-leaf ("the network
// fabric core remains unchanged", §1): GRE outers between ToR loopbacks
// and VXLAN outers between servers route across inter-ToR links.

// MultiConfig describes a multi-rack testbed.
type MultiConfig struct {
	// Racks is the number of ToRs, with ServersPerRack under each.
	Racks          int
	ServersPerRack int
	CostModel      *model.CostModel
	VSwitchCfg     model.VSwitchConfig
	// TCAMCapacity is each ToR's hardware rule budget.
	TCAMCapacity   int
	Seed           int64
	QoSAccessLinks bool
	// SmartNIC, when non-nil with Capacity > 0, equips every server with
	// a SmartNIC offload tier (see Config.SmartNIC).
	SmartNIC *smartnic.Config
}

// NewMulti builds a testbed of cfg.Racks racks. The returned Cluster's
// TOR field is rack 0's switch; TORs lists all of them, and servers are
// indexed rack-major (rack 0's servers first).
func NewMulti(cfg MultiConfig) *Cluster {
	if cfg.Racks <= 0 {
		cfg.Racks = 2
	}
	if cfg.ServersPerRack <= 0 {
		cfg.ServersPerRack = 2
	}
	if cfg.TCAMCapacity <= 0 {
		cfg.TCAMCapacity = 2000
	}
	cm := cfg.CostModel
	if cm == nil {
		def := model.Default()
		cm = &def
	}
	c := &Cluster{
		Eng: sim.NewEngine(cfg.Seed),
		CM:  cm,

		vlanByTenant: make(map[packet.TenantID]packet.VLANID),
		nextVLAN:     100,
	}

	// One ToR per rack, loopbacks 192.168.100.(1+rack).
	for rk := 0; rk < cfg.Racks; rk++ {
		loop := packet.MakeIP(192, 168, 100, byte(1+rk))
		c.TORs = append(c.TORs, tor.New(c.Eng, loop, cfg.TCAMCapacity, cm.TORLatency))
	}
	c.TOR = c.TORs[0]

	// Servers and access links.
	for rk := 0; rk < cfg.Racks; rk++ {
		for i := 0; i < cfg.ServersPerRack; i++ {
			ip := RackServerIP(rk, i)
			up := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, nil, c.TORs[rk])
			srv := host.NewServer(c.Eng, cm, cfg.VSwitchCfg, len(c.Servers), ip, up)
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
	// ToR routes the peer's loopback and the peer rack's server
	// addresses over it.
	for a := 0; a < cfg.Racks; a++ {
		for b := a + 1; b < cfg.Racks; b++ {
			ab := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, nil, c.TORs[b])
			ba := fabric.NewLink(c.Eng, cm.LinkBps, cm.PropDelay, nil, c.TORs[a])
			c.TORs[a].AddRoute(c.TORs[b].Loopback, fabric.LinkPort{L: ab})
			c.TORs[b].AddRoute(c.TORs[a].Loopback, fabric.LinkPort{L: ba})
			for i := 0; i < cfg.ServersPerRack; i++ {
				c.TORs[a].AddRoute(RackServerIP(b, i), fabric.LinkPort{L: ab})
				c.TORs[b].AddRoute(RackServerIP(a, i), fabric.LinkPort{L: ba})
			}
		}
	}
	return c
}

// RackServerIP is the provider address of server i in rack rk.
func RackServerIP(rk, i int) packet.IP {
	return packet.MakeIP(192, 168, byte(1+rk), byte(10+i))
}

// RackOf returns the rack index hosting server idx (0 for single-rack
// clusters).
func (c *Cluster) RackOf(idx int) int {
	if idx < 0 || idx >= len(c.Servers) {
		return -1
	}
	if len(c.rackOf) == 0 {
		return 0
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
