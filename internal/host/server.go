package host

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/flowplacer"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/smartnic"
	"repro/internal/vswitch"
)

// Server is one physical machine: host network CPUs, the vswitch, the
// SR-IOV NIC, and guest VMs.
type Server struct {
	ID int
	// IP is the server's provider address (VXLAN tunnel endpoint).
	IP packet.IP

	eng *sim.Engine
	cm  *model.CostModel

	// HostNet is the host kernel's network-processing CPU pool, shared
	// by the vswitch and NIC interrupt handling.
	HostNet *CPUStation

	VSwitch *vswitch.Switch
	NIC     *nic.NIC
	// SmartNIC is the optional middle offload tier; nil when the host has
	// no programmable NIC (the 2-level seed topology).
	SmartNIC *smartnic.NIC

	VMs map[vswitch.VMKey]*VM

	// htbStations holds each VIF's serialized qdisc station so their
	// busy time can be included in CPU totals.
	htbStations []*CPUStation
}

// NewServer builds a server. uplink is the link toward the ToR (its far
// end must be set by the topology assembler); cfg selects the vswitch's
// software-virtualization functions.
func NewServer(eng *sim.Engine, cm *model.CostModel, cfg model.VSwitchConfig, id int, ip packet.IP, uplink *fabric.Link) *Server {
	s := &Server{
		ID: id, IP: ip,
		eng: eng, cm: cm,
		HostNet: NewCPUStation(eng, cm.HostNetCPUs),
		VMs:     make(map[vswitch.VMKey]*VM),
	}
	s.NIC = nic.New(eng, cm, s.HostNet.Submit, uplink, nil)
	s.VSwitch = vswitch.New(eng, cm, cfg, ip, s.HostNet.Submit, fabric.PortFunc(func(p *packet.Packet) {
		s.NIC.SendFromVSwitch(p)
	}))
	s.NIC.SetVSwitch(fabric.PortFunc(s.VSwitch.InputFromNIC))
	return s
}

// AttachSmartNIC installs a SmartNIC offload tier on the server and wires
// its admitted-packet hook to the vswitch's offloaded transmit stage.
func (s *Server) AttachSmartNIC(n *smartnic.NIC) {
	s.SmartNIC = n
	if n == nil {
		return
	}
	n.SetForward(func(tenant packet.TenantID, srcIP packet.IP, p *packet.Packet) {
		s.VSwitch.TransmitOffloaded(vswitch.VMKey{Tenant: tenant, IP: srcIP}, p)
	})
}

// egress is the VM's default (non-VF) transmit path: the SmartNIC tier
// gets first claim on the packet; any miss, deny or pipeline throttle
// falls back to the vswitch software path, so the NIC tier can shed or
// lose rules at any instant without blackholing a flow.
func (s *Server) egress(key vswitch.VMKey, p *packet.Packet) {
	if s.SmartNIC != nil {
		p.Tenant = key.Tenant
		p.Meta.Path = "nic"
		if s.SmartNIC.TryEgress(p.Key(), p) {
			return
		}
	}
	s.VSwitch.OutputFromVM(key, p)
}

// VMConfig describes a guest to create.
type VMConfig struct {
	Tenant packet.TenantID
	IP     packet.IP
	// VLAN is the tenant's access VLAN for the VF path.
	VLAN packet.VLANID
	// VCPUs is the guest's logical CPU count (the paper uses 4 for
	// large instances, 2 for medium).
	VCPUs int
	// Rules is the tenant rule set for the VM; nil means an empty set.
	Rules *rules.VMRules
}

// AddVM creates a guest, attaches its VIF to the vswitch and allocates an
// SR-IOV VF.
func (s *Server) AddVM(cfg VMConfig) (*VM, error) {
	key := vswitch.VMKey{Tenant: cfg.Tenant, IP: cfg.IP}
	if _, exists := s.VMs[key]; exists {
		return nil, fmt.Errorf("host: VM %v already exists", key)
	}
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 4
	}
	if cfg.Rules == nil {
		cfg.Rules = &rules.VMRules{Tenant: cfg.Tenant, VMIP: cfg.IP}
	}
	vm := &VM{
		Key:        key,
		VLAN:       cfg.VLAN,
		CPU:        NewCPUStation(s.eng, cfg.VCPUs),
		Placer:     flowplacer.New(),
		Rules:      cfg.Rules,
		server:     s,
		apps:       make(map[uint16]App),
		LatencyVIF: metrics.NewHistogram(),
		LatencyVF:  metrics.NewHistogram(),
	}
	htb := NewCPUStation(s.eng, 1) // qdisc lock: serialized
	s.htbStations = append(s.htbStations, htb)
	s.VSwitch.AttachVM(key, cfg.Rules, fabric.PortFunc(vm.deliver), htb.Submit)
	if err := s.NIC.AttachVF(cfg.VLAN, cfg.IP, fabric.PortFunc(vm.deliver)); err != nil {
		s.VSwitch.DetachVM(key)
		return nil, err
	}
	s.VMs[key] = vm
	return vm, nil
}

// RemoveVM detaches a guest (VM migration away from this server).
func (s *Server) RemoveVM(key vswitch.VMKey) (*VM, error) {
	vm, ok := s.VMs[key]
	if !ok {
		return nil, fmt.Errorf("host: no VM %v", key)
	}
	s.VSwitch.DetachVM(key)
	s.NIC.DetachVF(vm.VLAN, key.IP)
	delete(s.VMs, key)
	return vm, nil
}

// HostCPUs returns total host-side CPU busy time: the shared network pool
// plus qdisc stations. Guest time is per VM.
func (s *Server) HostCPUs(elapsed sim.Time) float64 {
	total := s.HostNet.Account.LogicalCPUs(elapsed)
	for _, h := range s.htbStations {
		total += h.Account.LogicalCPUs(elapsed)
	}
	return total
}

// GuestCPUs returns total guest busy CPUs across VMs over elapsed.
func (s *Server) GuestCPUs(elapsed sim.Time) float64 {
	total := 0.0
	for _, vm := range s.VMs {
		total += vm.CPU.Account.LogicalCPUs(elapsed)
	}
	return total
}

// TotalCPUs is host + guest — the paper's "# of CPUs for test" metric.
func (s *Server) TotalCPUs(elapsed sim.Time) float64 {
	return s.HostCPUs(elapsed) + s.GuestCPUs(elapsed)
}

// ResetCPUAccounting zeroes all stations (used between experiment
// warm-up and measurement windows).
func (s *Server) ResetCPUAccounting() {
	s.HostNet.Account.Reset()
	for _, h := range s.htbStations {
		h.Account.Reset()
	}
	for _, vm := range s.VMs {
		vm.CPU.Account.Reset()
	}
}
