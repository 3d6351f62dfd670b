// Package nic models the server's SR-IOV-capable NIC (§2.2): a physical
// port used by the vswitch, plus virtual functions (VFs) that DMA packets
// directly between VMs and the wire, bypassing the hypervisor. VF egress
// traffic is tagged with the tenant's VLAN ID so the directly attached ToR
// can pick the right VRF (§4.2.1); on reception the NIC uses the VLAN tag
// and destination to steer packets to the right VF after stripping the tag
// (§4.2.2).
//
// The only host CPU involvement on the VF path is interrupt isolation
// ("VF Interrupts ... are first delivered to the hypervisor"), charged per
// packet via the Exec hook.
package nic

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// MaxVFs is the number of virtual functions a physical port supports
// (§2.2: "These VFs can share a physical port on a NIC up to some limit
// (e.g., 64)").
const MaxVFs = 64

// Exec submits interrupt-isolation work to the host CPU station.
type Exec func(cost time.Duration, fn func())

// vf is one virtual function attachment.
type vf struct {
	vlan    packet.VLANID
	vmIP    packet.IP
	deliver fabric.Port
	// txClock/rxClock keep jittered VF delays FIFO per direction.
	txClock, rxClock time.Duration
}

// NIC is one dual-personality port: a physical function for the vswitch
// and up to MaxVFs virtual functions for direct VM access.
type NIC struct {
	eng      *sim.Engine
	cm       *model.CostModel
	hostExec Exec

	// wire is the uplink toward the ToR.
	wire *fabric.Link
	// vswitchIn receives non-VLAN traffic (the physical function).
	vswitchIn fabric.Port

	vfs map[vfKey]*vf

	// HostCPU accounts interrupt-isolation time (Fig. 4's SR-IOV bars).
	HostCPU *metrics.CPUAccount

	vfTx, vfRx uint64
	pfTx, pfRx uint64
	steerMiss  uint64

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	rec *telemetry.Scoped
}

type vfKey struct {
	vlan packet.VLANID
	vmIP packet.IP
}

// New builds a NIC. wire is the link to the ToR; vswitchIn receives
// untagged ingress traffic (set later via SetVSwitch if the vswitch is
// constructed afterwards).
func New(eng *sim.Engine, cm *model.CostModel, hostExec Exec, wire *fabric.Link, vswitchIn fabric.Port) *NIC {
	if hostExec == nil {
		hostExec = func(_ time.Duration, fn func()) { fn() }
	}
	return &NIC{
		eng: eng, cm: cm, hostExec: hostExec,
		wire: wire, vswitchIn: vswitchIn,
		vfs:     make(map[vfKey]*vf),
		HostCPU: &metrics.CPUAccount{},
	}
}

// SetVSwitch wires the physical function's ingress consumer.
func (n *NIC) SetVSwitch(p fabric.Port) { n.vswitchIn = p }

// AttachVF allocates a virtual function for a VM: its traffic will carry
// the given VLAN ID on the wire, and tagged ingress traffic for vmIP on
// that VLAN is delivered to deliver. Fails when the port's VF budget is
// exhausted.
func (n *NIC) AttachVF(vlan packet.VLANID, vmIP packet.IP, deliver fabric.Port) error {
	if len(n.vfs) >= MaxVFs {
		return fmt.Errorf("nic: VF limit (%d) exhausted", MaxVFs)
	}
	if vlan == 0 || vlan > packet.MaxVLANID {
		return fmt.Errorf("nic: invalid VLAN %d", vlan)
	}
	n.vfs[vfKey{vlan, vmIP}] = &vf{vlan: vlan, vmIP: vmIP, deliver: deliver}
	return nil
}

// DetachVF releases a VM's virtual function (VM migration).
func (n *NIC) DetachVF(vlan packet.VLANID, vmIP packet.IP) {
	delete(n.vfs, vfKey{vlan, vmIP})
}

// SendFromVF transmits a VM packet through its virtual function: VLAN tag
// for ToR VRF selection, interrupt-isolation charge, VF path latency, then
// the wire. No vswitch, no hypervisor copies.
func (n *NIC) SendFromVF(vlan packet.VLANID, p *packet.Packet) {
	p.Meta.Path = "vf"
	p.VLAN = &packet.VLAN{ID: vlan}
	f := n.vfs[vfKey{vlan, p.IP.Src}]
	n.HostCPU.Charge(n.cm.VFHostPerInterrupt)
	n.hostExec(n.cm.VFHostPerInterrupt, func() {
		at := n.eng.Now() + n.vfDelay()
		if f != nil {
			if at < f.txClock {
				at = f.txClock
			}
			f.txClock = at
		}
		n.eng.At(at, func() {
			n.vfTx++
			n.wire.Send(0, p)
		})
	})
}

// vfDelay is the VF path's one-way floor plus small hardware jitter
// (§3.2.4: hardware processes packets "with more predictable delays").
func (n *NIC) vfDelay() time.Duration {
	d := n.cm.VFLatency
	if n.cm.HWJitterMean > 0 {
		d += time.Duration(n.eng.Rand().ExpFloat64() * float64(n.cm.HWJitterMean))
	}
	return d
}

// SendFromVSwitch transmits a vswitch packet on the physical function.
// The vswitch has already paid its CPU and latency costs.
func (n *NIC) SendFromVSwitch(p *packet.Packet) {
	n.pfTx++
	n.wire.Send(0, p)
}

// Input implements fabric.Port: packets arriving from the ToR. Tagged
// packets steer to a VF (stripping the tag); untagged packets go to the
// vswitch.
func (n *NIC) Input(p *packet.Packet) {
	if p.VLAN == nil {
		n.pfRx++
		n.vswitchIn.Input(p)
		return
	}
	key := vfKey{p.VLAN.ID, p.IP.Dst}
	f, ok := n.vfs[key]
	if !ok {
		n.steerMiss++
		if n.rec != nil {
			n.rec.Drop(p.Tenant, p.Key(), "steer-miss")
		}
		return
	}
	p.VLAN = nil // strip the tag before handing to the VM (§4.2.2)
	n.HostCPU.Charge(n.cm.VFHostPerInterrupt)
	n.hostExec(n.cm.VFHostPerInterrupt, func() {
		at := n.eng.Now() + n.vfDelay()
		if at < f.rxClock {
			at = f.rxClock
		}
		f.rxClock = at
		n.eng.At(at, func() {
			n.vfRx++
			f.deliver.Input(p)
		})
	})
}

// Counters reports per-path packet counts and steering misses.
func (n *NIC) Counters() (vfTx, vfRx, pfTx, pfRx, steerMiss uint64) {
	return n.vfTx, n.vfRx, n.pfTx, n.pfRx, n.steerMiss
}
