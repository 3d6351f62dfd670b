// Package tor models the L3 top-of-rack switch FasTrak offloads rules
// into (§4.1.3, §4.2): VLAN-to-VRF mapping for traffic arriving from
// SR-IOV VFs, per-tenant VRF tables holding explicit-allow ACLs in a
// capacity-limited TCAM, GRE tunnel origination/termination with the
// tenant ID in the key, hardware rate limiters, and QoS queue selection on
// egress. Processing is at line rate with a fixed port-to-port latency —
// no CPU stations — which is precisely the express-lane advantage.
package tor

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fabric"
	"repro/internal/packet"
	"repro/internal/ratelimit"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tunnel"
)

// Direction selects a rate-limit direction at the ToR.
type Direction byte

// Rate limit directions, named from the VM's perspective (§4.1.4: FasTrak
// "enforces separate transmit and receive rate limits").
const (
	// Egress limits traffic the VM transmits through its VF.
	Egress Direction = iota
	// Ingress limits traffic received toward the VM's VF.
	Ingress
)

// vrf is one tenant's virtual routing and forwarding table (§4.1.3).
type vrf struct {
	tenant packet.TenantID
	// tunnels maps remote VM IPs to their ToR loopbacks (GRE offloaded
	// mappings).
	tunnels *rules.TunnelTable
	// localVMs maps VM IPs homed under this ToR to their server's
	// provider address.
	localVMs map[packet.IP]packet.IP
}

type limKey struct {
	tenant packet.TenantID
	vmIP   packet.IP
	dir    Direction
}

// TOR is one top-of-rack switch.
type TOR struct {
	eng *sim.Engine
	// Loopback is the switch's provider address — the GRE tunnel
	// destination for flows homed under it.
	Loopback packet.IP
	// latency is the port-to-port forwarding delay.
	latency time.Duration

	router *fabric.Router
	tcam   *rules.TCAM
	vrfs   map[packet.TenantID]*vrf

	vlanToTenant map[packet.VLANID]packet.TenantID
	tenantToVLAN map[packet.TenantID]packet.VLANID

	limiters map[limKey]*ratelimit.TokenBucket
	meters   map[limKey]*ratelimit.UsageMeter

	// egressQueue returns the QoS class for a packet leaving toward a
	// server or the fabric; it is the TCAM entry's queue when one
	// matched, else best effort.

	aclDrops   uint64
	rateDrops  uint64
	noVRFDrops uint64
	unrouted   uint64
	greRx      uint64
	greTx      uint64

	// installFault, when set, is consulted before every hardware rule
	// install; a non-nil error rejects the install (fault injection —
	// a misbehaving or exhausted TCAM controller).
	installFault   func() error
	installRejects uint64

	// Leases, once enabled, makes every installed ACL a lease the
	// controller refreshes by an idempotent re-install or a current-term
	// table walk. LeaseExpiries counts TCAM entries expired.
	rules.Leases

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	rec *telemetry.Scoped
}

// New builds a ToR with the given loopback address, TCAM capacity, and
// forwarding latency.
func New(eng *sim.Engine, loopback packet.IP, tcamCapacity int, latency time.Duration) *TOR {
	t := &TOR{
		eng:          eng,
		Loopback:     loopback,
		latency:      latency,
		router:       fabric.NewRouter(),
		tcam:         rules.NewTCAM(tcamCapacity),
		vrfs:         make(map[packet.TenantID]*vrf),
		vlanToTenant: make(map[packet.VLANID]packet.TenantID),
		tenantToVLAN: make(map[packet.TenantID]packet.VLANID),
		limiters:     make(map[limKey]*ratelimit.TokenBucket),
		meters:       make(map[limKey]*ratelimit.UsageMeter),
	}
	t.Leases = rules.NewLeases(eng, t.expireLease)
	return t
}

// AddRoute attaches a port for an outer destination (a server's provider
// address on an access link, or another ToR's loopback via the fabric).
func (t *TOR) AddRoute(dst packet.IP, out fabric.Port) { t.router.AddRoute(dst, out) }

// RouteLike maps dst to the same port as an already-routed address —
// used by the microbenchmark harness to route VM addresses flat (the
// baseline-OVS configurations run without tunneling on a single-tenant
// flat network, §3.1).
func (t *TOR) RouteLike(dst, like packet.IP) error {
	port := t.router.PortFor(like)
	if port == nil {
		return fmt.Errorf("tor: no route for %v to mirror", like)
	}
	t.router.AddRoute(dst, port)
	return nil
}

// ConfigureTenant binds a tenant to its access VLAN ("configured by
// FasTrak", §4.2.1) and creates its VRF.
func (t *TOR) ConfigureTenant(tenant packet.TenantID, vlan packet.VLANID) error {
	if cur, ok := t.vlanToTenant[vlan]; ok && cur != tenant {
		return fmt.Errorf("tor: VLAN %d already bound to tenant %d", vlan, cur)
	}
	t.vlanToTenant[vlan] = tenant
	t.tenantToVLAN[tenant] = vlan
	if _, ok := t.vrfs[tenant]; !ok {
		t.vrfs[tenant] = &vrf{
			tenant:   tenant,
			tunnels:  rules.NewTunnelTable(),
			localVMs: make(map[packet.IP]packet.IP),
		}
	}
	return nil
}

// RegisterLocalVM records that a tenant VM lives on the server with the
// given provider address under this ToR; received GRE traffic for it is
// VLAN-tagged and sent down that access port (§4.2.2).
func (t *TOR) RegisterLocalVM(tenant packet.TenantID, vmIP, serverIP packet.IP) error {
	v, ok := t.vrfs[tenant]
	if !ok {
		return fmt.Errorf("tor: tenant %d not configured", tenant)
	}
	v.localVMs[vmIP] = serverIP
	return nil
}

// UnregisterLocalVM removes a VM (migration away).
func (t *TOR) UnregisterLocalVM(tenant packet.TenantID, vmIP packet.IP) {
	if v, ok := t.vrfs[tenant]; ok {
		delete(v.localVMs, vmIP)
	}
}

// SetVRFTunnel installs the GRE mapping for a remote VM: its home ToR's
// loopback. These are the "tunnel mappings" FasTrak offloads (§4.1.3).
func (t *TOR) SetVRFTunnel(tenant packet.TenantID, vmIP, remoteTOR packet.IP) error {
	v, ok := t.vrfs[tenant]
	if !ok {
		return fmt.Errorf("tor: tenant %d not configured", tenant)
	}
	v.tunnels.Set(rules.TunnelMapping{Tenant: tenant, VMIP: vmIP, Remote: remoteTOR})
	return nil
}

// RemoveVRFTunnel drops a mapping.
func (t *TOR) RemoveVRFTunnel(tenant packet.TenantID, vmIP packet.IP) {
	if v, ok := t.vrfs[tenant]; ok {
		v.tunnels.Remove(tenant, vmIP)
	}
}

// SetInstallFault registers a hook consulted by InstallACL before the
// TCAM is touched; a non-nil error rejects the install without side
// effects. nil clears the hook. The fault injector uses this to model
// transient and permanent hardware rule-install rejections.
func (t *TOR) SetInstallFault(f func() error) { t.installFault = f }

// expireLease removes a rule whose lease lapsed.
func (t *TOR) expireLease(p rules.Pattern) uint64 {
	n := t.tcam.Remove(p)
	if t.rec != nil {
		t.rec.EmitPattern(telemetry.KindLeaseExpire, p.Tenant, p, "tcam", float64(n), float64(t.tcam.Len()))
	}
	return uint64(n)
}

// InstallRejects returns how many installs the fault hook rejected.
func (t *TOR) InstallRejects() uint64 { return t.installRejects }

// InstallACL places an explicit-allow (or deny) rule in the shared TCAM,
// failing with rules.ErrTCAMFull when hardware memory is exhausted — the
// budget the TOR DE plans against (§4.3.1) — or with the injected fault's
// error when the install hook rejects it.
func (t *TOR) InstallACL(e *rules.TCAMEntry) error {
	if t.installFault != nil {
		if err := t.installFault(); err != nil {
			t.installRejects++
			if t.rec != nil {
				t.rec.EmitPattern(telemetry.KindTCAMReject, e.Pattern.Tenant, e.Pattern, "fault", float64(t.tcam.Len()), 0)
			}
			return err
		}
	}
	err := t.tcam.Insert(e)
	if err == nil {
		t.StampLease(e.Pattern)
	}
	if t.rec != nil {
		if err != nil {
			t.rec.EmitPattern(telemetry.KindTCAMReject, e.Pattern.Tenant, e.Pattern, "full", float64(t.tcam.Len()), 0)
		} else {
			t.rec.EmitPattern(telemetry.KindTCAMInstall, e.Pattern.Tenant, e.Pattern, "", float64(t.tcam.Len()), 0)
		}
	}
	return err
}

// RemoveACL deletes rules with the exact pattern, freeing TCAM space.
func (t *TOR) RemoveACL(p rules.Pattern) int {
	n := t.tcam.Remove(p)
	t.DropLease(p)
	if t.rec != nil && n > 0 {
		t.rec.EmitPattern(telemetry.KindTCAMRemove, p.Tenant, p, "", float64(t.tcam.Len()), float64(n))
	}
	return n
}

// TCAMCapacity returns the hardware rule budget.
func (t *TOR) TCAMCapacity() int { return t.tcam.Len() + t.tcam.Free() }

// TCAMUsed returns installed hardware rule count.
func (t *TOR) TCAMUsed() int { return t.tcam.Len() }

// ACLStats snapshots per-entry counters for the TOR controller's ME
// ("periodically measures active offloaded flows in the TOR", §4.3).
type ACLStats struct {
	Pattern rules.Pattern
	Packets uint64
	Bytes   uint64
}

// RuleInfo describes one installed hardware rule — the switch agent's
// TableReply payload and reconciliation's "reported hardware state".
type RuleInfo struct {
	Pattern  rules.Pattern
	Priority int
	Queue    int
}

// Rules lists the installed TCAM rules.
func (t *TOR) Rules() []RuleInfo {
	out := make([]RuleInfo, 0, t.tcam.Len())
	t.tcam.Entries(func(e *rules.TCAMEntry) {
		out = append(out, RuleInfo{Pattern: e.Pattern, Priority: e.Priority, Queue: e.Queue})
	})
	return out
}

// HasRule reports whether exactly this rule is installed. The switch
// agent asks on every FlowMod, so it scans in place instead of copying the
// table the way Rules does.
func (t *TOR) HasRule(ri RuleInfo) bool {
	found := false
	t.tcam.Entries(func(e *rules.TCAMEntry) {
		found = found || (e.Pattern == ri.Pattern && e.Priority == ri.Priority && e.Queue == ri.Queue)
	})
	return found
}

// Stats returns current TCAM entry counters.
func (t *TOR) Stats() []ACLStats {
	out := make([]ACLStats, 0, t.tcam.Len())
	t.tcam.Entries(func(e *rules.TCAMEntry) {
		out = append(out, ACLStats{Pattern: e.Pattern, Packets: e.Stats.Packets, Bytes: e.Stats.Bytes})
	})
	return out
}

// SetVFLimit installs (or updates) a hardware rate limit for a VM
// direction; zero removes it. FasTrak applies the FPS hardware split Rh
// here ("rate limits on the SR-IOV VF are applied at the TOR", §4.1.4).
func (t *TOR) SetVFLimit(tenant packet.TenantID, vmIP packet.IP, dir Direction, bps float64) {
	k := limKey{tenant, vmIP, dir}
	if bps <= 0 {
		delete(t.limiters, k)
		return
	}
	if b, ok := t.limiters[k]; ok {
		b.SetRate(t.eng.Now(), bps)
		return
	}
	// A couple of jumbo frames of burst; shaping paces the rest.
	burst := math.Max(bps/1000, 16*1500*8)
	t.limiters[k] = ratelimit.NewTokenBucket(bps, burst)
}

// VFRate samples the achieved rate for a VM direction in bps.
func (t *TOR) VFRate(tenant packet.TenantID, vmIP packet.IP, dir Direction) float64 {
	k := limKey{tenant, vmIP, dir}
	m, ok := t.meters[k]
	if !ok {
		return 0
	}
	return m.Sample(t.eng.Now())
}

func (t *TOR) meter(k limKey) *ratelimit.UsageMeter {
	m, ok := t.meters[k]
	if !ok {
		m = &ratelimit.UsageMeter{}
		t.meters[k] = m
	}
	return m
}

// shape applies the hardware limiter for k: NIC/switch tx rate limiting
// is a pacing scheduler, so conforming packets are delayed to the rate
// and only a full backlog (≈50 ms) drops. ok=false means drop.
func (t *TOR) shape(k limKey, wireLen int) (time.Duration, bool) {
	t.meter(k).Record(wireLen)
	b, ok := t.limiters[k]
	if !ok {
		return 0, true
	}
	return b.ReserveLimit(t.eng.Now(), wireLen, 50*time.Millisecond)
}

// Input implements fabric.Port: one packet arriving on any port.
func (t *TOR) Input(p *packet.Packet) {
	t.eng.After(t.latency, func() { t.process(p) })
}

func (t *TOR) process(p *packet.Packet) {
	switch {
	case p.VLAN != nil:
		t.fromVF(p)
	case p.IP.Proto == packet.ProtoGRE && p.IP.Dst == t.Loopback:
		t.terminateGRE(p)
	default:
		// Plain routed traffic: VXLAN outers between servers, GRE
		// transit toward another ToR ("If the TOR receives a tunneled
		// packet that is not destined for it, it forwards it as per
		// its forwarding tables", §4.2.2).
		t.route(p, 0)
	}
}

// fromVF handles VLAN-tagged express-lane traffic from a server (§4.2.1):
// VLAN → VRF, ACL check, hardware egress limit, GRE encap toward the
// destination ToR.
func (t *TOR) fromVF(p *packet.Packet) {
	tenant, ok := t.vlanToTenant[p.VLAN.ID]
	if !ok {
		t.noVRFDrops++
		if t.rec != nil {
			t.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "no-vrf", V1: float64(p.VLAN.ID)})
		}
		return
	}
	v := t.vrfs[tenant]
	p.VLAN = nil
	p.Tenant = tenant
	key := p.Key()

	entry := t.tcam.Lookup(key)
	if entry == nil || entry.Action != rules.Allow {
		// "If a malicious VM sends disallowed traffic via an SR-IOV
		// interface ... the traffic will hit the default rule and be
		// dropped at the TOR."
		t.aclDrops++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "acl")
		}
		return
	}
	entry.Stats.Hit(p.WireLen(), t.eng.Now())

	delay, ok := t.shape(limKey{tenant, key.Src, Egress}, p.WireLen())
	if !ok {
		t.rateDrops++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "rate")
		}
		return
	}

	m, ok := v.tunnels.Lookup(tenant, p.IP.Dst)
	if !ok {
		t.unrouted++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "no-tunnel")
		}
		return
	}
	outer, err := tunnel.GREEncap(t.Loopback, m.Remote, tenant, p)
	if err != nil {
		t.unrouted++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "encap")
		}
		return
	}
	queue := entry.Queue
	t.eng.After(delay, func() {
		t.greTx++
		if m.Remote == t.Loopback {
			// Destination VM homed under this same ToR: hairpin
			// through GRE termination locally (tunnel source =
			// destination). The packet was classified when it entered
			// this switch; a single-pass pipeline does not re-run the
			// ACL on a packet already sitting in its shaping queues,
			// so the admission verdict rides along even if the rule is
			// deleted before the queue drains.
			t.terminateGREAdmitted(outer, entry)
			return
		}
		t.route(outer, queue)
	})
}

// terminateGRE handles a GRE packet addressed to this ToR (§4.2.2): key →
// VRF, decap, ACL, hardware ingress limit, VLAN tag, access port.
func (t *TOR) terminateGRE(p *packet.Packet) { t.terminateGREAdmitted(p, nil) }

// terminateGREAdmitted is terminateGRE with an optional pre-resolved ACL
// verdict: non-nil for the hairpin case, where this same switch already
// classified the packet at VF admission; nil for GRE arriving off the
// wire, which is classified here — at this switch's own admission point.
func (t *TOR) terminateGREAdmitted(p *packet.Packet, admitted *rules.TCAMEntry) {
	inner, tenant, err := tunnel.GREDecap(p)
	if err != nil {
		t.unrouted++
		if t.rec != nil {
			t.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "gre-decap"})
		}
		return
	}
	// The outer frame is dead once the inner has been extracted (decap
	// shares no memory with it); recycle its buffers.
	tunnel.Release(p)
	t.greRx++
	v, ok := t.vrfs[tenant]
	if !ok {
		t.noVRFDrops++
		if t.rec != nil {
			t.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "no-vrf", Tenant: tenant})
		}
		return
	}
	key := inner.Key()
	entry := admitted
	if entry == nil {
		entry = t.tcam.Lookup(key)
	}
	if entry == nil || entry.Action != rules.Allow {
		t.aclDrops++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "acl")
		}
		return
	}
	entry.Stats.Hit(inner.WireLen(), t.eng.Now())

	delay, ok := t.shape(limKey{tenant, key.Dst, Ingress}, inner.WireLen())
	if !ok {
		t.rateDrops++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "rate")
		}
		return
	}

	serverIP, ok := v.localVMs[inner.IP.Dst]
	if !ok {
		t.unrouted++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "no-local-vm")
		}
		return
	}
	vlan, ok := t.tenantToVLAN[tenant]
	if !ok {
		t.noVRFDrops++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "no-vlan")
		}
		return
	}
	inner.VLAN = &packet.VLAN{ID: vlan}
	// Route down the access port for the VM's server on the QoS queue
	// the tenant's rule selected. The outer addressing is gone; the
	// access port is keyed by server address.
	out := t.accessPortFor(serverIP)
	if out == nil {
		t.unrouted++
		if t.rec != nil {
			t.rec.Drop(tenant, key, "no-access-port")
		}
		return
	}
	queue := entry.Queue
	t.eng.After(delay, func() {
		if ql, ok := out.(queueAware); ok {
			ql.InputQ(queue, inner)
			return
		}
		out.Input(inner)
	})
}

// accessPortFor finds the port for a server's provider address.
func (t *TOR) accessPortFor(serverIP packet.IP) fabric.Port {
	return t.router.PortFor(serverIP)
}

// route forwards by outer destination IP on QoS class q.
func (t *TOR) route(p *packet.Packet, q int) {
	out := t.router.PortFor(p.IP.Dst)
	if out == nil {
		t.unrouted++
		if t.rec != nil {
			t.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "unrouted", Tenant: p.Tenant})
		}
		return
	}
	if ql, ok := out.(queueAware); ok {
		ql.InputQ(q, p)
		return
	}
	out.Input(p)
}

// queueAware lets QoS-class-aware egress ports (link adapters) receive the
// class chosen by the TCAM entry.
type queueAware interface {
	InputQ(q int, p *packet.Packet)
}

// Counters reports drop and tunnel statistics.
func (t *TOR) Counters() (aclDrops, rateDrops, noVRF, unrouted, greRx, greTx uint64) {
	return t.aclDrops, t.rateDrops, t.noVRFDrops, t.unrouted, t.greRx, t.greTx
}
