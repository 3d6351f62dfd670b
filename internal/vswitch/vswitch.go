// Package vswitch implements the hypervisor's software switch — the Open
// vSwitch role of §2.2: a user-space slow path holding tenant security
// rules, a kernel fast path with an O(1) exact-match cache, VXLAN
// tunneling toward remote servers, and htb (`tc`) rate limiting on VM
// virtual interfaces. All per-packet work is charged to the host's network
// CPU station via the Exec hook, and the serialized qdisc work to a
// per-VIF station, so CPU contention and queueing latency emerge in the
// simulation exactly where they arise on a real server.
package vswitch

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/ratelimit"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/tunnel"
)

// Exec submits work with the given CPU cost to a processing station and
// runs fn when the work completes. internal/host's CPUStation provides it.
type Exec func(cost time.Duration, fn func())

// Inline is an Exec that charges nothing and runs immediately — useful in
// unit tests that exercise switching logic without a CPU model.
var Inline Exec = func(_ time.Duration, fn func()) { fn() }

// VMKey identifies a VM attachment: tenant plus tenant-assigned IP
// (overlapping across tenants, requirement C1).
type VMKey struct {
	Tenant packet.TenantID
	IP     packet.IP
}

// vport is one VM's virtual interface attachment.
type vport struct {
	key     VMKey
	rules   *rules.VMRules
	deliver fabric.Port
	// htbExec serializes qdisc work for this VIF (the qdisc lock).
	htbExec         Exec
	egress, ingress vifDir
}

// vifDir is one direction of a VIF.
type vifDir struct {
	// bucket is the shaping bucket; nil = no limit.
	bucket *ratelimit.TokenBucket
	// clock enforces FIFO delivery: jittered path latencies never reorder
	// packets within a direction, matching the in-order softirq queues of a
	// real vswitch.
	clock time.Duration
	// meter observes the achieved rate for FPS max-out detection.
	meter ratelimit.UsageMeter
}

// Switch is one server's vswitch.
type Switch struct {
	eng *sim.Engine
	cm  *model.CostModel
	cfg model.VSwitchConfig

	serverIP packet.IP
	hostExec Exec
	uplink   fabric.Port

	vports  map[VMKey]*vport
	tunnels *rules.TunnelTable
	// core is the fast path: the exact-match table and, between it and the
	// user-space rule scan, the megaflow wildcard cache (see flowcore.go).
	core flowCore
	// sched is the slow path's bounded-queue DRR scheduler and overload
	// governor (see overload.go). It also coalesces concurrent misses for
	// the same flow onto one user-space rule scan.
	sched *upcallSched

	// HostCPU accounts all vswitch CPU time (reported by Fig. 4).
	HostCPU *metrics.CPUAccount

	// OnOverload, when set, receives a signal on every overload-detector
	// state transition: entering overload (the "emergency offload" hint the
	// local controller forwards to the DE), offender changes, and recovery.
	OnOverload func(OverloadSignal)

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	// Hot paths guard with a single pointer test before building events.
	rec *telemetry.Scoped

	upcalls       uint64
	upcallsServed uint64
	denied        uint64
	unrouted      uint64
	txPackets     uint64
	rxPackets     uint64
	drops         metrics.DropCounters
}

// New builds a vswitch for the server at serverIP. hostExec runs the
// shared host network CPUs; uplink leads to the NIC's physical port.
func New(eng *sim.Engine, cm *model.CostModel, cfg model.VSwitchConfig, serverIP packet.IP, hostExec Exec, uplink fabric.Port) *Switch {
	return &Switch{
		eng: eng, cm: cm, cfg: cfg,
		serverIP: serverIP,
		hostExec: hostExec,
		uplink:   uplink,
		vports:   make(map[VMKey]*vport),
		tunnels:  rules.NewTunnelTable(),
		core:     newFlowCore(),
		sched:    newUpcallSched(DefaultOverloadConfig()),
		HostCPU:  &metrics.CPUAccount{},
	}
}

// SetOverloadConfig replaces the slow path's overload-protection
// parameters. It resets the scheduler, so it should be called at
// configuration time, before traffic flows.
func (s *Switch) SetOverloadConfig(cfg OverloadConfig) {
	s.sched = newUpcallSched(cfg)
}

// Overloaded reports whether the slow-path overload detector is currently
// in the overloaded state.
func (s *Switch) Overloaded() bool { return s.sched.overloaded }

// OverloadEvents reports how many times the detector entered and left the
// overloaded state.
func (s *Switch) OverloadEvents() (entered, recovered uint64) {
	return s.sched.Entered, s.sched.Recovered
}

// UpcallStats returns per-tenant slow-path service accounting, sorted by
// tenant ID.
func (s *Switch) UpcallStats() []UpcallStats { return s.sched.snapshotStats() }

// AttachVM connects a VM's VIF. vmRules holds the tenant's security/QoS
// rules for the VM; deliver receives packets destined to the VM; htbExec
// is the VIF's serialized qdisc station.
func (s *Switch) AttachVM(key VMKey, vmRules *rules.VMRules, deliver fabric.Port, htbExec Exec) {
	if htbExec == nil {
		htbExec = Inline
	}
	s.vports[key] = &vport{key: key, rules: vmRules, deliver: deliver, htbExec: htbExec}
	// Wildcard verdicts covering this VM's address were computed without
	// its rules; new flows must re-classify against the attached vport.
	for _, p := range key.flowPatterns() {
		s.core.mega.invalidate(p)
	}
}

// flowPatterns covers the VM's flows: its address as source, and as
// destination.
func (key VMKey) flowPatterns() [2]rules.Pattern {
	return [2]rules.Pattern{
		{Tenant: key.Tenant, Src: key.IP, SrcPrefix: 32},
		{Tenant: key.Tenant, Dst: key.IP, DstPrefix: 32},
	}
}

// DetachVM removes a VM (it is migrating away); its fast-path entries are
// purged.
func (s *Switch) DetachVM(key VMKey) {
	delete(s.vports, key)
	for _, p := range key.flowPatterns() {
		s.core.invalidate(p)
		s.cancelInstalls(p)
	}
}

// cancelInstalls keeps pending upcalls for flows p covers from installing
// their verdict when the scan completes: the scan still runs — its waiters
// need a verdict — but what was flushed (the VM detached, or the DE just
// offloaded the flow to hardware) must not be resurrected.
func (s *Switch) cancelInstalls(p rules.Pattern) {
	for k, job := range s.sched.pending {
		if p.Match(k) {
			job.install = false
		}
	}
}

// SetTunnel installs a (tenant, remote VM IP) → remote server mapping.
func (s *Switch) SetTunnel(m rules.TunnelMapping) { s.tunnels.Set(m) }

// RemoveTunnel drops a mapping (VM migration updates, requirement S4).
func (s *Switch) RemoveTunnel(tenant packet.TenantID, vmIP packet.IP) {
	s.tunnels.Remove(tenant, vmIP)
}

// SetVIFLimits installs htb shaping rates on a VM's VIF; zero disables a
// direction. FasTrak's local DE calls this every control interval with the
// FPS split Rs (§4.3.2).
func (s *Switch) SetVIFLimits(key VMKey, egressBps, ingressBps float64) error {
	vp, ok := s.vports[key]
	if !ok {
		return fmt.Errorf("vswitch: no such VM %v", key)
	}
	now := s.eng.Now()
	vp.egress.bucket = makeBucket(vp.egress.bucket, now, egressBps)
	vp.ingress.bucket = makeBucket(vp.ingress.bucket, now, ingressBps)
	return nil
}

func makeBucket(cur *ratelimit.TokenBucket, now time.Duration, bps float64) *ratelimit.TokenBucket {
	if bps <= 0 {
		return nil
	}
	if cur != nil {
		cur.SetRate(now, bps)
		return cur
	}
	// htb-like burst: ~1 ms at rate, floor of four MTUs.
	burst := math.Max(bps/1000, 4*1500*8)
	return ratelimit.NewTokenBucket(bps, burst)
}

// VIFRates samples a VM's achieved VIF rates (egress, ingress) in bps and
// whether each direction is maxed out against the given limits.
func (s *Switch) VIFRates(key VMKey) (egressBps, ingressBps float64, ok bool) {
	vp, found := s.vports[key]
	if !found {
		return 0, 0, false
	}
	now := s.eng.Now()
	return vp.egress.meter.Sample(now), vp.ingress.meter.Sample(now), true
}

// Invalidate flushes fast-path entries matching a pattern — exact-match
// entries the pattern covers and megaflow entries whose wildcard region
// overlaps it (the OVS revalidation rule that keeps the cache
// semantically transparent) — and returns how many exact-match entries
// it flushed. The FasTrak local controller calls it when rules for
// offloaded flows change.
func (s *Switch) Invalidate(p rules.Pattern) int {
	// Megaflow removals are accounted in CacheCounters.Invalidations; the
	// return value counts exact-match flushes only (the seed contract).
	flushed, megaFlushed := s.core.invalidate(p)
	if s.rec != nil {
		s.rec.EmitPattern(telemetry.KindInvalidate, p.Tenant, p, "", float64(flushed), float64(megaFlushed))
	}
	s.cancelInstalls(p)
	return flushed
}

// exec charges the host station and accounts the time.
func (s *Switch) exec(cost time.Duration, fn func()) {
	s.HostCPU.Charge(cost)
	s.hostExec(cost, fn)
}

// OutputFromVM processes a packet a VM sends through its VIF: fast-path
// (or slow-path) rule check, htb shaping, VXLAN encap, then the NIC.
func (s *Switch) OutputFromVM(key VMKey, p *packet.Packet) {
	vp, ok := s.vports[key]
	if !ok {
		s.unrouted++
		return
	}
	p.Tenant = key.Tenant
	p.Meta.Path = "vif"
	cost := s.cm.VSwitchUnitCost(p.PayloadLen(), s.cfg)
	s.exec(cost, func() {
		// The flow key is extracted once per packet and threaded through
		// classification and transmit (the encap reuses its hash for the
		// VXLAN source port), never re-derived.
		k := p.Key()
		s.classify(vp, k, p, func(v fpVerdict) {
			if !v.allow {
				s.denied++
				if s.rec != nil {
					s.rec.Drop(k.Tenant, k, "denied")
				}
				return
			}
			s.shape(&vp.egress, vp.htbExec, p, func() {
				s.addPathLatency(&vp.egress.clock, func() { s.transmit(vp, k, p) })
			})
		})
	})
}

// classify resolves the packet's verdict via the fast path, falling back
// to the user-space slow path on a miss (§2.2). Lookup order is
// exact-match table, then the megaflow wildcard cache (a hit installs an
// exact entry so per-flow statistics keep accruing for the ME poll), then
// the slow path. Slow-path misses pass through the overload governor:
// bounded per-VIF queues, DRR admission across tenants, and (when the
// host is overloaded by a dominant tenant) per-VIF miss-rate clamping.
// Packets refused at admission are dropped with exact per-cause
// accounting.
func (s *Switch) classify(vp *vport, k packet.FlowKey, p *packet.Packet, then func(fpVerdict)) {
	h := flowSlotHash(k)
	if e := s.core.exact.lookup(k, h); e != nil {
		s.accrue(e, p)
		if s.rec != nil {
			s.rec.Hit(telemetry.KindExactHit, k.Tenant, k)
		}
		then(e.verdict())
		return
	}
	if e := s.core.promote(k, h); e != nil {
		s.accrue(e, p)
		if s.rec != nil {
			s.rec.Hit(telemetry.KindMegaflowHit, k.Tenant, k)
			s.rec.Emit(telemetry.KindExactInstall, k.Tenant, k, "megaflow", 0, 0)
		}
		then(e.verdict())
		return
	}
	now := s.eng.Now()
	// Concurrent misses for the same flow coalesce onto the pending scan.
	waiter := func(v fpVerdict) {
		if e := s.core.exact.lookup(k, h); e != nil {
			s.accrue(e, p)
		}
		then(v)
	}
	if job, pending := s.sched.pending[k]; pending {
		job.waiters = append(job.waiters, waiter)
		return
	}
	job := &upcallJob{
		key:     k,
		vif:     vp.key,
		cost:    s.cm.SlowPathCost(s.ruleCount(k)),
		install: true,
		waiters: []func(fpVerdict){waiter},
	}
	switch s.sched.admit(now, job) {
	case admitOK:
		s.upcalls++
		if s.rec != nil {
			s.rec.Emit(telemetry.KindUpcall, k.Tenant, k, "", float64(s.sched.inFlight), 0)
		}
		s.pumpUpcalls()
	case admitQueueFull:
		s.drops.UpcallQueue++
		if s.rec != nil {
			s.rec.Drop(k.Tenant, k, "upcall-queue")
		}
	case admitClamped:
		s.drops.Clamp++
		if s.rec != nil {
			s.rec.Drop(k.Tenant, k, "clamp")
		}
	}
	s.overloadEval()
}

// pumpUpcalls dispatches queued upcalls onto the host CPUs up to the
// configured handler-thread concurrency.
func (s *Switch) pumpUpcalls() {
	for s.sched.inFlight < s.sched.cfg.MaxInFlight {
		job := s.sched.next()
		if job == nil {
			return
		}
		s.sched.inFlight++
		s.exec(job.cost, func() {
			s.sched.inFlight--
			s.completeUpcall(job)
		})
	}
}

// completeUpcall finishes a slow-path scan: install the verdict (unless
// an invalidation covering the flow landed mid-scan), wake the waiters,
// and keep the pipeline full.
func (s *Switch) completeUpcall(job *upcallJob) {
	k := job.key
	src, dst := s.endpoint(k.Tenant, k.Src), s.endpoint(k.Tenant, k.Dst)
	var v fpVerdict
	if job.install {
		e, _, mask := s.core.miss(k, flowSlotHash(k), src, dst)
		v = e.verdict()
		if s.rec != nil {
			s.rec.Emit(telemetry.KindExactInstall, k.Tenant, k, "upcall", 0, 0)
			s.rec.Emit(telemetry.KindMegaflowInstall, k.Tenant, k, "", float64(mask.SrcPrefix), float64(mask.DstPrefix))
		}
	} else {
		v, _ = evaluate(k, src, dst)
	}
	s.upcallsServed++
	s.sched.complete(s.eng.Now(), job)
	for _, w := range job.waiters {
		w(v)
	}
	s.pumpUpcalls()
	s.overloadEval()
}

// overloadEval runs the overload detector and delivers any state
// transition to the OnOverload hook.
func (s *Switch) overloadEval() {
	if sig, changed := s.sched.evaluate(s.eng.Now()); changed {
		if s.rec != nil {
			s.rec.Record(telemetry.Event{
				Kind:   telemetry.KindOverload,
				Cause:  overloadCause(sig),
				Tenant: sig.Offender,
				V1:     sig.Utilization,
				V2:     sig.MissPPS,
			})
		}
		if s.OnOverload != nil {
			s.OnOverload(sig)
		}
	}
}

// EnableSketch routes every fast-path accrual into sk in addition to the
// exact-cache statistics. Call before traffic starts; the slow path runs
// single-threaded on the simulator loop, so no locking is needed.
func (s *Switch) EnableSketch(sk *sketch.ShardSketch) { s.core.sk = sk }

// accrue charges one packet to its flow's entry: its wire bytes, and as
// many packets as TSO cuts it into, so pps statistics reflect on-the-wire
// packet counts.
func (s *Switch) accrue(e *flowEntry, p *packet.Packet) {
	s.core.accrue(e, uint64(max(1, model.Segments(p.PayloadLen()))), uint64(p.WireLen()))
}

// endpoint returns the compiled rules of the VM attached at the address,
// or nil.
func (s *Switch) endpoint(tenant packet.TenantID, ip packet.IP) *rules.CompiledVM {
	if vp, ok := s.vports[VMKey{Tenant: tenant, IP: ip}]; ok {
		return vp.rules.Compile()
	}
	return nil
}

func (s *Switch) ruleCount(k packet.FlowKey) int {
	n := s.cfg.SecurityRules
	if vp, ok := s.vports[VMKey{Tenant: k.Tenant, IP: k.Src}]; ok {
		n += len(vp.rules.Security)
	}
	if k.Dst != k.Src {
		if vp, ok := s.vports[VMKey{Tenant: k.Tenant, IP: k.Dst}]; ok {
			n += len(vp.rules.Security)
		}
	}
	return n
}

// shape applies one direction of a VIF's htb: the serialized qdisc cost,
// charged to qdisc (the vport's htbExec; Inline on the offloaded path, where
// the NIC enforces the limit and the host pays nothing), then the
// token-bucket shaping delay.
func (s *Switch) shape(d *vifDir, qdisc Exec, p *packet.Packet, then func()) {
	if s.cfg.RateLimitBps > 0 && d.bucket == nil {
		// Microbenchmark config: fixed per-VIF limit.
		d.bucket = makeBucket(nil, s.eng.Now(), s.cfg.RateLimitBps)
	}
	bucket := d.bucket
	if bucket == nil {
		d.meter.Record(p.WireLen())
		then()
		return
	}
	qdisc(s.cm.HTBPerPacket, func() {
		delay, ok := bucket.ReserveLimit(s.eng.Now(), p.WireLen(), maxShapeDelay)
		if !ok {
			s.drops.Shape++
			if s.rec != nil {
				s.rec.Drop(p.Tenant, p.Key(), "shape")
			}
			return
		}
		d.meter.Record(p.WireLen())
		s.eng.After(delay, then)
	})
}

// maxShapeDelay bounds the htb backlog: packets that would wait longer
// are tail-dropped, as a real qdisc's finite queue does.
const maxShapeDelay = 50 * time.Millisecond

// addPathLatency applies the software path's one-way floor plus
// exponential jitter (§3.2.4: software delays are less predictable),
// clamped to the direction's FIFO clock so packets of a vport never
// reorder.
func (s *Switch) addPathLatency(clock *time.Duration, then func()) {
	d := s.cm.PathLatency(s.cfg)
	if s.cm.SoftJitterMean > 0 {
		d += time.Duration(s.eng.Rand().ExpFloat64() * float64(s.cm.SoftJitterMean))
	}
	at := s.eng.Now() + d
	if at < *clock {
		at = *clock
	}
	*clock = at
	s.eng.At(at, then)
}

// transmit encapsulates (when tunneling) and hands the packet to the NIC.
// Local destination VMs are delivered directly, as a vswitch switches
// intra-host traffic without touching the wire.
func (s *Switch) transmit(src *vport, k packet.FlowKey, p *packet.Packet) {
	if dst, ok := s.vports[VMKey{Tenant: p.Tenant, IP: p.IP.Dst}]; ok {
		s.txPackets++
		s.deliverLocal(dst, p)
		return
	}
	if s.cfg.Tunneling {
		m, ok := s.tunnels.Lookup(p.Tenant, p.IP.Dst)
		if !ok {
			s.unrouted++
			if s.rec != nil {
				s.rec.Drop(k.Tenant, k, "no-tunnel")
			}
			return
		}
		outer, err := tunnel.VXLANEncapHashed(s.serverIP, m.Remote, p.Tenant, p, k.FastHash())
		if err != nil {
			s.unrouted++
			if s.rec != nil {
				s.rec.Drop(k.Tenant, k, "encap")
			}
			return
		}
		s.txPackets++
		s.uplink.Input(outer)
		return
	}
	s.txPackets++
	s.uplink.Input(p)
}

// TransmitOffloaded carries a packet the host's SmartNIC already
// classified and forwarded in hardware: classification, the slow path and
// the htb qdisc's CPU cost are all bypassed, but the VIF's token-bucket
// rate limit still applies (the NIC enforces the same tenant shaping the
// software path does), and the packet is metered and counted exactly like
// a software transmit before the normal encap/wire stage.
func (s *Switch) TransmitOffloaded(key VMKey, p *packet.Packet) {
	vp, ok := s.vports[key]
	if !ok {
		s.unrouted++
		return
	}
	p.Tenant = key.Tenant
	k := p.Key()
	s.shape(&vp.egress, Inline, p, func() { s.transmit(vp, k, p) })
}

func (s *Switch) deliverLocal(dst *vport, p *packet.Packet) {
	dst.ingress.meter.Record(p.WireLen())
	dst.deliver.Input(p)
}

// InputFromNIC processes a packet arriving on the physical port for this
// server: VXLAN decap (when tunneling), rule check, ingress shaping, then
// delivery to the destination VM's VIF.
func (s *Switch) InputFromNIC(p *packet.Packet) {
	cost := s.cm.VSwitchUnitCost(p.PayloadLen(), s.cfg)
	s.exec(cost, func() {
		inner := p
		if s.cfg.Tunneling && p.UDP != nil && p.UDP.DstPort == packet.VXLANPort {
			dec, tenant, err := tunnel.VXLANDecap(p)
			if err != nil {
				s.unrouted++
				if s.rec != nil {
					s.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "decap"})
				}
				return
			}
			inner = dec
			inner.Tenant = tenant
			// The outer frame is dead once the inner has been extracted
			// (decap shares no memory with it); recycle its buffers.
			tunnel.Release(p)
		}
		vp, ok := s.vports[VMKey{Tenant: inner.Tenant, IP: inner.IP.Dst}]
		if !ok {
			s.unrouted++
			if s.rec != nil {
				s.rec.Drop(inner.Tenant, inner.Key(), "no-vport")
			}
			return
		}
		k := inner.Key()
		s.classify(vp, k, inner, func(v fpVerdict) {
			if !v.allow {
				s.denied++
				if s.rec != nil {
					s.rec.Drop(k.Tenant, k, "denied")
				}
				return
			}
			s.shape(&vp.ingress, vp.htbExec, inner, func() {
				s.addPathLatency(&vp.ingress.clock, func() {
					s.rxPackets++
					vp.deliver.Input(inner)
				})
			})
		})
	})
}

// FlowStats snapshots the fast path's per-flow counters — what the local
// controller's ME polls ("queries the OVS datapath for active flow
// statistics", §5.2).
type FlowStats struct {
	Key     packet.FlowKey
	Packets uint64
	Bytes   uint64
}

// Snapshot returns current per-flow counters, in no particular order.
func (s *Switch) Snapshot() []FlowStats {
	out := make([]FlowStats, 0, s.core.exact.live)
	s.core.exact.each(func(e *flowEntry) {
		out = append(out, FlowStats{Key: e.key, Packets: e.pkts, Bytes: e.bytes})
	})
	return out
}

// Telemetry is the switch's aggregate counter snapshot. Every packet the
// switch intentionally discards is charged to exactly one Drops cause, so
// conservation equations over Telemetry close exactly.
type Telemetry struct {
	// Tx/Rx count packets transmitted toward the fabric (or delivered
	// locally) and received for local VMs.
	Tx, Rx uint64
	// Upcalls counts slow-path misses admitted to the scheduler;
	// UpcallsServed those whose rule scan completed.
	Upcalls, UpcallsServed uint64
	// Denied counts packets rejected by security rules; Unrouted packets
	// with no attached destination or tunnel mapping.
	Denied, Unrouted uint64
	// Drops is the per-cause intentional-drop accounting.
	Drops metrics.DropCounters
	// Megaflow is the wildcard decision cache's hit/miss/churn accounting.
	Megaflow metrics.CacheCounters
}

// Counters reports aggregate statistics.
func (s *Switch) Counters() Telemetry {
	return Telemetry{
		Tx:            s.txPackets,
		Rx:            s.rxPackets,
		Upcalls:       s.upcalls,
		UpcallsServed: s.upcallsServed,
		Denied:        s.denied,
		Unrouted:      s.unrouted,
		Drops:         s.drops,
		Megaflow:      s.core.mega.stats,
	}
}

// ActiveFlows returns the number of fast-path entries.
func (s *Switch) ActiveFlows() int { return s.core.exact.live }
