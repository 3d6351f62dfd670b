// Package smartnic models a per-host multi-tenant SmartNIC offload tier:
// the middle rung of the placement ladder between the software vswitch and
// the ToR TCAM. The NIC holds a bounded match-action rule table (a
// tuple-space TCAM, like the ToR's but far smaller and with a different
// per-packet cost model), enforces a per-tenant rule quota so one tenant
// cannot exhaust the shared table, and runs a tenant-fair admission stage
// on its processing pipeline: when offered load exceeds the pipeline's
// packet rate, each tenant is held to a max-min fair share of the window
// and the excess is bounced back to the software path.
//
// The cardinal datapath property is that the NIC never drops: every
// outcome other than "forwarded in hardware" — table miss, deny rule,
// pipeline throttle — returns false from TryEgress, and the caller sends
// the packet through the ordinary vswitch slow path. That structural
// fallback is what makes three-tier promotion/demotion blackhole-free: a
// rule can vanish from the NIC at any instant (demotion, reset fault,
// corruption) and the flow degrades to software forwarding, never to loss.
package smartnic

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ErrQuota is returned when an install would push a tenant past its rule
// quota. Distinct from rules.ErrTCAMFull so the controller can tell "table
// exhausted" from "tenant over-subscribed".
var ErrQuota = errors.New("smartnic: tenant rule quota exceeded")

// rulePriority is the priority of controller-installed NIC rules. The NIC
// table holds only placement rules (policy stays in the vswitch and TCAM),
// so a single priority level suffices.
const rulePriority = 10

// Config sizes and prices one SmartNIC. The latency model is deliberately
// distinct from the ToR TCAM's: a NIC lookup is slower than TCAM SRAM but
// saves the host-CPU vswitch cost entirely, and the embedded pipeline has
// a finite packet rate where the ToR forwards at line rate.
type Config struct {
	// Capacity is the match-action table size in rules. Zero disables the
	// NIC tier entirely (the cluster then builds no NIC).
	Capacity int
	// TenantQuota caps rules per tenant; <=0 means Capacity (no quota).
	TenantQuota int
	// LookupLatency is the one-way hardware forwarding floor per packet.
	LookupLatency time.Duration
	// JitterMean is the mean of the exponential jitter added to
	// LookupLatency (embedded pipelines are steadier than software but not
	// SRAM-deterministic).
	JitterMean time.Duration
	// PipelinePPS is the embedded pipeline's packet rate. <=0 disables
	// admission (infinite pipeline).
	PipelinePPS float64
	// Window is the admission accounting window: per-tenant offered load
	// is measured over one window and fair shares computed for the next.
	Window time.Duration
	// AdmitQuantum is the minimum per-window packet allowance any tenant
	// receives while throttling is active (DRR-style quantum: a starved
	// tenant always progresses).
	AdmitQuantum float64
	// Headroom scales the computed fair shares (>1 admits slightly above
	// the water-fill level so shares are not needlessly tight).
	Headroom float64
}

// DefaultConfig returns the reference SmartNIC: a small table relative to
// the ToR TCAM, a 2µs forwarding floor, and a 1 Mpps pipeline.
func DefaultConfig() Config {
	return Config{
		Capacity:      64,
		TenantQuota:   48,
		LookupLatency: 2 * time.Microsecond,
		JitterMean:    500 * time.Nanosecond,
		PipelinePPS:   1e6,
		Window:        10 * time.Millisecond,
		AdmitQuantum:  8,
		Headroom:      1.1,
	}
}

// Normalized returns the configuration with defaults filled in — the
// exact settings a NIC built from c will run with.
func (c Config) Normalized() Config { return c.normalized() }

func (c Config) normalized() Config {
	if c.Capacity < 0 {
		c.Capacity = 0
	}
	if c.TenantQuota <= 0 || c.TenantQuota > c.Capacity {
		c.TenantQuota = c.Capacity
	}
	if c.LookupLatency <= 0 {
		c.LookupLatency = 2 * time.Microsecond
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Millisecond
	}
	if c.AdmitQuantum <= 0 {
		c.AdmitQuantum = 8
	}
	if c.Headroom < 1 {
		c.Headroom = 1
	}
	return c
}

// Forward hands an admitted packet onward; the host wires this to the
// vswitch's offloaded transmit stage (shaping + encap, no classification).
type Forward func(tenant packet.TenantID, srcIP packet.IP, p *packet.Packet)

// FlowSnapshot is one flow's hardware hit counters, polled by the local
// controller's measurement engine alongside the vswitch snapshot.
type FlowSnapshot struct {
	Key            packet.FlowKey
	Packets, Bytes uint64
}

// NIC is one host's SmartNIC. Not safe for concurrent use; the simulation
// is single-threaded by construction.
type NIC struct {
	eng *sim.Engine
	cfg Config

	table     *rules.TCAM
	byPattern map[rules.Pattern]*rules.TCAMEntry
	perTenant map[packet.TenantID]int
	// flows keeps per-flow hit counters under the (possibly aggregate)
	// installed rules so the measurement engine sees hardware-forwarded
	// flows at the same granularity as software ones.
	flows *rules.ExactTable[struct{}]

	adm     admitState
	txClock time.Duration
	forward Forward

	installFault func() error
	counters     metrics.NICCounters
	rec          *telemetry.Scoped

	// Leases, once enabled, makes every installed rule a lease the local
	// controller refreshes on any current-term leader contact: the
	// NIC-tier half of the control-plane HA fail-safe. Covered flows of
	// an expired rule fall back to the vswitch (TryEgress misses).
	// LeaseExpiries counts rules expired.
	rules.Leases
}

// New builds a NIC from cfg. A zero-capacity config still returns a valid
// NIC whose installs all fail with ErrTCAMFull.
func New(eng *sim.Engine, cfg Config) *NIC {
	cfg = cfg.normalized()
	n := &NIC{
		eng:       eng,
		cfg:       cfg,
		table:     rules.NewTCAM(cfg.Capacity),
		byPattern: make(map[rules.Pattern]*rules.TCAMEntry),
		perTenant: make(map[packet.TenantID]int),
		flows:     rules.NewExactTable[struct{}](),
		adm:       newAdmitState(cfg),
	}
	n.Leases = rules.NewLeases(eng, n.expireLease)
	return n
}

// SetForward wires the post-admission delivery hook.
func (n *NIC) SetForward(f Forward) { n.forward = f }

// SetRecorder attaches a telemetry scope (nil-safe, like all scopes).
func (n *NIC) SetRecorder(rec *telemetry.Scoped) { n.rec = rec }

// RegisterMetrics registers the NIC's counters with the central registry.
func (n *NIC) RegisterMetrics(reg *telemetry.Registry, labels ...string) {
	if n == nil || reg == nil {
		return
	}
	reg.Counter("fastrak_nic_hits_total", "SmartNIC rule-table hits", &n.counters.Hits, labels...)
	reg.Counter("fastrak_nic_misses_total", "SmartNIC lookups handed back to the vswitch", &n.counters.Misses, labels...)
	reg.Counter("fastrak_nic_throttled_total", "admissions throttled to the vswitch by the pipeline budget", &n.counters.Throttled, labels...)
	reg.Counter("fastrak_nic_installs_total", "rules installed", &n.counters.Installs, labels...)
	reg.Counter("fastrak_nic_removes_total", "rules removed", &n.counters.Removes, labels...)
	reg.Counter("fastrak_nic_rejects_total", "installs rejected (fault, quota or full table)", &n.counters.Rejects, labels...)
	reg.Gauge("fastrak_nic_rules", "rules currently installed", func() float64 { return float64(n.Len()) }, labels...)
}

// Install upserts a match-action rule. Installs are idempotent (the
// controller reasserts desired state every interval); a fresh install is
// gated by the injected install fault, the tenant quota, and table
// capacity, in that order.
func (n *NIC) Install(p rules.Pattern, queue int) error {
	if _, ok := n.byPattern[p]; ok {
		return nil
	}
	if n.installFault != nil {
		if err := n.installFault(); err != nil {
			n.counters.Rejects++
			if n.rec != nil {
				n.rec.EmitPattern(telemetry.KindNICReject, p.Tenant, p, "fault", float64(n.table.Len()), 0)
			}
			return err
		}
	}
	if !p.AnyTenant && n.perTenant[p.Tenant] >= n.cfg.TenantQuota {
		n.counters.Rejects++
		if n.rec != nil {
			n.rec.EmitPattern(telemetry.KindNICReject, p.Tenant, p, "quota", float64(n.perTenant[p.Tenant]), 0)
		}
		return ErrQuota
	}
	e := &rules.TCAMEntry{Pattern: p, Priority: rulePriority, Action: rules.Allow, Queue: queue}
	if err := n.table.Insert(e); err != nil {
		n.counters.Rejects++
		if n.rec != nil {
			n.rec.EmitPattern(telemetry.KindNICReject, p.Tenant, p, "full", float64(n.table.Len()), 0)
		}
		return err
	}
	n.byPattern[p] = e
	n.StampLease(p)
	if !p.AnyTenant {
		n.perTenant[p.Tenant]++
	}
	n.counters.Installs++
	if n.rec != nil {
		n.rec.EmitPattern(telemetry.KindNICInstall, p.Tenant, p, "", float64(n.table.Len()), 0)
	}
	return nil
}

// Remove deletes a rule and the per-flow counters it covered, returning
// the number of table entries removed (0 if the rule was not installed).
func (n *NIC) Remove(p rules.Pattern) int {
	if _, ok := n.byPattern[p]; !ok {
		return 0
	}
	removed := n.dropRule(p)
	n.counters.Removes++
	if n.rec != nil {
		n.rec.EmitPattern(telemetry.KindNICRemove, p.Tenant, p, "", float64(n.table.Len()), 0)
	}
	return removed
}

// dropRule removes the rule and purges covered flow counters without any
// control-plane accounting (shared by Remove and the fault surfaces).
func (n *NIC) dropRule(p rules.Pattern) int {
	removed := n.table.Remove(p)
	delete(n.byPattern, p)
	n.DropLease(p)
	if !p.AnyTenant {
		if n.perTenant[p.Tenant]--; n.perTenant[p.Tenant] <= 0 {
			delete(n.perTenant, p.Tenant)
		}
	}
	var dead []packet.FlowKey
	n.flows.Entries(func(e *rules.ExactEntry[struct{}]) {
		if p.Match(e.Key) && n.table.Lookup(e.Key) == nil {
			dead = append(dead, e.Key)
		}
	})
	for _, k := range dead {
		n.flows.Remove(k)
	}
	return removed
}

// TryEgress attempts to forward a VM's egress packet in hardware. It
// returns true only when the packet was admitted and scheduled onto the
// wire; any false return leaves the packet untouched for the software
// path (the NIC tier never drops).
func (n *NIC) TryEgress(k packet.FlowKey, p *packet.Packet) bool {
	if n == nil {
		return false
	}
	e := n.table.Lookup(k)
	if e == nil {
		n.counters.Misses++
		return false
	}
	if e.Action != rules.Allow {
		// Policy is never enforced here; bounce to software for the
		// authoritative verdict (and its drop accounting).
		n.counters.Misses++
		return false
	}
	now := n.eng.Now()
	if !n.adm.admit(now, k.Tenant) {
		n.counters.Throttled++
		return false
	}
	e.Stats.Hit(p.WireLen(), now)
	fe := n.flows.Lookup(k)
	if fe == nil {
		fe = n.flows.Install(k, struct{}{})
	}
	fe.Stats.Hit(p.WireLen(), now)
	// TSO: account wire segments beyond the first so pps statistics match
	// on-the-wire packet counts, as the vswitch path does.
	if extra := model.Segments(p.PayloadLen()) - 1; extra > 0 {
		e.Stats.Packets += uint64(extra)
		fe.Stats.Packets += uint64(extra)
	}
	n.counters.Hits++
	if n.rec != nil {
		n.rec.Hit(telemetry.KindNICHit, k.Tenant, k)
	}
	d := n.cfg.LookupLatency
	if n.cfg.JitterMean > 0 {
		d += time.Duration(n.eng.Rand().ExpFloat64() * float64(n.cfg.JitterMean))
	}
	// FIFO clamp: the pipeline never reorders packets it admitted.
	at := now + d
	if at < n.txClock {
		at = n.txClock
	}
	n.txClock = at
	tenant, src := k.Tenant, k.Src
	n.eng.At(at, func() { n.forward(tenant, src, p) })
	return true
}

// Snapshot returns per-flow hardware hit counters, sorted for determinism.
func (n *NIC) Snapshot() []FlowSnapshot {
	if n == nil {
		return nil
	}
	out := make([]FlowSnapshot, 0, n.flows.Len())
	n.flows.Entries(func(e *rules.ExactEntry[struct{}]) {
		out = append(out, FlowSnapshot{Key: e.Key, Packets: e.Stats.Packets, Bytes: e.Stats.Bytes})
	})
	slices.SortFunc(out, func(a, b FlowSnapshot) int { return a.Key.Compare(b.Key) })
	return out
}

// Patterns returns the installed rules sorted by pattern string.
func (n *NIC) Patterns() []rules.Pattern {
	if n == nil {
		return nil
	}
	return rules.SortedPatterns(n.byPattern)
}

// Free returns remaining table capacity (0 on a nil NIC).
func (n *NIC) Free() int {
	if n == nil {
		return 0
	}
	return n.table.Free()
}

// Len returns installed rule count.
func (n *NIC) Len() int {
	if n == nil {
		return 0
	}
	return n.table.Len()
}

// Counters returns the NIC's observability counters.
func (n *NIC) Counters() metrics.NICCounters {
	if n == nil {
		return metrics.NICCounters{}
	}
	return n.counters
}

// SetInstallFault implements faults.HardwareTable: subsequent installs
// consult f (nil clears).
func (n *NIC) SetInstallFault(f func() error) { n.installFault = f }

// expireLease removes a rule whose lease lapsed.
func (n *NIC) expireLease(p rules.Pattern) uint64 {
	n.dropRule(p)
	if n.rec != nil {
		n.rec.EmitPattern(telemetry.KindLeaseExpire, p.Tenant, p, "nic", 1, float64(n.table.Len()))
	}
	return 1
}

// ResetTable models a firmware reset: the whole rule table is lost. The
// controller's per-interval reassert repairs it; until then every covered
// flow degrades to the software path. Returns rules lost.
func (n *NIC) ResetTable() int {
	lost := n.table.Len()
	n.table = rules.NewTCAM(n.cfg.Capacity)
	n.byPattern = make(map[rules.Pattern]*rules.TCAMEntry)
	n.perTenant = make(map[packet.TenantID]int)
	n.flows = rules.NewExactTable[struct{}]()
	n.ClearLeases()
	if n.rec != nil {
		n.rec.Record(telemetry.Event{Kind: telemetry.KindNICReset, Cause: "reset", V1: float64(lost)})
	}
	return lost
}

// CorruptRules models partial table corruption: each installed rule is
// independently lost with probability prob. Returns rules lost.
func (n *NIC) CorruptRules(prob float64, rng *rand.Rand) int {
	lost := 0
	for _, p := range n.Patterns() {
		if rng.Float64() < prob {
			n.dropRule(p)
			lost++
		}
	}
	if n.rec != nil {
		n.rec.Record(telemetry.Event{Kind: telemetry.KindNICReset, Cause: "corrupt", V1: float64(lost)})
	}
	return lost
}

// String summarizes occupancy for logs.
func (n *NIC) String() string {
	return fmt.Sprintf("smartnic %d/%d %s", n.table.Len(), n.cfg.Capacity, n.counters)
}
