// Package core implements FasTrak's rule manager — the paper's primary
// contribution (§4.3): "a distributed system of controllers ... a local
// controller for every physical server, and a TOR controller for every
// TOR switch". Local controllers measure VM network demand by polling the
// vswitch datapath and program flow placers; the TOR controller merges
// demand reports with hardware counters, selects the most-frequently-used
// high-pps flows for offload within the ToR's rule budget, and manages the
// hardware rule set (ACLs, tunnel mappings, QoS, rate limits) as one
// unified set with the software rules.
//
// All controller communication uses the binary control protocol of
// internal/openflow over deterministic in-simulation transports, so every
// control exchange round-trips through real wire encoding.
package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/tor"
	"repro/internal/vswitch"
)

// Config parameterizes the rule manager.
type Config struct {
	// Measure configures each ME (epoch T, sample gap t, N, M,
	// aggregation policy).
	Measure measure.Config
	// ControlDelay is the one-way latency of control-plane messages
	// (controller ↔ controller and controller ↔ flow placer).
	ControlDelay time.Duration
	// MinScore filters flows not worth a hardware entry.
	MinScore float64
	// HysteresisRatio guards against offload thrashing (≥1).
	HysteresisRatio float64
	// MaxOffloads caps how many patterns may be in hardware at once
	// (0 = limited only by TCAM capacity). The paper's Table 4
	// experiment runs with a cap of 1 ("we have modified FasTrak to
	// offload only one").
	MaxOffloads int
	// PriorityOf returns the tenant preference multiplier c (§4.3.2);
	// nil means 1 for everyone.
	PriorityOf func(packet.TenantID) float64
	// Groups lists all-or-nothing pattern sets — tenant preferences for
	// partition-aggregate applications whose flows must be "handled in
	// hardware, or none at all" (§4.3.2). SetAtomicGroup appends.
	Groups [][]rules.Pattern

	// NICMinScore filters flows not worth a SmartNIC entry on the middle
	// tier of the software → SmartNIC → TCAM ladder (active only when
	// servers carry SmartNICs; see cluster.Config.SmartNIC).
	NICMinScore float64
	// NICTenantQuota caps NIC rules per tenant per host (0 = no quota),
	// mirroring the device-side quota in smartnic.Config so the DE does
	// not place rules the NIC would reject.
	NICTenantQuota int

	// Damper configures BGP-style flap damping of offload-state
	// transitions, layered on HysteresisRatio (zero value = defaults; see
	// internal/decision/damper.go).
	Damper decision.DamperConfig
	// Smoother configures staleness-aware smoothing of offload
	// candidates across control intervals (zero value = defaults).
	Smoother decision.SmootherConfig

	// SketchAccounting switches each local controller's measurement feed
	// from exact per-flow datapath snapshots to the streaming heavy-hitter
	// accountant of internal/sketch (count-min + space-saving top-k): the
	// vswitch fast path accrues into the sketch as packets classify, and
	// the ME samples the top-k pattern report instead of walking every
	// exact-cache entry. Demand reports carry an openflow.SketchMeta
	// tail; the TOR decision engine is the same in both modes. Off (the
	// default) preserves the exact path byte for byte — it remains the
	// differential-testing oracle.
	SketchAccounting bool
	// Sketch parameterizes the accountant when SketchAccounting is set
	// (zero value = sketch defaults: k=1024, 2048×4 counters). The
	// Aggregate knob is overridden to match Measure.Aggregate so sketch
	// and exact modes key statistics identically.
	Sketch sketch.Config

	// HA configures control-plane high availability: hot-standby TOR
	// controller replicas with epoch-fenced leader election, and lease-
	// based fail-safe expiry of hardware placements. The zero value is a
	// group of one replica without leases.
	HA HAConfig
}

// HAConfig parameterizes the control-plane high-availability machinery.
type HAConfig struct {
	// Replicas is the number of TOR controller instances per rack (≤1
	// means a group of one: it leads term 1 for good, and its messages
	// are fenced like any leader's). Replica 0 bootstraps as leader; on
	// its failure the lowest-id alive replica takes over. Leadership
	// terms are partitioned across replicas — replica i only claims
	// terms with (term-1) mod Replicas == i — so two replicas can never
	// lead under the same term; the switch agent fences stale terms,
	// making election purely a liveness concern.
	Replicas int
	// LeaseTTL enables lease-based fail-safe rules when > 0: every TCAM
	// and SmartNIC placement expires back to the software path unless the
	// leader's reconcile traffic refreshes it, and flow placers stop
	// steering into the express lane after LeaseTTL/2 without leader
	// contact — strictly before the hardware rules expire, so an orphaned
	// lane degrades to software instead of blackholing. Must exceed two
	// reconcile periods (8 control intervals, MinLeaseTTL) so a healthy
	// leader always refreshes in time; the daemons' config loader refuses
	// a shorter one.
	LeaseTTL time.Duration
}

// DefaultConfig returns the prototype's settings (§5.2) with a fast
// epoch.
func DefaultConfig() Config {
	return Config{
		Measure:         measure.DefaultConfig(),
		ControlDelay:    100 * time.Microsecond,
		HysteresisRatio: 1.2,
	}
}

// Manager is a FasTrak deployment over a cluster: one TOR controller per
// ToR switch and one local controller per server (§4.3.3: "There is a
// local controller for every physical server ... and a TOR controller for
// every TOR switch"). Each local controller coordinates only with its
// rack's TOR controller, keeping decisions rack-local and the rule
// manager "inherently scalable".
type Manager struct {
	Cluster *cluster.Cluster
	Cfg     Config

	// TORCtl is rack 0's primary controller, replica 0 (the only one on
	// single-rack clusters); RackCtls lists every rack's full replica
	// group, primary first.
	TORCtl   *TORController
	RackCtls [][]*TORController
	Locals   []*LocalController

	// agents holds each rack's switch agent (shared by the rack's replica
	// group — fencing lives switch-side, not per-connection).
	agents []*switchAgent

	// limits registers tenant-purchased aggregate rates per VM.
	limits map[vswitch.VMKey]aggregateLimit

	// rec is the manager-level flight-recorder scope (migration episodes);
	// nil when telemetry is disabled.
	rec *telemetry.Scoped

	started bool
}

type aggregateLimit struct {
	egressBps, ingressBps float64
}

// newManager is the controller-less manager every constructor starts
// from, with the config's derived defaults filled. Attach and the
// split-service constructors (NewTORService, NewAgentService) share it so
// a parameter set means the same thing in-sim and as daemons.
func newManager(c *cluster.Cluster, cfg Config) *Manager {
	if cfg.ControlDelay <= 0 {
		cfg.ControlDelay = 100 * time.Microsecond
	}
	if cfg.HysteresisRatio < 1 {
		cfg.HysteresisRatio = 1
	}
	if cfg.HA.Replicas < 1 {
		cfg.HA.Replicas = 1
	}
	return &Manager{
		Cluster: c,
		Cfg:     cfg,
		limits:  make(map[vswitch.VMKey]aggregateLimit),
	}
}

// Attach builds a rule manager over the cluster. Call Start to begin
// measurement and offloading.
func Attach(c *cluster.Cluster, cfg Config) *Manager {
	m := newManager(c, cfg)
	for _, t := range c.TORs {
		m.addRack(t)
	}
	m.TORCtl = m.RackCtls[0][0]
	for idx, srv := range c.Servers {
		lc := newLocalController(m, srv)
		lc.rack = c.RackOf(idx)
		m.Locals = append(m.Locals, lc)
		// Bidirectional control channel local ↔ each of the rack's TOR
		// controller replicas (reports are broadcast so standbys stay
		// warm; only the leader answers).
		for _, tc := range m.RackCtls[lc.rack] {
			toTOR, toLocal := openflow.Pair(c.Eng, cfg.ControlDelay, lc, tc)
			lc.toTORs = append(lc.toTORs, toTOR)
			lc.fromTORs = append(lc.fromTORs, toLocal)
			// Servers come in ID order, so agents stay sorted.
			tc.agents = append(tc.agents, agent{id: uint32(srv.ID), tr: toLocal})
		}
	}
	return m
}

// addRack builds rack t's control plane: the lease setting, the switch
// agent, Cfg.HA.Replicas controllers at term 1 with replica 0 leading,
// and the election mesh between them (empty for a group of one).
func (m *Manager) addRack(t *tor.TOR) {
	cfg := m.Cfg
	if cfg.HA.LeaseTTL > 0 {
		t.SetLeaseTTL(cfg.HA.LeaseTTL)
	}
	// One switch agent per rack, shared by the whole replica group:
	// epoch fencing is a property of the switch, not of any one
	// control connection.
	agent := newSwitchAgent(t)
	var rack []*TORController
	for i := 0; i < cfg.HA.Replicas; i++ {
		// Every replica starts in term 1, replica 0's residue class:
		// replica 0 leads it and the standbys follow.
		tc := newTORController(m, t, i)
		// Control connection TOR controller ↔ the switch's management
		// agent: rule installs round-trip real wire encoding and are
		// only trusted once barrier-confirmed.
		tc.toSwitch, tc.fromSwitch = openflow.Pair(m.Cluster.Eng, cfg.ControlDelay, tc, agent)
		rack = append(rack, tc)
	}
	// Pairwise election channels between replicas (heartbeats and
	// term gossip) — independently faultable, so a severed pair can
	// manufacture the dueling-leaders case fencing exists for.
	for i := 0; i < len(rack); i++ {
		for j := i + 1; j < len(rack); j++ {
			toJ, toI := openflow.Pair(m.Cluster.Eng, cfg.ControlDelay, rack[i], rack[j])
			rack[i].el.peers[j] = toJ
			rack[j].el.peers[i] = toI
		}
	}
	m.RackCtls = append(m.RackCtls, rack)
	m.agents = append(m.agents, agent)
}

// Replicas returns rack r's controller replica group (index 0 is the
// bootstrap leader).
func (m *Manager) Replicas(r int) []*TORController { return m.RackCtls[r] }

// LeaderOf returns rack r's current acting leader, or nil during an
// election gap (or while every replica is crashed/paused).
func (m *Manager) LeaderOf(r int) *TORController {
	for _, tc := range m.RackCtls[r] {
		if tc.IsLeader() {
			return tc
		}
	}
	return nil
}

// FenceStats sums the switch agents' fencing counters across racks:
// messages rejected for carrying a stale leadership term, and — the
// split-brain invariant, which must stay zero — terms in which two
// different controller replicas acted.
func (m *Manager) FenceStats() (fenced, termConflicts uint64) {
	for _, a := range m.agents {
		fenced += a.FencedInstalls
		termConflicts += a.TermConflicts
	}
	return
}

// RegisterFaults names every fault surface of the deployment on the
// injector: the cluster's links and SmartNICs (cluster.RegisterFaults),
// and the rule manager's own. Channel "local<i>-tor" is server i's
// control connection to its rack's primary TOR controller,
// "torctl<r>-switch" is rack r's primary
// controller↔switch-agent connection, table "tor<r>" is rack r's TCAM
// install path, and controller "torctl<r>" is rack r's crashable TOR
// controller process. Each server's measurement engine is additionally
// registered as stats tap "stats<i>" so plans can lose or delay its
// demand reports.
//
// With controller replication the extra replicas get suffixed names
// ("torctl<r>.<i>", "torctl<r>.<i>-switch", "local<s>-tor.<i>"), the
// pairwise election channels become "elect<r>.<i>-<j>", and every replica
// is additionally registered as a partitionable node (symmetric and
// asymmetric network partitions) and as a pausable process.
func (m *Manager) RegisterFaults(inj *faults.Injector) {
	m.Cluster.RegisterFaults(inj)
	for i, lc := range m.Locals {
		for j, tr := range lc.toTORs {
			name := fmt.Sprintf("local%d-tor", i)
			if j > 0 {
				name = fmt.Sprintf("local%d-tor.%d", i, j)
			}
			inj.RegisterChannel(name, tr, lc.fromTORs[j])
		}
		inj.RegisterStatsTap(fmt.Sprintf("stats%d", i), lc.me)
	}
	for r, rack := range m.RackCtls {
		inj.RegisterTable(fmt.Sprintf("tor%d", r), rack[0].tor)
		for i, tc := range rack {
			base := fmt.Sprintf("torctl%d", r)
			if i > 0 {
				base = fmt.Sprintf("torctl%d.%d", r, i)
			}
			inj.RegisterChannel(base+"-switch", tc.toSwitch, tc.fromSwitch)
			inj.RegisterController(base, tc)
			inj.RegisterPausable(base, tc)
			// Partition surface: every channel direction delivering to
			// (inbound) or sent by (outbound) this replica — switch
			// connection, local-controller connections, election peers.
			var in, out []faults.Channel
			in = append(in, tc.fromSwitch)
			out = append(out, tc.toSwitch)
			for _, lc := range m.Locals {
				if lc.rack == r {
					in = append(in, lc.toTORs[i])
				}
			}
			for _, a := range tc.agents {
				out = append(out, a.tr)
			}
			for j, other := range rack {
				if j == i {
					continue
				}
				in = append(in, other.el.peers[i])
				out = append(out, tc.el.peers[j])
			}
			inj.RegisterPartition(base, in, out)
		}
		for i := 0; i < len(rack); i++ {
			for j := i + 1; j < len(rack); j++ {
				inj.RegisterChannel(fmt.Sprintf("elect%d.%d-%d", r, i, j),
					rack[i].el.peers[j], rack[j].el.peers[i])
			}
		}
	}
}

// Start begins periodic measurement and decision-making.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	for _, lc := range m.Locals {
		lc.start()
	}
	for _, rack := range m.RackCtls {
		for _, tc := range rack {
			tc.start()
		}
	}
}

// Stop halts all controllers.
func (m *Manager) Stop() {
	if !m.started {
		return
	}
	m.started = false
	for _, lc := range m.Locals {
		lc.stop()
	}
	for _, rack := range m.RackCtls {
		for _, tc := range rack {
			tc.stop()
		}
	}
}

// SetVMLimit registers a VM's purchased aggregate transmit/receive rates
// (requirement I3). FasTrak splits them across VIF and VF with FPS every
// control interval.
func (m *Manager) SetVMLimit(tenant packet.TenantID, vmIP packet.IP, egressBps, ingressBps float64) {
	key := vswitch.VMKey{Tenant: tenant, IP: vmIP}
	m.limits[key] = aggregateLimit{egressBps: egressBps, ingressBps: ingressBps}
	// Until the first FPS interval, install a conservative even split.
	for _, lc := range m.Locals {
		if _, ok := lc.server.VMs[key]; ok {
			lc.installInitialSplit(key, egressBps, ingressBps)
		}
	}
}

// MigrateVM performs the §4.1.2 migration protocol: offloaded flows are
// first returned to the hypervisor, the network demand profile travels
// with the VM, and after the move the flows become eligible for offload
// at the destination.
func (m *Manager) MigrateVM(fromIdx, toIdx int, tenant packet.TenantID, vmIP packet.IP) error {
	if m.rec != nil {
		m.rec.Record(telemetry.Event{
			Kind: telemetry.KindMigrationStart, Tenant: tenant,
			Cause: fmt.Sprintf("%d:%s", tenant, vmIP),
			V1:    float64(fromIdx), V2: float64(toIdx),
		})
	}
	// 1. Pull every offloaded rule touching this VM back to software —
	// at every rack, since remote racks hold the matching ACLs for
	// cross-rack express lanes. Every replica is asked; only the acting
	// leaders do anything.
	for _, rack := range m.RackCtls {
		for _, tc := range rack {
			tc.demoteVM(tenant, vmIP)
		}
	}
	// 2. Export the demand profile from the source local controller.
	var prof measure.Profile
	if fromIdx >= 0 && fromIdx < len(m.Locals) {
		prof = m.Locals[fromIdx].me.ProfileFor(tenant, vmIP)
	}
	// 3. Move the VM (tunnel mappings update at source and destination).
	if _, err := m.Cluster.MoveVM(fromIdx, toIdx, tenant, vmIP); err != nil {
		return err
	}
	// 4. Seed the destination ME so re-offload can happen on the next
	// control interval ("This network demand profile informs FasTrak of
	// the network characteristics of any new VM", §4.3.1).
	if toIdx >= 0 && toIdx < len(m.Locals) {
		m.Locals[toIdx].me.ImportProfile(prof)
	}
	if m.rec != nil {
		m.rec.Record(telemetry.Event{
			Kind: telemetry.KindMigrationEnd, Tenant: tenant,
			Cause: fmt.Sprintf("%d:%s", tenant, vmIP),
			V1:    float64(fromIdx), V2: float64(toIdx),
		})
	}
	return nil
}

// OffloadedPatterns returns the union of patterns currently placed in
// hardware across all ToRs, sorted and de-duplicated.
func (m *Manager) OffloadedPatterns() []rules.Pattern {
	return m.union((*TORController).offloadedList)
}

// NICPlacedPatterns returns the union of NIC-tier desired patterns across
// all ToRs, sorted and de-duplicated.
func (m *Manager) NICPlacedPatterns() []rules.Pattern {
	return m.union(func(tc *TORController) []rules.Pattern { return rules.SortedPatterns(tc.nicDesired) })
}

// union returns the union of list over every replica of every rack, sorted
// and de-duplicated. Only an acting leader holds a desired set (step-down
// clears it), so the union over replicas is the union over leaders.
func (m *Manager) union(list func(*TORController) []rules.Pattern) []rules.Pattern {
	var out []rules.Pattern
	for _, rack := range m.RackCtls {
		for _, tc := range rack {
			out = append(out, list(tc)...)
		}
	}
	slices.SortFunc(out, rules.Pattern.Compare)
	return slices.Compact(out)
}

// Transports returns every control-plane transport in the deployment:
// each local controller's two directions to its TOR controller and each
// TOR controller's two directions to its switch agent. Useful for
// summing fault-injected drops.
func (m *Manager) Transports() []*openflow.Transport {
	var out []*openflow.Transport
	for _, lc := range m.Locals {
		for i := range lc.toTORs {
			out = append(out, lc.toTORs[i], lc.fromTORs[i])
		}
	}
	for _, rack := range m.RackCtls {
		for _, tc := range rack {
			out = append(out, tc.toSwitch, tc.fromSwitch)
		}
		for i := 0; i < len(rack); i++ {
			for j := i + 1; j < len(rack); j++ {
				out = append(out, rack[i].el.peers[j], rack[j].el.peers[i])
			}
		}
	}
	return out
}

// ControlStats reports control-plane work done so far: messages and
// bytes on all transports, ME samples taken (§6.2.2's controller cost).
func (m *Manager) ControlStats() (messages, bytes, samples uint64) {
	for _, lc := range m.Locals {
		for _, tr := range lc.toTORs {
			messages += tr.Sent
			bytes += tr.SentBytes
		}
		samples += lc.me.Samples
	}
	for _, rack := range m.RackCtls {
		for _, tc := range rack {
			for _, a := range tc.agents {
				messages += a.tr.Sent
				bytes += a.tr.SentBytes
			}
			// Election heartbeats and term gossip are control-plane
			// coordination too (none in a group of one).
			for j, tr := range tc.el.peers {
				if j != tc.el.id {
					messages += tr.Sent
					bytes += tr.SentBytes
				}
			}
		}
	}
	return
}
