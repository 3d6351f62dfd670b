// Split-service constructors: the halves of the rule manager that
// internal/service promotes to separate long-lived processes.
//
// Attach wires every controller over one cluster with in-simulation
// transports. A split deployment instead builds
//
//   - a TORService (fastrak-tord): one TOR decision engine plus its
//     switch agent over a host-less cluster standing in for the physical
//     ToR. Local controllers attach over the network as their demand
//     reports arrive and detach when their connection drops;
//   - an AgentService (fastrak-agentd): one local controller plus the
//     full host data plane (vswitch, placers, optional SmartNIC) over a
//     single-server cluster, talking to the ToR through a remote-mode
//     openflow.Transport.
//
// Both reuse the exact controller implementations — the only new code is
// topology assembly and the host-side stand-ins for state that lives on
// the other side of the wire (the express-lane ACL mirror and the
// hardware-counter report augmentation below).
package core

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/tor"
	"repro/internal/vswitch"
)

// TORService is the ToR half of a split rule manager: the decision
// engine, its switch agent, and the TCAM model they program. All methods
// must run on the goroutine (or service runtime loop) that owns the
// cluster's engine.
type TORService struct {
	M  *Manager
	TC *TORController
}

// NewTORService builds the ToR decision engine over c's first ToR. The
// cluster is typically host-light (its TCAM model stands in for the
// physical switch); local controllers are not built here — they attach
// remotely via AttachLocal. The controller is a replica group of one.
func NewTORService(c *cluster.Cluster, cfg Config) *TORService {
	cfg.HA.Replicas = 1
	m := newManager(c, cfg)
	// The controller ↔ switch-agent connection stays in-process (in a
	// real rack they share the switch's management plane): installs keep
	// round-tripping real wire encoding and stay barrier-confirmed.
	m.addRack(c.TORs[0])
	m.TORCtl = m.RackCtls[0][0]
	return &TORService{M: m, TC: m.TORCtl}
}

// AttachLocal registers a connected local controller: decisions and
// RuleSyncs start flowing to tr, and the server's acks gate removals.
// Reattaching an already-known server (an agent reconnect) swaps the
// transport and drops the server's delta base: the process behind the new
// connection may have restarted empty. A RuleSync goes out immediately —
// the full set to the newcomer — so it converges without waiting for the
// anti-entropy cadence.
func (s *TORService) AttachLocal(serverID uint32, tr *openflow.Transport) {
	tc := s.TC
	if i, ok := tc.index(serverID); ok {
		tc.agents[i].tr = tr
		tc.sync.dropBase(serverID)
	} else {
		tc.agents = slices.Insert(tc.agents, i, agent{id: serverID, tr: tr})
	}
	tc.publish()
}

// DetachLocal removes a departed local controller's record and its ack
// ledger entry: a dead server must neither feed stale demand into
// decisions, nor gate ACL removals forever, nor hold the sync log back
// (both run over exactly the attached set). Removals waiting on its ack
// are re-evaluated right away.
func (s *TORService) DetachLocal(serverID uint32) {
	tc := s.TC
	i, ok := tc.index(serverID)
	if !ok {
		return
	}
	tc.agents = slices.Delete(tc.agents, i, i+1)
	delete(tc.sync.peers, serverID)
	tc.inst.tryRemovals(tc.mgr.Cluster.Eng.Now())
}

// AgentIDs returns the currently attached servers, sorted.
func (s *TORService) AgentIDs() []uint32 {
	var out []uint32
	for _, a := range s.TC.agents {
		out = append(out, a.id)
	}
	return out
}

// Start begins the decision cadence; Stop halts it.
func (s *TORService) Start() { s.M.Start() }
func (s *TORService) Stop()  { s.M.Stop() }

// PlacementView is one pattern's position in the install/remove machinery
// — the admin API's placement inspection payload.
type PlacementView struct {
	Pattern rules.Pattern
	// State is "offloaded" (barrier-confirmed, announced to placers),
	// "installing" (waiting for a TCAM slot, or FlowMod sent and barrier
	// pending) or "removing" (demoted, ACL removal gated on acks and
	// grace).
	State string
	// Attempts counts install sends so far (installing only).
	Attempts int
}

// Placements reports every pattern the DE currently tracks in hardware
// or on its way in/out, sorted by state then pattern.
func (s *TORService) Placements() []PlacementView {
	tc := s.TC
	out := make([]PlacementView, 0, len(tc.offloaded)+len(tc.inst.flights))
	for p := range tc.offloaded {
		out = append(out, PlacementView{Pattern: p, State: "offloaded"})
	}
	for p, f := range tc.inst.flights {
		if f.installing() {
			out = append(out, PlacementView{Pattern: p, State: "installing", Attempts: f.attempts})
		} else {
			out = append(out, PlacementView{Pattern: p, State: "removing"})
		}
	}
	slices.SortFunc(out, func(a, b PlacementView) int {
		if c := strings.Compare(a.State, b.State); c != 0 {
			return c
		}
		return a.Pattern.Compare(b.Pattern)
	})
	return out
}

// HardwareRuleView is one installed TCAM entry with its counters.
type HardwareRuleView struct {
	Pattern  rules.Pattern
	Priority int
	Queue    int
	Packets  uint64
	Bytes    uint64
}

// HardwareRules snapshots the TCAM in deterministic order, merging the
// per-rule hit counters.
func (s *TORService) HardwareRules() []HardwareRuleView {
	stats := make(map[rules.Pattern]tor.ACLStats)
	for _, st := range s.TC.tor.Stats() {
		stats[st.Pattern] = st
	}
	ris := s.TC.tor.Rules()
	out := make([]HardwareRuleView, 0, len(ris))
	for _, ri := range ris {
		st := stats[ri.Pattern]
		out = append(out, HardwareRuleView{
			Pattern: ri.Pattern, Priority: ri.Priority, Queue: ri.Queue,
			Packets: st.Packets, Bytes: st.Bytes,
		})
	}
	slices.SortFunc(out, func(a, b HardwareRuleView) int {
		if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
			return c
		}
		return a.Pattern.Compare(b.Pattern)
	})
	return out
}

// TCAMUsage reports used and total TCAM capacity.
func (s *TORService) TCAMUsage() (used, capacity int) {
	return s.TC.tor.TCAMUsed(), s.TC.tor.TCAMCapacity()
}

// Pin force-starts the confirm-then-announce install sequence for a
// pattern (admin rule CRUD). The rule enters the normal machinery, so a
// later DE tick may demote it again if it carries no demand.
func (s *TORService) Pin(p rules.Pattern) {
	tc := s.TC
	if tc.offloaded[p] || tc.inst.installing(p) {
		return
	}
	tc.inst.install(p)
}

// Unpin demotes a pattern through the gated removal path (admin rule
// CRUD) — placers are redirected first, the ACL goes only after acks and
// the in-flight grace, exactly like a DE-decided demotion.
func (s *TORService) Unpin(p rules.Pattern) {
	tc := s.TC
	now := tc.mgr.Cluster.Eng.Now()
	switch {
	case tc.offloaded[p]:
		tc.inst.demote(now, p)
		tc.announce(openflow.OffloadAction{Pattern: p, Offload: false})
		tc.damper.ForceState(p, false, now)
		tc.publish()
	case tc.inst.installing(p):
		tc.inst.abort(p)
		tc.damper.ForceState(p, false, now)
	}
}

// AgentService is the per-host half of a split rule manager: one local
// controller over a single-server cluster carrying the real data plane.
// All methods must run on the goroutine (or service runtime loop) that
// owns the cluster's engine.
type AgentService struct {
	M  *Manager
	LC *LocalController

	// prevHW/prevHWBytes/prevHWAt hold the last report's express-lane
	// counter snapshot for the pps/bps deltas fed back to the ToR.
	prevHW      map[rules.Pattern]uint64
	prevHWBytes map[rules.Pattern]uint64
	prevHWAt    sim.Time
}

// NewAgentService builds the local controller for c's single server,
// reporting to the ToR over toTOR (a remote-mode transport in daemons, an
// in-sim one in tests).
//
// Two host-side stand-ins close the loop the single-process manager gets
// for free from its shared TOR model:
//
//   - the express-lane ACL mirror: when a placer starts steering a
//     pattern to the VF, the matching Allow ACL is installed in the local
//     cluster's ToR model (which carries this host's data path), so
//     redirected packets are forwarded instead of hitting default-deny;
//   - report augmentation: offloaded flows bypass the vswitch, so their
//     demand would vanish from reports and the remote DE — which cannot
//     read this host's ToR counters — would demote them. The mirror ToR's
//     per-pattern counters are appended to each demand report instead,
//     playing the role of the TOR ME's hardware counter poll.
func NewAgentService(c *cluster.Cluster, cfg Config, toTOR *openflow.Transport) *AgentService {
	m := newManager(c, cfg)
	srv := c.Servers[0]
	lc := newLocalController(m, srv)
	lc.rack = 0
	lc.toTORs = []*openflow.Transport{toTOR}
	m.Locals = []*LocalController{lc}
	s := &AgentService{
		M: m, LC: lc,
		prevHW:      make(map[rules.Pattern]uint64),
		prevHWBytes: make(map[rules.Pattern]uint64),
	}
	lc.OnPlacement = s.mirrorPlacement
	lc.AugmentReport = s.augmentReport
	return s
}

// Start begins measurement and placer programming; Stop halts them.
func (s *AgentService) Start() { s.M.Start() }
func (s *AgentService) Stop()  { s.M.Stop() }

// mirrorPlacement keeps the host-side ToR model's ACLs in lockstep with
// the placer redirects, standing in for the physical switch the remote
// controller programs (see NewAgentService).
func (s *AgentService) mirrorPlacement(p rules.Pattern, installed bool) {
	t := s.M.Cluster.TOR
	t.RemoveACL(p)
	if installed {
		_ = t.InstallACL(&rules.TCAMEntry{Pattern: p, Action: rules.Allow, Priority: hwPriority})
	} else {
		delete(s.prevHW, p)
		delete(s.prevHWBytes, p)
	}
}

// augmentReport appends express-lane counter deltas to an outgoing
// demand report and applies the FPS hardware-side splits to the local ToR
// model (the physical enforcement point on this host's path).
func (s *AgentService) augmentReport(rep *openflow.DemandReport) {
	t := s.M.Cluster.TOR
	for _, sp := range rep.Splits {
		t.SetVFLimit(sp.Tenant, sp.VMIP, tor.Egress, sp.EgressHardBps)
		t.SetVFLimit(sp.Tenant, sp.VMIP, tor.Ingress, sp.IngressHardBps)
	}
	now := s.M.Cluster.Eng.Now()
	elapsed := now - s.prevHWAt
	if s.prevHWAt > 0 && elapsed > 0 {
		epochs := uint32(s.M.Cfg.Measure.EpochsPerInterval)
		if epochs == 0 {
			epochs = 1
		}
		stats := t.Stats()
		slices.SortFunc(stats, func(a, b tor.ACLStats) int { return a.Pattern.Compare(b.Pattern) })
		for _, st := range stats {
			if !s.LC.installed[st.Pattern] {
				continue // not our mirror rule
			}
			prevP, prevB := s.prevHW[st.Pattern], s.prevHWBytes[st.Pattern]
			if st.Packets > prevP {
				// Express-lane traffic passes the ToR ACL twice (VF
				// ingress and tunnel termination); halve for wire rate —
				// the same convention as the TOR ME's counter poll.
				secs := elapsed.Seconds()
				pps := float64(st.Packets-prevP) / 2 / secs
				bps := float64(st.Bytes-prevB) / 2 / secs * 8
				rep.Entries = append(rep.Entries, openflow.DemandEntry{
					Pattern: st.Pattern, PPS: pps, BPS: bps,
					Epoch: rep.Interval, MedianPPS: pps, MedianBPS: bps,
					ActiveEpochs: epochs,
				})
			}
			s.prevHW[st.Pattern] = st.Packets
			s.prevHWBytes[st.Pattern] = st.Bytes
		}
	} else {
		for _, st := range t.Stats() {
			s.prevHW[st.Pattern] = st.Packets
			s.prevHWBytes[st.Pattern] = st.Bytes
		}
	}
	s.prevHWAt = now
}

// SetVMLimit registers a VM's purchased aggregate rates (see
// Manager.SetVMLimit).
func (s *AgentService) SetVMLimit(tenant vswitch.VMKey, egressBps, ingressBps float64) {
	s.M.SetVMLimit(tenant.Tenant, tenant.IP, egressBps, ingressBps)
}

// RemoveVM tears down a tenant VM and every piece of controller state
// keyed on it. Placer rules covering the VM are cleaned up by the next
// RuleSync sweep; in-flight packets drain through the normal paths.
func (s *AgentService) RemoveVM(key vswitch.VMKey) error {
	if err := s.M.Cluster.RemoveVM(0, key.Tenant, key.IP); err != nil {
		return err
	}
	delete(s.LC.limiters, key)
	delete(s.LC.lastHW, key)
	delete(s.M.limits, key)
	return nil
}
