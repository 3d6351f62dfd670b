package core

import (
	"slices"
	"sort"
	"time"

	"repro/internal/decision"
	"repro/internal/host"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tor"
	"repro/internal/vswitch"
)

// hwPriority is the TCAM priority of controller-installed offload ACLs.
// Reconciliation and restart-time adoption recognise the controller's own
// rules by it.
const hwPriority = 100

// syncRefreshTicks and reconcileTicks pace the anti-entropy machinery:
// a RuleSync goes to every local, and a TableRequest to the switch
// agent, at least once per this many decision intervals (more often when
// state changes). Keeping them off the per-tick hot path preserves the
// paper's "negligible" controller overhead (§6.2.2).
const (
	syncRefreshTicks = 4
	reconcileTicks   = 4
)

// MinLeaseTTL is the bound HAConfig.LeaseTTL must exceed under cfg: the
// leader refreshes leases and reads the table back every reconcileTicks
// control intervals, and degrades once no reply came within LeaseTTL/2.
func MinLeaseTTL(cfg Config) time.Duration {
	return 2 * reconcileTicks * cfg.Measure.Epoch * time.Duration(cfg.Measure.EpochsPerInterval)
}

// urgentBoost multiplies the tenant preference c of a tenant flagged by an
// OverloadHint: its aggregates jump the score ordering so the miss storm
// moves to hardware ahead of merely-busy flows. The boost expires after
// urgentTTLIntervals control intervals without a refreshed hint — hints
// are advisory and must not pin priority forever if the recovery signal
// is lost.
const (
	urgentBoost        = 8.0
	urgentTTLIntervals = 4
)

// staleIntervals is how many control intervals a server's stats path may
// stay silent before its cached demand report is excluded from decisions.
// Excluded candidates are not dropped to zero: the decision smoother
// carries them on a decaying estimate (see internal/decision/damper.go),
// so one lost report cannot demote a hot flow, while a genuinely dead
// reporter fades out within a few intervals.
const staleIntervals = 2

// TORController manages one ToR switch (§4.3): its ME polls offloaded-
// flow counters in hardware, its DE merges them with the local
// controllers' demand reports, picks the offload set within the TCAM
// budget, installs/removes the hardware rules, and distributes decisions.
//
// Hardware state is managed asynchronously through the switch agent's
// control connection, which internal/faults can drop, delay or sever: the
// installer (installer.go) confirms, retries, gates and reconciles the
// rules. Crash/Restart model controller failure: all volatile state is
// lost and the restarted controller adopts the hardware's installed rules
// as its desired set (removing them blind would blackhole flows whose
// placers still steer to the express lane).
type TORController struct {
	mgr *Manager
	tor *tor.TOR
	// agents holds one record per attached local controller, in ServerID
	// order.
	agents []agent
	// toSwitch/fromSwitch is the control connection to the switch agent.
	toSwitch   *openflow.Transport
	fromSwitch *openflow.Transport

	// smoother carries per-candidate EWMA estimates across intervals and
	// synthesizes decaying candidates for patterns whose stats went
	// missing; damper vetoes offload/demote flapping with BGP-style
	// penalty decay. Both are volatile (reset on Crash).
	smoother *decision.Smoother
	damper   *decision.FlapDamper

	// urgent maps tenants flagged by OverloadHints to the sim time their
	// priority boost expires.
	urgent map[packet.TenantID]sim.Time

	// offloaded holds barrier-confirmed hardware patterns — the set
	// announced to placers. Every change of membership goes through
	// confirmed or withdraw, which record it in sync for publishing.
	offloaded map[rules.Pattern]bool
	// inst holds the installs and removals on their way to hardware.
	inst *installer

	// nicDesired maps each NIC-tier pattern to the server whose SmartNIC
	// should carry it (NIC rules are per-host; the middle rung of the
	// software → SmartNIC → TCAM ladder). nicDamper is the NIC tier's own
	// flap damper — transitions on one tier must not penalize the other.
	// Both volatile (reset on Crash): a restarted controller does not adopt
	// NIC rules the way it adopts TCAM rules, because a swept NIC rule costs
	// only a software spell (the NIC tier structurally falls back to the
	// vswitch), never a blackhole.
	nicDesired map[rules.Pattern]uint32
	nicDamper  *decision.FlapDamper

	// sync numbers and publishes RuleSyncs and keeps each server's acks
	// (rulesync.go).
	sync ruleSyncer

	// prevHW holds last interval's TCAM counters for pps computation.
	prevHW   map[rules.Pattern]uint64
	prevHWAt sim.Time

	// installedHW tracks hardware rate limits currently installed, for
	// maxed-out detection.
	installedHW map[vswitch.VMKey]openflow.RateSplit

	// pendingAnnounce batches offload/demote announcements accumulated
	// within one event window (e.g. many installs confirmed by barriers
	// carried on the same control RTT) into a single OffloadDecision
	// per local, keeping controller chatter at "a handful of messages
	// per interval" (§6.2.2).
	pendingAnnounce []openflow.OffloadAction
	announceQueued  bool

	// ticker runs the DE; start schedules its first run at startAt.
	ticker  *sim.Ticker
	startAt *sim.Event

	// ---- control-plane HA state ----

	// el is the process and leadership state (elector.go).
	el          *elector
	electTicker *sim.Ticker
	// justElected forces a full refresh+publish+reconcile on the first
	// DE tick after a takeover.
	justElected bool
	// lastTableReplyAt is the last proof the switch hardware was
	// reachable. With leases enabled, a leader silent of TableReplies for
	// half a TTL enters degraded mode: every offload is pulled back to
	// software *before* the unrefreshable TCAM rules expire under
	// still-steering placers.
	lastTableReplyAt sim.Time
	degraded         bool

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	rec *telemetry.Scoped

	// Decisions counts DE runs (controller-cost experiment). The
	// remaining counters instrument the recovery machinery, the
	// installer's among them.
	Decisions uint64
	installCounts
	electCounts
	// StatsGaps counts skipped demand-report interval sequence numbers —
	// reports the stats fault surface (or a congested control path) ate.
	StatsGaps uint64
	// Hints counts OverloadHints received from local controllers.
	Hints uint64
	// NICPlacements and NICDemotes count NIC-tier rule placements and
	// retirements; NICReasserts counts desired NIC rules re-asserted after
	// dropping out of a server's report (reset/corruption faults, lost
	// installs); NICOrphans counts reported NIC rules nobody owned.
	NICPlacements uint64
	NICDemotes    uint64
	NICReasserts  uint64
	NICOrphans    uint64
	// FencedOut counts ErrCodeStaleTerm rejections received from the
	// switch agent — each one is a deposed leader caught acting.
	FencedOut uint64
	// LeaseRefreshes counts re-asserted FlowAdds sent to extend rule
	// leases; DegradedDemotes counts offloads pulled back by the
	// hardware-staleness guard.
	LeaseRefreshes  uint64
	DegradedDemotes uint64
}

// newTORController returns replica id of its rack's group, at term 1.
func newTORController(m *Manager, t *tor.TOR, id int) *TORController {
	tc := &TORController{mgr: m, tor: t}
	tc.inst = newInstaller(tc, &tc.installCounts, m.Cfg.ControlDelay)
	// The heartbeat period is half a control interval.
	tc.el = newElector(tc, &tc.electCounts, id, m.Cfg.HA.Replicas, tc.controlInterval()/2)
	tc.sync.peers = make(map[uint32]syncPeer)
	tc.forget()
	return tc
}

// forget (re)initialises everything a controller process holds in memory
// only — what a crash loses and a new controller starts without.
func (tc *TORController) forget() {
	tc.startAt.Cancel()
	tc.ticker.Stop()
	tc.electTicker.Stop()
	tc.abandon()
	for i, a := range tc.agents {
		tc.agents[i] = agent{id: a.id, tr: a.tr}
	}
	clear(tc.sync.peers)
	tc.smoother = decision.NewSmoother(tc.mgr.Cfg.Smoother)
	tc.damper = decision.NewFlapDamper(tc.mgr.Cfg.Damper)
	tc.urgent = make(map[packet.TenantID]sim.Time)
	tc.nicDamper = decision.NewFlapDamper(tc.mgr.Cfg.Damper)
	tc.installedHW = make(map[vswitch.VMKey]openflow.RateSplit)
}

// abandon drops the hardware view (crash, step-down): the in-flight
// install/remove machinery, the desired sets of both tiers and the
// leader's modes. The next leader adopts hardware state directly; demand
// reports, the smoother and the dampers stay warm, which makes a standby
// "hot". The sync history goes with the TCAM set: no local holds a set a
// delta could build on. NIC-tier desired state is not adopted back: the
// locals' reports re-surface the installed NIC rules, which with no owner
// are swept as orphans and re-placed — a transient software spell, never a
// blackhole (NIC misses fall back to the vswitch).
func (tc *TORController) abandon() {
	tc.inst.reset()
	tc.offloaded = make(map[rules.Pattern]bool)
	tc.sync.reset()
	tc.prevHW = make(map[rules.Pattern]uint64)
	tc.pendingAnnounce = nil
	tc.nicDesired = make(map[rules.Pattern]uint32)
	tc.degraded, tc.justElected = false, false
}

// controlInterval is C = T × N (§4.3.1).
func (tc *TORController) controlInterval() time.Duration {
	return tc.mgr.Cfg.Measure.Epoch * time.Duration(tc.mgr.Cfg.Measure.EpochsPerInterval)
}

func (tc *TORController) start() {
	eng := tc.mgr.Cluster.Eng
	tc.el.lastHeartbeatAt = eng.Now()
	tc.lastTableReplyAt = eng.Now()
	// Offset the DE ticks so each interval's demand reports (epoch
	// boundary + sample gap + control delay) have arrived.
	offset := tc.mgr.Cfg.Measure.SampleGap + 4*tc.mgr.Cfg.ControlDelay + time.Millisecond
	tc.startAt = eng.After(offset, func() { tc.ticker = eng.Every(tc.controlInterval(), tc.tick) })
	if tc.el.haReplicated() {
		tc.electTicker = eng.Every(tc.el.period, func() { tc.el.tick(eng.Now()) })
	}
}

func (tc *TORController) stop() {
	tc.startAt.Cancel()
	tc.ticker.Stop()
	tc.electTicker.Stop()
}

// Crash models the controller process dying (faults.ControllerCrash),
// frozen or not: the tickers stop, every piece of volatile state — demand
// reports, in-flight installs and removals, the desired offload set itself
// — is lost, and messages arriving while down are dropped. Hardware keeps
// forwarding with the rules it has; placers keep their last programming.
// Restart, Pause and Resume hand their fault to the elector likewise.
func (tc *TORController) Crash() { tc.el.crash() }

func (tc *TORController) Restart() {
	if tc.el.restart(tc.mgr.Cluster.Eng.Now()) && tc.mgr.started {
		tc.start()
	}
}

func (tc *TORController) Pause()  { tc.el.pause(tc.mgr.Cluster.Eng.Now()) }
func (tc *TORController) Resume() { tc.el.resume(tc.mgr.Cluster.Eng.Now()) }

// ---- electHost: the elector's effects ----

func (tc *TORController) heartbeat(to int, term uint32, leader int) {
	tc.el.peers[to].Send(&openflow.LeaderHeartbeat{Term: term, LeaderID: uint32(leader)})
}

// lead adopts the switch's installed offload rules as the desired set —
// placers may still steer through them, so reconciling them away would
// blackhole flows — and re-seeds the counter baselines, so the first
// interval does not see the whole uptime's packets as one delta.
func (tc *TORController) lead(elected bool) {
	for _, ri := range tc.tor.Rules() {
		if ri.Priority == hwPriority {
			tc.offloaded[ri.Pattern] = true
		}
	}
	// No local holds the adopted set: the next sync is a full one, due at
	// once if there is anything to announce.
	tc.sync.reset()
	tc.sync.dirty = len(tc.offloaded) > 0
	for _, st := range tc.tor.Stats() {
		tc.prevHW[st.Pattern] = st.Packets
	}
	tc.prevHWAt = tc.mgr.Cluster.Eng.Now()
	if elected {
		// Fresh term, fresh ack space: each leadership numbers RuleSyncs
		// independently and trusts only same-term acks.
		clear(tc.sync.peers)
		tc.justElected = true
	}
	tc.lastTableReplyAt = tc.mgr.Cluster.Eng.Now()
	tc.degraded = false
}

func (tc *TORController) record(k telemetry.Kind, cause string) {
	ev := telemetry.Event{Kind: k, Cause: cause, V1: float64(tc.el.term), V2: float64(tc.el.id)}
	switch k {
	case telemetry.KindCrash:
		ev.V1, ev.V2 = float64(len(tc.offloaded)), float64(len(tc.inst.patterns(false)))
	case telemetry.KindRestart:
		// V1 is the number of hardware rules adopted as the desired set.
		ev.V1, ev.V2 = float64(len(tc.offloaded)), 0
	}
	tc.rec.Record(ev)
}

// ---- lease refresh and degraded mode ----

// refreshLeases re-asserts every confirmed offload rule on the reconcile
// cadence. The switch agent treats an identical FlowAdd as an idempotent
// no-op that extends the rule's lease, and the TableRequest that follows
// on the same FIFO channel refreshes whatever an individual lost FlowAdd
// missed — so with a healthy path a desired rule can never expire
// (HAConfig.LeaseTTL must exceed two reconcile periods). A rule that went
// missing from hardware is reinstalled as a side effect, making the
// refresh double as fast repair.
func (tc *TORController) refreshLeases() {
	if tc.mgr.Cfg.HA.LeaseTTL <= 0 {
		return
	}
	for _, p := range tc.offloadedList() {
		queue, allow := tc.policy(p)
		if !allow {
			continue // policy changed; let the lease lapse
		}
		tc.flowAdd(p, queue)
		tc.LeaseRefreshes++
	}
}

// enterDegraded is the leader-side anti-blackhole guard for the lease
// fail-safe: no TableReply for half a LeaseTTL means the switch agent is
// unreachable, the TCAM leases cannot be refreshed, and the hardware
// rules will expire under placers this leader also cannot re-route
// afterwards. Pull every express lane back to software NOW — demotions
// announced to placers, ACL removal gated as usual (and covered by lease
// expiry if the deletes cannot be delivered either) — and stop offloading
// until the hardware answers again.
func (tc *TORController) enterDegraded() {
	tc.degraded = true
	for _, p := range tc.inst.patterns(false) {
		tc.inst.abort(p)
	}
	ps := tc.offloadedList()
	now := tc.mgr.Cluster.Eng.Now()
	for _, p := range ps {
		tc.inst.demote(now, p)
		tc.announce(openflow.OffloadAction{Pattern: p, Offload: false})
		tc.damper.ForceState(p, false, now)
		tc.DegradedDemotes++
	}
	tc.rec.Record(telemetry.Event{Kind: telemetry.KindLeaseExpire, Cause: "hw-stale",
		V1: float64(len(ps)), V2: float64(tc.el.term)})
	if len(ps) > 0 {
		tc.publish()
	}
}

// HandleMessage implements openflow.Handler for messages from local
// controllers (DemandReport, SyncAck) and from the switch agent
// (BarrierReply, ErrorMsg, TableReply).
func (tc *TORController) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	if !tc.el.up() {
		// Process down or frozen; messages are lost (a paused process's
		// socket overflows — anti-entropy re-delivers state on resume).
		return
	}
	var from *agent
	if id, ok := openflow.ServerIDOf(msg); ok {
		if from = tc.find(id); from == nil {
			return // no agent is attached under that ID: nothing changes
		}
	}
	switch m := msg.(type) {
	case *openflow.DemandReport:
		tc.StatsGaps += uint64(from.hear(m, tc.mgr.Cluster.Eng.Now()))
		// Standbys keep their demand view warm but must not touch the
		// (shared) hardware limiters — only the acting leader applies.
		if tc.el.leading() {
			tc.applySplits(m.ServerID, m.Splits)
		}
	case *openflow.OverloadHint:
		if m.Tenant != 0 && !tc.hosts(m.ServerID, m.Tenant, 0) {
			return // another server's tenant: not this agent's to boost
		}
		tc.Hints++
		if tc.rec != nil {
			cause := "recovered"
			if m.Overloaded {
				cause = "overloaded"
			}
			tc.rec.Record(telemetry.Event{Kind: telemetry.KindHint, Cause: cause,
				Tenant: m.Tenant, V1: float64(m.ServerID), V2: m.MissPPS})
		}
		if m.Overloaded && m.Tenant != 0 {
			// Boost the offending tenant for a bounded spell; a lost
			// recovery hint must not pin the boost forever.
			tc.urgent[m.Tenant] = tc.mgr.Cluster.Eng.Now() +
				sim.Time(urgentTTLIntervals)*tc.controlInterval()
		} else if !m.Overloaded && m.Tenant != 0 {
			delete(tc.urgent, m.Tenant)
		}
	case *openflow.SyncAck:
		if m.Term != tc.el.term {
			// Each leadership term numbers its RuleSyncs independently;
			// an ack scoped to another epoch must not un-gate removals.
			return
		}
		tc.sync.ack(m.ServerID, m.Seq)
		tc.inst.tryRemovals(tc.mgr.Cluster.Eng.Now())
	case *openflow.LeaderHeartbeat:
		tc.el.heartbeat(tc.mgr.Cluster.Eng.Now(), m.Term, int(m.LeaderID))
	case *openflow.BarrierReply:
		tc.inst.barrierReply(xid)
	case *openflow.ErrorMsg:
		if m.Code == openflow.ErrCodeStaleTerm {
			// The switch fenced us: a higher term exists, so another
			// replica took over while we still thought we led.
			tc.FencedOut++
			tc.el.fenced(tc.mgr.Cluster.Eng.Now())
			return
		}
		tc.inst.rejected(xid)
	case *openflow.TableReply:
		tc.lastTableReplyAt = tc.mgr.Cluster.Eng.Now()
		tc.degraded = false
		if tc.el.leading() {
			tc.inst.reconcile(tc.mgr.Cluster.Eng.Now(), m.Rules, tc.offloaded)
		}
	case openflow.EchoRequest:
		reply(openflow.EchoReply{}, xid)
	}
}

// applySplits installs the hardware-side limits the local DE of server id
// computed ("rate limits on the SR-IOV VF are applied at the TOR",
// §4.1.4), skipping any for a VM placed on another server.
func (tc *TORController) applySplits(id uint32, splits []openflow.RateSplit) {
	for _, s := range splits {
		if !tc.hosts(id, s.Tenant, s.VMIP) {
			continue
		}
		tc.tor.SetVFLimit(s.Tenant, s.VMIP, tor.Egress, s.EgressHardBps)
		tc.tor.SetVFLimit(s.Tenant, s.VMIP, tor.Ingress, s.IngressHardBps)
		tc.installedHW[vswitch.VMKey{Tenant: s.Tenant, IP: s.VMIP}] = s
	}
}

// hosts reports whether server id may set state for tenant's VM at ip,
// or for any of tenant's VMs when ip is zero: yes, unless the cluster
// places such VMs and places them all on other servers. A cluster that
// places none (fastrak-tord's is a placeholder) leaves nothing to check.
func (tc *TORController) hosts(id uint32, tenant packet.TenantID, ip packet.IP) bool {
	placed := false
	for _, srv := range tc.mgr.Cluster.Servers {
		for k := range srv.VMs {
			if k.Tenant == tenant && (ip == 0 || k.IP == ip) {
				if uint32(srv.ID) == id {
					return true
				}
				placed = true
				break
			}
		}
	}
	return !placed
}

// tick is one DE run: measure hardware flows, decide, apply, distribute,
// reconcile.
func (tc *TORController) tick() {
	if !tc.el.leading() {
		return // hot standby: demand view stays warm, DE stays quiet
	}
	tc.Decisions++
	eng := tc.mgr.Cluster.Eng

	// Hardware-staleness guard (leases only): if the switch agent has
	// been unreachable for half a TTL, degrade before the TCAM rules
	// expire under still-steering placers.
	if ttl := tc.mgr.Cfg.HA.LeaseTTL; ttl > 0 && !tc.degraded &&
		eng.Now()-tc.lastTableReplyAt > sim.Time(ttl)/2 {
		tc.enterDegraded()
	}

	// TOR ME: pps of offloaded entries from TCAM counter deltas.
	hwPPS := make(map[rules.Pattern]float64)
	elapsed := eng.Now() - tc.prevHWAt
	if elapsed > 0 {
		for _, st := range tc.tor.Stats() {
			prev := tc.prevHW[st.Pattern]
			if st.Packets > prev {
				// Offloaded traffic passes the ACL twice (VF
				// ingress and GRE termination); halve to get
				// wire pps.
				hwPPS[st.Pattern] = float64(st.Packets-prev) / 2 / elapsed.Seconds()
			}
			tc.prevHW[st.Pattern] = st.Packets
		}
	}
	tc.prevHWAt = eng.Now()

	// Budget: the TCAM less what removals still hold. An install that
	// finds no slot free waits in the installer for one.
	budget := tc.inst.budget()
	if tc.mgr.Cfg.MaxOffloads > 0 && budget > tc.mgr.Cfg.MaxOffloads {
		budget = tc.mgr.Cfg.MaxOffloads
	}

	// A server silent past the staleness bound has a dead or partitioned
	// stats path; acting on its frozen report would make decisions from
	// arbitrarily old data. Excluding it here hands its candidates to the
	// smoother, which decays them gracefully.
	staleAfter := sim.Time(staleIntervals) * tc.controlInterval()
	reports := tc.reportsSince(eng.Now() - staleAfter)

	// Decisions are made against the union of confirmed and in-flight
	// installs so an install awaiting its barrier is neither re-proposed
	// nor silently double-counted.
	current := make(map[rules.Pattern]bool, len(tc.offloaded)+len(tc.inst.flights))
	for p := range tc.offloaded {
		current[p] = true
	}
	for p, f := range tc.inst.flights {
		if f.installing() {
			current[p] = true
		}
	}

	cands := decision.CandidatesFromReports(reports, hwPPS, tc.priorityOf)
	cands = tc.smoother.Advance(cands, current)
	// N-level placement: the TCAM tier inside DecideTiered is the
	// unchanged 2-level Decide over the same inputs, so with no SmartNICs
	// reporting (nicStates nil) this tick is byte-identical to the 2-level
	// controller. The NIC tier then places the candidates the TCAM did
	// not take onto each sourcing host's SmartNIC.
	nicStates, hostOf := tc.nicInputs()
	tcfg := decision.TieredConfig{
		TCAM: decision.Config{
			Budget:          budget,
			MinScore:        tc.mgr.Cfg.MinScore,
			HysteresisRatio: tc.mgr.Cfg.HysteresisRatio,
			Groups:          tc.mgr.Cfg.Groups,
		},
		NICMinScore:    tc.mgr.Cfg.NICMinScore,
		NICTenantQuota: tc.mgr.Cfg.NICTenantQuota,
	}
	td := decision.DecideTiered(tcfg, cands, current, nicStates, hostOf)
	// Flap damping on top of score hysteresis: a pattern whose offload
	// state flipped repeatedly in quick succession is pinned to its
	// current state until the penalty decays (internal/decision/damper.go).
	d := tc.damper.Apply(td.TCAM, current, eng.Now())

	// The decision events carry the score inputs: V1 is the candidate's
	// score, V2 the TCAM budget the DE worked against.
	var scores map[rules.Pattern]float64
	if tc.rec != nil {
		scores = make(map[rules.Pattern]float64, len(cands))
		for _, c := range cands {
			scores[c.Pattern] = c.Score()
		}
	}

	var actions []openflow.OffloadAction
	for _, p := range d.Demote {
		if tc.offloaded[p] {
			tc.rec.EmitPattern(telemetry.KindDemoteDecision, p.Tenant, p, "score", scores[p], float64(budget))
			tc.inst.demote(eng.Now(), p)
			actions = append(actions, openflow.OffloadAction{Pattern: p, Offload: false})
		} else if tc.inst.installing(p) {
			tc.rec.EmitPattern(telemetry.KindDemoteDecision, p.Tenant, p, "abort-install", scores[p], float64(budget))
			tc.inst.abort(p)
		}
	}
	for _, p := range d.Offload {
		if tc.degraded {
			break // hardware unreachable; no new express lanes
		}
		if tc.offloaded[p] || tc.inst.installing(p) {
			continue // already in hardware or on its way
		}
		tc.rec.EmitPattern(telemetry.KindOffloadDecision, p.Tenant, p, "score", scores[p], float64(budget))
		// No action is announced here: placers redirect to the express
		// lane only after the hardware confirms the install.
		tc.inst.install(p)
	}

	// The middle tier: runs after the demotions so a TCAM→NIC demotion is
	// recognizable (its removal is in flight now), and before the
	// broadcast so NIC actions ride their own per-server decisions.
	tc.applyNICTier(td, scores)

	dec := &openflow.OffloadDecision{
		Interval: uint32(tc.Decisions),
		Actions:  actions,
		HWRates:  tc.hwRates(),
		Term:     tc.el.term,
		Origin:   uint32(tc.el.id),
	}
	broadcast(tc.agents, dec)
	if tc.justElected {
		// Full sync under the new term right away: locals adopt the term
		// (resetting their ack space) and reconcile placements against
		// the adopted desired set.
		tc.publish()
	} else {
		tc.maybePublish()
	}

	// Anti-entropy: periodically read back the hardware table and
	// reconcile on reply; the NIC tier reconciles against the cached
	// report sections on the same cadence. Lease refreshes ride the same
	// cadence, strictly before the TableRequest on the FIFO channel (the
	// read-back doubles as a bulk refresh at the agent).
	if tc.Decisions%reconcileTicks == 0 || tc.justElected {
		tc.justElected = false
		tc.refreshLeases()
		tc.toSwitch.Send(&openflow.TableRequest{Term: tc.el.term, Origin: uint32(tc.el.id)})
		tc.nicReconcile()
	}
}

// priorityOf is the tenant preference c fed to the DE: the configured
// multiplier, further boosted while an OverloadHint for the tenant is in
// force. Expired boosts are dropped lazily on lookup.
func (tc *TORController) priorityOf(t packet.TenantID) float64 {
	p := 1.0
	if f := tc.mgr.Cfg.PriorityOf; f != nil {
		p = f(t)
	}
	if exp, ok := tc.urgent[t]; ok {
		if tc.mgr.Cluster.Eng.Now() < exp {
			p *= urgentBoost
		} else {
			delete(tc.urgent, t)
		}
	}
	return p
}

// FlapStats exposes the damper's counters: penalized offload-state
// transitions and vetoed ones.
func (tc *TORController) FlapStats() (transitions, suppressions uint64) {
	return tc.damper.Transitions, tc.damper.Suppressions
}

// maybePublish sends a RuleSync when the desired set changed since the
// last one, when a gated removal waits on a sequence not yet published (a
// pattern installed and demoted between two publishes: its placers steered
// per announcements no sync covered, and the removal must not wait for the
// refresh to learn they stopped), or as a periodic refresh covering lost
// syncs and acks.
func (tc *TORController) maybePublish() {
	tc.sync.sincePublish++
	if tc.sync.dirty || tc.inst.needsSync(tc.sync.seq) || tc.sync.sincePublish >= syncRefreshTicks {
		tc.publish()
	}
}

// publish sends the desired offload set (confirmed patterns only) to every
// local controller, as the changes since what each has acked. Locals ack
// with the sequence number; removals gate on those acks.
func (tc *TORController) publish() {
	tc.sync.publish(tc.offloaded, tc.el.term, uint32(tc.el.id), tc.agents)
}

// announce queues one action and flushes the batch at the end of the
// current event window (CallSoon runs after every already-scheduled event
// at this instant, so all barriers confirmed on one RTT coalesce).
func (tc *TORController) announce(a openflow.OffloadAction) {
	tc.pendingAnnounce = append(tc.pendingAnnounce, a)
	if tc.announceQueued {
		return
	}
	tc.announceQueued = true
	tc.mgr.Cluster.Eng.CallSoon(func() {
		tc.announceQueued = false
		acts := tc.pendingAnnounce
		tc.pendingAnnounce = nil
		if !tc.el.leading() || len(acts) == 0 {
			return
		}
		slices.SortFunc(acts, compareActions)
		dec := &openflow.OffloadDecision{Actions: acts,
			Term: tc.el.term, Origin: uint32(tc.el.id)}
		broadcast(tc.agents, dec)
	})
}

// ---- installHost: the installer's effects ----

func (tc *TORController) flowAdd(p rules.Pattern, queue int) uint32 {
	return tc.toSwitch.Send(&openflow.FlowMod{Command: openflow.FlowAdd, Pattern: p, Priority: hwPriority,
		Cookie: uint64(queue), Term: tc.el.term, Origin: uint32(tc.el.id)})
}

func (tc *TORController) flowDelete(p rules.Pattern) {
	tc.toSwitch.Send(&openflow.FlowMod{Command: openflow.FlowDelete, Pattern: p,
		Term: tc.el.term, Origin: uint32(tc.el.id)})
}

func (tc *TORController) barrier() uint32 { return tc.toSwitch.Send(&openflow.BarrierRequest{}) }

func (tc *TORController) arm(d time.Duration, p rules.Pattern, gen uint64) *sim.Event {
	// A crash resets the installer, so a timer firing after it finds no
	// flight and no removal to try.
	eng := tc.mgr.Cluster.Eng
	return eng.After(d, func() { tc.inst.fire(eng.Now(), p, gen) })
}

func (tc *TORController) jitter(n int64) int64 { return tc.mgr.Cluster.Eng.Rand().Int63n(n) }

func (tc *TORController) syncState() (seq, floor uint32) {
	return tc.sync.seq, tc.sync.minAcked(tc.agents)
}

func (tc *TORController) slots() (capacity, confirmed int) {
	return tc.tor.TCAMCapacity(), len(tc.offloaded)
}

func (tc *TORController) confirmed(p rules.Pattern) {
	tc.offloaded[p] = true
	tc.sync.record(p)
	tc.announce(openflow.OffloadAction{Pattern: p, Offload: true})
	// NIC→TCAM promotion completes here: the SmartNIC rule is held until
	// the TCAM install is barrier-confirmed so the flow graduates without
	// a software spell in between (and can never blackhole — a NIC miss
	// after the removal lands on the vswitch, a hit before it reaches the
	// now-installed TCAM ACL either way).
	if s, ok := tc.nicDesired[p]; ok {
		tc.nicRemove(p, s, "nic->tcam", 0)
		tc.sendNICActions(s, []openflow.OffloadAction{{Pattern: p, Offload: false, Tier: openflow.TierNIC}})
		tc.nicDamper.ForceState(p, false, tc.mgr.Cluster.Eng.Now())
	}
}

func (tc *TORController) withdraw(p rules.Pattern) {
	delete(tc.offloaded, p)
	tc.sync.record(p)
	delete(tc.prevHW, p)
}

func (tc *TORController) emit(k telemetry.Kind, p rules.Pattern, cause string, v1, v2 float64) {
	tc.rec.EmitPattern(k, p.Tenant, p, cause, v1, v2)
}

// ---- policy ----

// policy evaluates the tenant policy covering the pattern against
// every rule-bearing VM the pattern's flows could touch: the pinned
// endpoints, plus — when an endpoint is wildcarded — every tenant VM with
// security rules, since any of them could be the far end. The offloaded
// rule is Allow only if all of them allow the representative flow; this
// keeps the hardware rule compliant with configured policy (§4.3: "The
// offloaded flow rules must comply with configured policy") and closes
// the bypass a blanket hardware Allow would open for VF traffic, which
// never revisits the destination vswitch's ACLs. It returns the rule's
// QoS queue, or false when any of them denies.
func (tc *TORController) policy(p rules.Pattern) (queue int, allow bool) {
	k := representativeKey(p)
	srcPinned, dstPinned := p.SrcPrefix == 32, p.DstPrefix == 32

	check := func(vm *host.VM) rules.Action {
		if vm == nil || len(vm.Rules.Security) == 0 {
			return rules.Allow
		}
		if q := vm.Rules.QueueFor(k); q > queue {
			queue = q
		}
		return vm.Rules.Evaluate(k)
	}

	if srcPinned {
		if vm, ok := tc.mgr.Cluster.FindVM(p.Tenant, p.Src); ok {
			if check(vm) != rules.Allow {
				return 0, false
			}
		}
	}
	if dstPinned {
		if vm, ok := tc.mgr.Cluster.FindVM(p.Tenant, p.Dst); ok {
			if check(vm) != rules.Allow {
				return 0, false
			}
		}
	}
	if !srcPinned || !dstPinned {
		// A wildcarded endpoint: any tenant VM with rules could be
		// covered; all of them must allow the representative flow.
		for _, srv := range tc.mgr.Cluster.Servers {
			for _, vm := range srv.VMs {
				if vm.Key.Tenant != p.Tenant || len(vm.Rules.Security) == 0 {
					continue
				}
				if check(vm) != rules.Allow {
					return 0, false
				}
			}
		}
	}
	return queue, true
}

func representativeKey(p rules.Pattern) packet.FlowKey {
	return packet.FlowKey{
		Src: p.Src, Dst: p.Dst,
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: p.Proto, Tenant: p.Tenant,
	}
}

// hwRates builds the per-VM hardware-path observations for local FPS.
func (tc *TORController) hwRates() []openflow.VMRate {
	keys := make([]vswitch.VMKey, 0, len(tc.installedHW))
	for k := range tc.installedHW {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tenant != keys[j].Tenant {
			return keys[i].Tenant < keys[j].Tenant
		}
		return keys[i].IP < keys[j].IP
	})
	out := make([]openflow.VMRate, 0, len(keys))
	for _, k := range keys {
		inst := tc.installedHW[k]
		eg := tc.tor.VFRate(k.Tenant, k.IP, tor.Egress)
		in := tc.tor.VFRate(k.Tenant, k.IP, tor.Ingress)
		out = append(out, openflow.VMRate{
			Tenant: k.Tenant, VMIP: k.IP,
			EgressBps: eg, IngressBps: in,
			EgressMaxed:  inst.EgressHardBps > 0 && eg >= inst.EgressHardBps*0.95,
			IngressMaxed: inst.IngressHardBps > 0 && in >= inst.IngressHardBps*0.95,
		})
	}
	return out
}

// demoteVM pulls back every offloaded rule touching a VM — the pre-
// migration step of §4.1.2 ("any offloaded flows must be returned back to
// the VM's hypervisor before the migration can occur").
func (tc *TORController) demoteVM(tenant packet.TenantID, vmIP packet.IP) {
	if !tc.el.leading() {
		return
	}
	touches := func(p rules.Pattern) bool {
		if p.Tenant != tenant {
			return false
		}
		return (p.SrcPrefix == 32 && p.Src == vmIP) || (p.DstPrefix == 32 && p.Dst == vmIP)
	}
	var actions []openflow.OffloadAction
	for p := range tc.offloaded {
		if touches(p) {
			actions = append(actions, openflow.OffloadAction{Pattern: p, Offload: false})
		}
	}
	var aborts []rules.Pattern
	for _, p := range tc.inst.patterns(false) {
		if touches(p) {
			aborts = append(aborts, p)
		}
	}
	// NIC placements touching the VM are pulled back too: the rule lives
	// on the source host's SmartNIC and would be stranded by the move.
	var nicPulls []rules.Pattern
	for p := range tc.nicDesired {
		if touches(p) {
			nicPulls = append(nicPulls, p)
		}
	}
	if len(actions) == 0 && len(aborts) == 0 && len(nicPulls) == 0 {
		return
	}
	slices.SortFunc(actions, compareActions)
	now := tc.mgr.Cluster.Eng.Now()
	for _, a := range actions {
		tc.inst.demote(now, a.Pattern)
		// Migration pull-back is a correctness path: the damper must not
		// veto it (ForceState bypasses the penalty machinery) but its view
		// of the pattern's state has to follow, so the re-offload at the
		// destination is recognized as a real transition.
		tc.damper.ForceState(a.Pattern, false, now)
	}
	for _, p := range aborts {
		tc.inst.abort(p)
		tc.damper.ForceState(p, false, now)
	}
	slices.SortFunc(nicPulls, rules.Pattern.Compare)
	for _, p := range nicPulls {
		s := tc.nicDesired[p]
		tc.nicRemove(p, s, "nic->software", 0)
		tc.sendNICActions(s, []openflow.OffloadAction{{Pattern: p, Offload: false, Tier: openflow.TierNIC}})
		tc.nicDamper.ForceState(p, false, now)
	}
	if len(actions) > 0 {
		dec := &openflow.OffloadDecision{Actions: actions,
			Term: tc.el.term, Origin: uint32(tc.el.id)}
		broadcast(tc.agents, dec)
	}
	tc.publish()
}

// Term returns the replica's current leadership epoch.
func (tc *TORController) Term() uint32 { return tc.el.term }

// IsLeader reports whether this replica is currently acting as leader.
func (tc *TORController) IsLeader() bool { return tc.el.leading() }

// ReplicaID returns this replica's index within its rack's group.
func (tc *TORController) ReplicaID() int { return tc.el.id }

// compareActions orders offload actions by canonical pattern order.
func compareActions(a, b openflow.OffloadAction) int { return a.Pattern.Compare(b.Pattern) }

// offloadedList returns current confirmed hardware patterns, sorted.
func (tc *TORController) offloadedList() []rules.Pattern {
	return rules.SortedPatterns(tc.offloaded)
}
