// Flight-recorder and metric-registry wiring for the rule manager. One
// recorder scope per controller ("torctl/<rack>", "local/<server>", plus
// "manager" for cluster-wide episodes like VM migration) keeps control-
// plane causality — decision → FLOW_MOD → barrier confirm → announce —
// readable straight off the merged trace.
package core

import (
	"fmt"

	"repro/internal/telemetry"
)

// AttachTelemetry attaches flight-recorder scopes to every controller and
// registers the manager's counters with the central registry. Either
// argument may be nil (events-only or metrics-only attachment).
func (m *Manager) AttachTelemetry(rec *telemetry.Recorder, reg *telemetry.Registry) {
	m.rec = rec.Scope("manager")
	for r, rack := range m.RackCtls {
		for i, tc := range rack {
			// Replica 0's scope, and a group of one's label, carry no
			// replica suffix.
			scope := fmt.Sprintf("torctl/%d", r)
			lbl := fmt.Sprintf("rack=%d", r)
			if i > 0 {
				scope = fmt.Sprintf("torctl/%d.%d", r, i)
			}
			if len(rack) > 1 {
				lbl = fmt.Sprintf("rack=%d,replica=%d", r, i)
			}
			tc.rec = rec.Scope(scope)
			tc.registerMetrics(reg, lbl)
		}
		// The agent records only fence rejections, and a group of one
		// never changes term, so it never fences: a scope (and its ring)
		// pays only where there are replicas to fence.
		if len(rack) > 1 {
			m.agents[r].rec = rec.Scope(fmt.Sprintf("switch/%d", r))
		}
	}
	for i, lc := range m.Locals {
		lc.rec = rec.Scope(fmt.Sprintf("local/%d", i))
		lc.registerMetrics(reg, fmt.Sprintf("server=%d", i))
		if n := lc.server.SmartNIC; n != nil {
			n.SetRecorder(rec.Scope(fmt.Sprintf("nic/%d", i)))
			n.RegisterMetrics(reg, fmt.Sprintf("server=%d", i))
		}
	}
}

func (tc *TORController) registerMetrics(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	lbl := func(extra ...string) []string {
		return append(append([]string(nil), labels...), extra...)
	}
	reg.Counter("fastrak_torctl_decisions_total", "DE runs", &tc.Decisions, lbl()...)
	reg.Counter("fastrak_torctl_installs_total", "barrier-confirmed hardware installs", &tc.Installs, lbl()...)
	reg.Counter("fastrak_torctl_retries_total", "install re-sends after rejection or timeout", &tc.Retries, lbl()...)
	reg.Counter("fastrak_torctl_giveups_total", "installs abandoned after the attempt budget", &tc.GiveUps, lbl()...)
	reg.Counter("fastrak_torctl_repairs_total", "desired rules reconciliation re-asserted", &tc.Repairs, lbl()...)
	reg.Counter("fastrak_torctl_orphans_total", "unowned hardware rules swept", &tc.Orphans, lbl()...)
	reg.Counter("fastrak_torctl_crashes_total", "controller crashes", &tc.Crashes, lbl()...)
	reg.Counter("fastrak_torctl_demotes_total", "confirmed patterns demoted to software", &tc.Demotes, lbl()...)
	reg.Counter("fastrak_torctl_stats_gaps_total", "skipped demand-report interval sequence numbers", &tc.StatsGaps, lbl()...)
	reg.Counter("fastrak_torctl_hints_total", "overload hints received", &tc.Hints, lbl()...)
	reg.Counter("fastrak_torctl_nic_placements_total", "NIC-tier rule placements", &tc.NICPlacements, lbl()...)
	reg.Counter("fastrak_torctl_nic_demotes_total", "NIC-tier rule retirements", &tc.NICDemotes, lbl()...)
	reg.Counter("fastrak_torctl_nic_reasserts_total", "desired NIC rules re-asserted after vanishing", &tc.NICReasserts, lbl()...)
	reg.Counter("fastrak_torctl_nic_orphans_total", "unowned NIC rules swept", &tc.NICOrphans, lbl()...)
	reg.Gauge("fastrak_torctl_nic_desired", "NIC-tier desired placements", func() float64 { return float64(len(tc.nicDesired)) }, lbl()...)
	reg.Gauge("fastrak_torctl_offloaded", "barrier-confirmed hardware patterns", func() float64 { return float64(len(tc.offloaded)) }, lbl()...)
	reg.Gauge("fastrak_torctl_installing", "installs awaiting barrier confirmation", func() float64 { return float64(len(tc.inst.patterns(false))) }, lbl()...)
	reg.Gauge("fastrak_torctl_removing", "demoted patterns awaiting gated ACL removal", func() float64 { return float64(len(tc.inst.patterns(true))) }, lbl()...)
	// The damper is replaced on Crash, so read through tc rather than
	// capturing the current instance's field addresses.
	reg.Register(telemetry.Metric{Name: "fastrak_torctl_flap_transitions_total",
		Help: "penalized offload-state transitions", Type: telemetry.TypeCounter, Labels: lbl(),
		Read: func() float64 { return float64(tc.damper.Transitions) }})
	reg.Register(telemetry.Metric{Name: "fastrak_torctl_flap_suppressions_total",
		Help: "offload-state transitions vetoed by the damper", Type: telemetry.TypeCounter, Labels: lbl(),
		Read: func() float64 { return float64(tc.damper.Suppressions) }})
	reg.Counter("fastrak_torctl_elections_total", "leadership takeovers by this replica", &tc.Elections, lbl()...)
	reg.Counter("fastrak_torctl_stepdowns_total", "leaderships abandoned", &tc.StepDowns, lbl()...)
	reg.Counter("fastrak_torctl_fenced_out_total", "stale-term rejections received from the switch", &tc.FencedOut, lbl()...)
	reg.Counter("fastrak_torctl_pauses_total", "process freezes injected", &tc.Pauses, lbl()...)
	reg.Counter("fastrak_torctl_lease_refreshes_total", "lease-extending rule re-asserts sent", &tc.LeaseRefreshes, lbl()...)
	reg.Counter("fastrak_torctl_degraded_demotes_total", "offloads pulled back by the hw-staleness guard", &tc.DegradedDemotes, lbl()...)
	reg.Gauge("fastrak_torctl_term", "current leadership term", func() float64 { return float64(tc.el.term) }, lbl()...)
	reg.Gauge("fastrak_torctl_is_leader", "1 while acting as leader", func() float64 {
		if tc.IsLeader() {
			return 1
		}
		return 0
	}, lbl()...)
}

func (lc *LocalController) registerMetrics(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	lbl := func(extra ...string) []string {
		return append(append([]string(nil), labels...), extra...)
	}
	reg.Counter("fastrak_local_flowmods_total", "placer programming operations", &lc.FlowMods, lbl()...)
	reg.Counter("fastrak_local_nicmods_total", "SmartNIC table programming operations", &lc.NICMods, lbl()...)
	reg.Counter("fastrak_local_hints_total", "overload-signal transitions forwarded to the TOR DE", &lc.Hints, lbl()...)
	reg.Counter("fastrak_local_me_samples_total", "datapath samples taken by the ME", &lc.me.Samples, lbl()...)
	reg.Counter("fastrak_local_me_reports_lost_total", "demand reports dropped by the stats fault surface", &lc.me.ReportsLost, lbl()...)
	reg.Counter("fastrak_local_me_reports_delayed_total", "demand reports delayed by the stats fault surface", &lc.me.ReportsDelayed, lbl()...)
	reg.Gauge("fastrak_local_placements", "placer redirection rules installed", func() float64 { return float64(len(lc.installed)) }, lbl()...)
	reg.Counter("fastrak_local_fenced_msgs_total", "stale-term control messages dropped", &lc.FencedMsgs, lbl()...)
	reg.Counter("fastrak_local_placer_expiries_total", "placements expired by the lease fail-safe", &lc.PlacerExpiries, lbl()...)
}
