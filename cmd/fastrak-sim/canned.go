package main

import (
	"fmt"
	"io"

	"repro/internal/experiments"
)

// printList prints title, then each item on an indented line of its own.
func printList[T any](w io.Writer, title string, items []T) {
	fmt.Fprintln(w, title)
	for _, it := range items {
		fmt.Fprintln(w, "  ", it)
	}
}

// playOverload plays the canned slow-path overload scenario and prints
// its event log and invariants.
func playOverload(w io.Writer, p params) error {
	res, err := experiments.RunOverload(experiments.OverloadConfig{Seed: p.seed, FaultSeed: p.faultSeed, Horizon: p.horizon})
	if err != nil {
		return err
	}
	printList(w, "event log:", res.Log)
	fmt.Fprintln(w, "\nper-tenant slow-path accounting (storming server):")
	for _, tu := range res.PerTenant {
		fmt.Fprintf(w, "  tenant %-3d arrived=%-7d served=%-7d qdrop=%-6d clamp=%-6d residual=%d\n",
			tu.Tenant, tu.Arrived, tu.Served, tu.QueueDrops, tu.ClampDrops, tu.Residual)
	}
	fmt.Fprintf(w, "\nvictim: served fraction %.3f, clamp drops %d\n", res.VictimServedFraction, res.VictimClampDrops)
	fmt.Fprintf(w, "overload detector: entered %d, recovered %d; hints sent %d, received %d\n",
		res.OverloadsEntered, res.OverloadsRecovered, res.HintsSent, res.HintsReceived)
	fmt.Fprintf(w, "stats path: %d reports lost, %d delayed, %d interval gaps seen at the TOR\n",
		res.ReportsLost, res.ReportsDelayed, res.StatsGaps)
	fmt.Fprintf(w, "decisions: installs %d→%d, demotes %d→%d, flaps %d→%d (settle→horizon), %d suppressed\n",
		res.InstallsAtSettle, res.InstallsEnd, res.DemotesAtSettle, res.DemotesEnd,
		res.FlapsAtSettle, res.FlapsEnd, res.Suppressions)
	fmt.Fprintf(w, "storm offloaded mid-storm: %v; converged after faults cleared: %v\n",
		res.StormOffloaded, res.Converged())
	return nil
}

// playTiered plays the canned three-tier placement-ladder scenario and
// prints the observed graduations, demotions and conservation figures.
func playTiered(w io.Writer, p params) error {
	res, err := experiments.RunTiered(experiments.TieredConfig{Seed: p.seed, Horizon: p.horizon})
	if err != nil {
		return err
	}
	printList(w, "event log:", res.Log)
	printList(w, "\ntiers when the latecomer appeared:", res.TiersAtSettle)
	printList(w, "tiers at the horizon:", res.TiersEnd)
	printList(w, "\ngraduated nic->tcam:", res.Graduated)
	printList(w, "demoted under pressure:", res.DemotedUnderPressure)
	fmt.Fprintf(w, "\nSmartNIC datapath: %v\n", res.NIC)
	fmt.Fprintf(w, "placements: nic +%d -%d (reasserts %d, orphan sweeps %d), tcam +%d -%d\n",
		res.NICPlacements, res.NICDemotes, res.NICReasserts, res.NICOrphans,
		res.Installs, res.Demotes)
	fmt.Fprintf(w, "conservation: sent=%d delivered=%d queue=%d shape=%d rate=%d blackholed=%d unaccounted=%d\n",
		res.Sent, res.Delivered, res.LinkQueueDrops, res.ShapeDrops, res.RateDrops,
		res.BlackholeDrops, res.Unaccounted)
	fmt.Fprintf(w, "ladder demonstrated: %v\n", res.Passed())
	return nil
}

// playFailover plays the canned control-plane HA scenario (hot-standby
// TOR controllers walked through partitions, crashes and pauses) and
// prints the leadership, fencing, lease and reconvergence figures.
func playFailover(w io.Writer, p params) error {
	res, err := experiments.RunFailover(experiments.FaultConfig{Seed: p.seed, FaultSeed: p.faultSeed, Horizon: p.horizon})
	if err != nil {
		return err
	}
	printList(w, "fault log:", res.FaultLog)
	fmt.Fprintf(w, "\nleadership: %d elections, %d step-downs; final leader replica %d (term %d), %d acting at the end\n",
		res.Elections, res.StepDowns, res.LeaderReplica, res.FinalTerm, res.Leaders)
	fmt.Fprintf(w, "fencing: %d stale-term installs rejected by switches, %d stale-term errors returned to deposed leaders, %d stale syncs dropped by locals; term conflicts: %d\n",
		res.FencedInstalls, res.FencedOut, res.FencedSyncs, res.TermConflicts)
	fmt.Fprintf(w, "leases: %d refreshes, %d TCAM expiries, %d placer expiries, %d degraded demotes; every hardware rule leased at the end: %v\n",
		res.LeaseRefreshes, res.TCAMLeaseExpiries, res.PlacerExpiries, res.DegradedDemotes, res.LeaseConserved)
	fmt.Fprintf(w, "recovery: %d crashes, %d pauses survived\n", res.Crashes, res.Pauses)
	fmt.Fprintf(w, "reconvergence: hardware matches desired: %v; matches never-faulted twin: %v\n",
		res.HardwareMatchesDesired, res.MatchesBaseline)
	fmt.Fprintf(w, "rate cap: peak %.2f Mbps against a %.2f Mbps cap, %d violations\n",
		res.PeakCappedBps/1e6, res.CapLimitBps/1e6, res.CapViolations)
	fmt.Fprintf(w, "conservation: sent=%d delivered=%d queue=%d down=%d loss=%d shape=%d upcall=%d clamp=%d rate=%d blackholed=%d unaccounted=%d\n",
		res.Sent, res.Delivered, res.LinkQueueDrops, res.LinkDownDrops, res.LinkLossDrops,
		res.ShapeDrops, res.UpcallQueueDrops, res.ClampDrops, res.RateDrops,
		res.BlackholeDrops, res.Unaccounted)
	ok := res.Leaders == 1 && res.TermConflicts == 0 && res.BlackholeDrops == 0 &&
		res.HardwareMatchesDesired && res.MatchesBaseline && res.LeaseConserved
	fmt.Fprintf(w, "failover invariants held: %v\n", ok)
	return nil
}
