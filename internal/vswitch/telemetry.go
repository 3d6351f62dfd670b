// Flight-recorder and metric-registry wiring for the vswitch. The switch
// holds a nil-able *telemetry.Scoped; every hot-path instrumentation
// point guards with a single pointer test so the disabled path stays
// zero-alloc (enforced by TestFastPathAllocsWithTelemetryDisabled and the
// alloc-gate tests).
package vswitch

import (
	"repro/internal/telemetry"
)

// SetRecorder attaches (or, with nil, detaches) the switch's flight-
// recorder scope. Call at topology-assembly time.
func (s *Switch) SetRecorder(rec *telemetry.Scoped) { s.rec = rec }

// RegisterMetrics registers the switch's counters and gauges with the
// central registry under fastrak_vswitch_* names, tagged with the given
// fixed labels (e.g. "server=3"). Safe on a nil registry.
func (s *Switch) RegisterMetrics(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	lbl := func(extra ...string) []string {
		return append(append([]string(nil), labels...), extra...)
	}
	reg.Counter("fastrak_vswitch_tx_packets_total", "packets transmitted toward the fabric or delivered locally", &s.txPackets, lbl()...)
	reg.Counter("fastrak_vswitch_rx_packets_total", "packets received for local VMs", &s.rxPackets, lbl()...)
	reg.Counter("fastrak_vswitch_upcalls_total", "slow-path misses admitted to the upcall scheduler", &s.upcalls, lbl()...)
	reg.Counter("fastrak_vswitch_upcalls_served_total", "upcalls whose rule scan completed", &s.upcallsServed, lbl()...)
	reg.Counter("fastrak_vswitch_denied_total", "packets rejected by security rules", &s.denied, lbl()...)
	reg.Counter("fastrak_vswitch_unrouted_total", "packets with no destination vport or tunnel mapping", &s.unrouted, lbl()...)
	reg.Counter("fastrak_vswitch_drops_total", "intentional drops by cause", &s.drops.Shape, lbl("cause=shape")...)
	reg.Counter("fastrak_vswitch_drops_total", "intentional drops by cause", &s.drops.UpcallQueue, lbl("cause=upcall-queue")...)
	reg.Counter("fastrak_vswitch_drops_total", "intentional drops by cause", &s.drops.Clamp, lbl("cause=clamp")...)
	reg.Counter("fastrak_vswitch_megaflow_hits_total", "megaflow cache hits", &s.core.mega.stats.Hits, lbl()...)
	reg.Counter("fastrak_vswitch_megaflow_misses_total", "megaflow cache misses", &s.core.mega.stats.Misses, lbl()...)
	reg.Counter("fastrak_vswitch_megaflow_installs_total", "megaflow cache installs", &s.core.mega.stats.Installs, lbl()...)
	reg.Counter("fastrak_vswitch_megaflow_evictions_total", "megaflow capacity evictions", &s.core.mega.stats.Evictions, lbl()...)
	reg.Counter("fastrak_vswitch_megaflow_invalidations_total", "megaflow rule-change invalidations", &s.core.mega.stats.Invalidations, lbl()...)
	reg.Counter("fastrak_vswitch_exact_evictions_total", "exact-match entries overwritten by a new flow whose probe window was full", &s.core.exact.evictions, lbl()...)
	reg.Gauge("fastrak_vswitch_active_flows", "exact-match fast-path entries", func() float64 { return float64(s.core.exact.live) }, lbl()...)
	reg.Gauge("fastrak_vswitch_active_megaflows", "megaflow wildcard cache entries", func() float64 { return float64(s.core.mega.Len()) }, lbl()...)
	reg.Gauge("fastrak_vswitch_megaflow_masks", "distinct megaflow masks, one table and one probe per lookup each", func() float64 { return float64(len(s.core.mega.masks)) }, lbl()...)
	reg.Gauge("fastrak_vswitch_overloaded", "1 while the slow-path overload detector is tripped", func() float64 {
		if s.sched.overloaded {
			return 1
		}
		return 0
	}, lbl()...)
	reg.Gauge("fastrak_vswitch_cpu_busy_seconds", "accumulated vswitch CPU busy time", func() float64 { return s.HostCPU.Busy().Seconds() }, lbl()...)
}

// overloadCause renders an overload transition for the flight recorder.
func overloadCause(sig OverloadSignal) string {
	switch {
	case sig.Overloaded && sig.Clamped:
		return "enter-clamped"
	case sig.Overloaded:
		return "enter"
	default:
		return "exit"
	}
}
