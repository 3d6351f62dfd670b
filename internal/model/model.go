// Package model defines the testbed's calibrated cost model: the CPU time
// and latency each data-path element charges per packet and per byte.
// Every constant is anchored to a measurement the paper itself reports in
// Section 3 (microbenchmarks) — the goal is that the *shape* of the
// paper's figures (who wins, by what factor, how the gap scales with
// application data size) emerges from these parameters plus queueing,
// rather than being hard-coded per experiment.
package model

import "time"

// Workload application data sizes used throughout the paper's
// microbenchmarks (§3.1: "measured with four different application data
// sizes: 64, 600, 1448, 32000 bytes").
var AppDataSizes = []int{64, 600, 1448, 32000}

// MSS is the TCP maximum segment size with a 1500-byte MTU (§3.1: "MTU set
// to 1500 bytes (which is the normal setting in data centers)").
const MSS = 1448

// CostModel parameterizes the emulated testbed. The defaults (see
// Default) reproduce the paper's Section 3 shapes; ablation benches vary
// individual fields.
type CostModel struct {
	// ---- Guest VM stack (applies on both paths) ----

	// GuestPerOp is the VM-side CPU cost of one socket send or receive
	// operation: syscall, TCP/IP stack, driver. Both paths pay it.
	GuestPerOp time.Duration
	// GuestPerKB is the VM-side cost per kibibyte (checksum, touch).
	GuestPerKB time.Duration

	// ---- Hypervisor (VIF) path ----
	// Anchors: baseline OVS host CPU spends 96% of time in network I/O
	// and up to 55% copying (§3.2); SR-IOV needs 0.4–0.7× the CPU of
	// baseline OVS (Fig. 4a).

	// VSwitchPerUnit is the host-side cost per processed unit (a TSO
	// super-segment when offloads apply, else a wire segment): kernel
	// crossing, fast-path hash lookup, virtio kick.
	VSwitchPerUnit time.Duration
	// VSwitchPerKB is the host-side copy cost per kibibyte (the "up to
	// 55% of time copying data" component).
	VSwitchPerKB time.Duration
	// SlowPathBase and SlowPathPerRule price the user-space upcall for
	// the first packet of a flow: linear rule-table scan plus fast-path
	// install (§2.2). With 10,000 rules the paper measured no change in
	// *steady-state* overhead, because only first packets pay this.
	SlowPathBase    time.Duration
	SlowPathPerRule time.Duration

	// TunnelPerSegment is the added host cost per wire segment for
	// software VXLAN encap/decap. Anchor: supporting 1.96 Gbps of
	// 1448-byte traffic takes 2.9 logical CPUs (§3.2.1) → ≈17 µs per
	// segment all-in; tunneling also defeats NIC TSO/LRO ("UDP VXLAN
	// packets do not currently benefit from NIC offload capabilities"),
	// so the cost applies per MSS segment, not per super-segment.
	TunnelPerSegment time.Duration
	// TunnelPerKB is the added per-kibibyte cost of the extra
	// encapsulation copy.
	TunnelPerKB time.Duration

	// HTBPerPacket is the qdisc enqueue/dequeue cost for `tc` rate
	// limiting on the VIF. It executes under the qdisc lock, so it is
	// charged on a single serialized station: that serialization — not
	// raw cost — is why rate limiting cannot reach line rate with four
	// netperf threads (§3.2.2) and cuts burst TPS to 85–88% of baseline.
	HTBPerPacket time.Duration

	// ---- SR-IOV (VF) path ----

	// VFHostPerInterrupt is the only host-side work on the VF path:
	// interrupt isolation ("VF Interrupts ... are first delivered to
	// the hypervisor", §2.2). Anchor: host 59% idle under SR-IOV, 23%
	// of time servicing interrupts (§3.2).
	VFHostPerInterrupt time.Duration

	// ---- Path latency floors (one-way, excluding queueing and wire) ----
	// Anchors: Fig. 3(b)/(c) — SR-IOV delivers roughly half the
	// closed-loop latency of baseline OVS; tunneling and rate limiting
	// add more.

	// VIFLatency is the hypervisor path's one-way latency floor
	// (vswitch traversal, softirq wakeups, virtio notification).
	VIFLatency time.Duration
	// VFLatency is the SR-IOV path's one-way floor (DMA, doorbell,
	// interrupt delivery through the hypervisor).
	VFLatency time.Duration
	// TunnelLatency is added one-way when software tunneling.
	TunnelLatency time.Duration
	// HTBLatency is added one-way by qdisc queueing machinery.
	HTBLatency time.Duration

	// SoftJitterMean is the mean of the exponential jitter on the
	// software path (scheduler noise); it produces the long 99th
	// percentile tail of Fig. 3(c). HWJitterMean is the (much smaller)
	// hardware path jitter — "more predictable delays than software"
	// (§3.2.4).
	SoftJitterMean time.Duration
	HWJitterMean   time.Duration

	// ---- Fabric ----

	// LinkBps is the line rate of every link (10 GbE testbed).
	LinkBps float64
	// TORLatency is the switch's port-to-port forwarding latency.
	TORLatency time.Duration
	// PropDelay is per-link propagation (in-rack cabling).
	PropDelay time.Duration

	// ---- Host resources ----

	// HostNetCPUs is the number of logical CPUs available to the host
	// kernel for network processing (vswitch, softirq). The testbed
	// servers have 16 logical CPUs (2× E5520); a slice serves the VMs'
	// I/O.
	HostNetCPUs int
	// TSO reports whether NIC segmentation offload applies on the
	// non-tunneled software path ("TSO and LRO enabled", §3.1).
	TSO bool
}

// Default returns the calibrated model. See each field's anchor comment;
// EXPERIMENTS.md records the shapes this produces against the paper's.
func Default() CostModel {
	return CostModel{
		GuestPerOp: 1200 * time.Nanosecond,
		GuestPerKB: 150 * time.Nanosecond, // ~6.8 GB/s touch/checksum

		VSwitchPerUnit:  2300 * time.Nanosecond,
		VSwitchPerKB:    200 * time.Nanosecond, // ~5 GB/s copy; dominates at large sizes (§3.2)
		SlowPathBase:    50 * time.Microsecond,
		SlowPathPerRule: 40 * time.Nanosecond,

		TunnelPerSegment: 2600 * time.Nanosecond, // fixed VXLAN encap/decap/upcall share
		TunnelPerKB:      10 * time.Microsecond,  // slow VXLAN byte path → ~2 Gbps cap at 1448 B (§3.2.1)

		HTBPerPacket: 660 * time.Nanosecond, // serialized qdisc lock → TPS 85–88% of baseline (§3.2.2)

		VFHostPerInterrupt: 300 * time.Nanosecond,

		VIFLatency:    18 * time.Microsecond,
		VFLatency:     8 * time.Microsecond,
		TunnelLatency: 9 * time.Microsecond,
		HTBLatency:    4 * time.Microsecond,

		SoftJitterMean: 5 * time.Microsecond,
		HWJitterMean:   500 * time.Nanosecond,

		LinkBps:    10e9,
		TORLatency: 1 * time.Microsecond,
		PropDelay:  500 * time.Nanosecond,

		HostNetCPUs: 4,
		TSO:         true,
	}
}

// Segments returns the number of MSS wire segments a payload of n bytes
// occupies (minimum 1, for bare ACK-sized messages).
func Segments(n int) int {
	if n <= MSS {
		return 1
	}
	return (n + MSS - 1) / MSS
}

// GuestOpCost returns the VM-side cost of sending or receiving one message
// of n payload bytes.
func (m *CostModel) GuestOpCost(n int) time.Duration {
	return m.GuestPerOp + perBytes(n, m.GuestPerKB)
}

// VSwitchConfig selects which software network-virtualization functions
// the vswitch applies — the microbenchmark configurations of §2.2/§3.2.
type VSwitchConfig struct {
	// SecurityRules is the number of installed ACL rules (0 = baseline).
	SecurityRules int
	// Tunneling enables VXLAN encap/decap ("OVS+Tunneling").
	Tunneling bool
	// RateLimitBps, if nonzero, applies an htb rate limit per VIF
	// ("OVS+Rate limiting").
	RateLimitBps float64
}

// VSwitchUnitCost returns the host-side cost for the vswitch to process
// one message of n payload bytes under cfg, excluding the serialized HTB
// charge (which the caller places on the qdisc station).
func (m *CostModel) VSwitchUnitCost(n int, cfg VSwitchConfig) time.Duration {
	if cfg.Tunneling || !m.TSO {
		// No segmentation offload: fixed cost per wire segment plus
		// per-byte cost over the actual payload.
		segs := Segments(n)
		perSeg := m.VSwitchPerUnit
		if cfg.Tunneling {
			perSeg += m.TunnelPerSegment
		}
		cost := time.Duration(segs)*perSeg + perBytes(n, m.VSwitchPerKB)
		if cfg.Tunneling {
			cost += perBytes(n, m.TunnelPerKB)
		}
		return cost
	}
	// TSO/LRO: one traversal for the whole message; copy cost scales
	// with bytes.
	return m.VSwitchPerUnit + perBytes(n, m.VSwitchPerKB)
}

// SlowPathCost returns the user-space upcall cost for the first packet of
// a flow against a table of ruleCount rules.
func (m *CostModel) SlowPathCost(ruleCount int) time.Duration {
	return m.SlowPathBase + time.Duration(ruleCount)*m.SlowPathPerRule
}

// PathLatency returns the one-way latency floor for a message on the
// software path under cfg.
func (m *CostModel) PathLatency(cfg VSwitchConfig) time.Duration {
	d := m.VIFLatency
	if cfg.Tunneling {
		d += m.TunnelLatency
	}
	if cfg.RateLimitBps > 0 {
		d += m.HTBLatency
	}
	return d
}

// perBytes scales a per-kibibyte cost to n bytes.
func perBytes(n int, perKB time.Duration) time.Duration {
	return time.Duration(int64(n) * int64(perKB) / 1024)
}
