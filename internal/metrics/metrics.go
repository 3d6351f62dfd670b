// Package metrics provides the measurement primitives used throughout the
// FasTrak testbed: latency histograms with average and tail percentiles,
// windowed rate counters, and CPU-time accounting that converts accumulated
// busy time into "logical CPUs used" — the unit the paper reports in
// Figures 4(a)/4(b) and the evaluation tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram accumulates duration samples and reports average and
// percentiles. It keeps raw samples: the experiment scales here are small
// enough that exact percentiles are affordable and simpler to trust than a
// sketch. (Flow accounting at scale is a different story — see
// internal/sketch and SketchCounters below.)
type Histogram struct {
	samples []time.Duration
	sum     time.Duration
	sorted  bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sum += d
	h.sorted = false
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the average sample, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p ≤ 100) using the
// nearest-rank method, or 0 if empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// P99 is shorthand for Percentile(99), the tail statistic the paper reports.
func (h *Histogram) P99() time.Duration { return h.Percentile(99) }

// String summarizes the histogram for logs and experiment tables.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p99=%v", h.Count(), h.Mean(), h.P99())
}

// CPUAccount accumulates busy time attributed to an activity (hypervisor
// packet processing, guest stack, controller work). LogicalCPUs converts
// busy time over a wall interval into the paper's "number of logical CPUs
// used to drive the test" unit.
type CPUAccount struct {
	busy time.Duration
}

// Charge records d of CPU busy time.
func (a *CPUAccount) Charge(d time.Duration) {
	if d > 0 {
		a.busy += d
	}
}

// Busy returns total accumulated busy time.
func (a *CPUAccount) Busy() time.Duration { return a.busy }

// Reset zeroes the account.
func (a *CPUAccount) Reset() { a.busy = 0 }

// LogicalCPUs returns busy/elapsed: 2.0 means two logical CPUs were fully
// occupied for the interval.
func (a *CPUAccount) LogicalCPUs(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return a.busy.Seconds() / elapsed.Seconds()
}

// DropCounters is the testbed's unified per-cause drop accounting for a
// software switch: every packet the vswitch intentionally discards is
// charged to exactly one cause, so the conservation equation
// in = delivered + Σ(cause) closes exactly — the overload experiment's
// second invariant. Counters only ever increase.
type DropCounters struct {
	// Shape counts htb tail-drops: packets whose token-bucket wait would
	// exceed the qdisc's bounded backlog.
	Shape uint64
	// UpcallQueue counts slow-path admission tail-drops: the packet's
	// flow missed the fast path and its VIF's bounded upcall queue was
	// full.
	UpcallQueue uint64
	// Clamp counts packets refused by the overload governor's per-VIF
	// miss-rate clamp on a storming tenant.
	Clamp uint64
}

// Total sums all causes.
func (d DropCounters) Total() uint64 { return d.Shape + d.UpcallQueue + d.Clamp }

// Add returns the element-wise sum — aggregating per-switch counters into
// a cluster view.
func (d DropCounters) Add(o DropCounters) DropCounters {
	return DropCounters{
		Shape:       d.Shape + o.Shape,
		UpcallQueue: d.UpcallQueue + o.UpcallQueue,
		Clamp:       d.Clamp + o.Clamp,
	}
}

// String renders the counters for logs and experiment tables.
func (d DropCounters) String() string {
	return fmt.Sprintf("shape=%d upcallq=%d clamp=%d", d.Shape, d.UpcallQueue, d.Clamp)
}

// CacheCounters is the observability surface of a decision cache (the
// vswitch megaflow cache): hit/miss traffic, install churn, capacity
// evictions and rule-change invalidations. Counters only ever increase.
type CacheCounters struct {
	// Hits counts lookups served from the cache; Misses lookups that
	// fell through to the full classifier.
	Hits, Misses uint64
	// Installs counts entries installed after slow-path classifications.
	Installs uint64
	// Evictions counts entries discarded for capacity; Invalidations
	// entries removed because an overlapping rule changed (the
	// revalidation path that keeps the cache semantically transparent).
	Evictions, Invalidations uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 when idle.
func (c CacheCounters) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// Add returns the element-wise sum.
func (c CacheCounters) Add(o CacheCounters) CacheCounters {
	return CacheCounters{
		Hits:          c.Hits + o.Hits,
		Misses:        c.Misses + o.Misses,
		Installs:      c.Installs + o.Installs,
		Evictions:     c.Evictions + o.Evictions,
		Invalidations: c.Invalidations + o.Invalidations,
	}
}

// String renders the counters for logs and experiment tables.
func (c CacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d installs=%d evict=%d inval=%d",
		c.Hits, c.Misses, c.Installs, c.Evictions, c.Invalidations)
}

// NICCounters is the observability surface of a per-host SmartNIC offload
// tier: egress lookups served in hardware, lookups that fell through to
// the software vswitch path, installs/removes of match-action rules, and
// packets bounced back to software by the tenant-fair pipeline admission.
// A throttled or missed packet is never a drop — it falls back to the
// vswitch slow path — so these counters do not feed the drop conservation
// equation. Counters only ever increase.
type NICCounters struct {
	// Hits counts egress packets forwarded by a NIC table rule; Misses
	// counts egress lookups that found no rule and fell back to software.
	Hits, Misses uint64
	// Throttled counts packets whose flow matched a rule but exceeded the
	// tenant's fair share of NIC pipeline capacity in the current window;
	// these also fall back to the software path.
	Throttled uint64
	// Installs and Removes count rule table churn.
	Installs, Removes uint64
	// Rejects counts refused installs (table full, tenant quota, or an
	// injected install fault).
	Rejects uint64
}

// Add returns the element-wise sum.
func (n NICCounters) Add(o NICCounters) NICCounters {
	return NICCounters{
		Hits:      n.Hits + o.Hits,
		Misses:    n.Misses + o.Misses,
		Throttled: n.Throttled + o.Throttled,
		Installs:  n.Installs + o.Installs,
		Removes:   n.Removes + o.Removes,
		Rejects:   n.Rejects + o.Rejects,
	}
}

// String renders the counters for logs and experiment tables.
func (n NICCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d throttled=%d installs=%d removes=%d rejects=%d",
		n.Hits, n.Misses, n.Throttled, n.Installs, n.Removes, n.Rejects)
}

// SketchCounters is the observability surface of the streaming
// flow-accounting subsystem (internal/sketch): data-path sketch updates,
// space-saving takeovers, shard merges, and emitted top-k
// reports. Counters only ever increase.
type SketchCounters struct {
	// Updates counts Observe calls accounted into the sketches.
	Updates uint64
	// Evictions counts space-saving takeovers: monitored patterns
	// displaced by newcomers once the top-k structure filled.
	Evictions uint64
	// Merges counts shard-sketch merges performed at report time.
	Merges uint64
	// Reports counts top-k heavy-hitter reports produced.
	Reports uint64
}

// Add returns the element-wise sum — aggregating per-shard counters into a
// per-host (or cluster) view.
func (s SketchCounters) Add(o SketchCounters) SketchCounters {
	return SketchCounters{
		Updates:   s.Updates + o.Updates,
		Evictions: s.Evictions + o.Evictions,
		Merges:    s.Merges + o.Merges,
		Reports:   s.Reports + o.Reports,
	}
}

// String renders the counters for logs and experiment tables.
func (s SketchCounters) String() string {
	return fmt.Sprintf("updates=%d evict=%d merges=%d reports=%d",
		s.Updates, s.Evictions, s.Merges, s.Reports)
}
