// Package fps implements the Flow Proportional Share rate-allocation
// algorithm from "Cloud Control with Distributed Rate Limiting" (Raghavan
// et al., SIGCOMM 2007), in the form FasTrak uses it (§4.1.4, §4.3.2):
// splitting one VM's purchased aggregate rate limit between its two
// interfaces — the software VIF and the hardware SR-IOV VF — in proportion
// to measured demand, and re-adjusting as demand shifts.
//
// FasTrak adds an overflow allowance O on top of each computed limit
// (Rs = Ls + O, Rh = Lh + O): when an interface maxes out its limit, that
// is the signal its share is too small, and the next adjustment grows it.
package fps

// Demand is one interface's measured traffic over the last control
// interval.
type Demand struct {
	// RateBps is the measured throughput in bits per second.
	RateBps float64
	// Flows is the number of active flows on the interface; FPS weights
	// bottlenecked interfaces by flow count, approximating TCP max-min
	// fairness across limiters.
	Flows int
	// MaxedOut reports whether the interface saturated its current
	// limit (detected via the overflow allowance, §4.3.2).
	MaxedOut bool
	// Stale marks a measurement that is carried over rather than fresh:
	// the control interval's stats report was lost or delayed, so
	// RateBps/Flows reflect an earlier interval. The splitter holds its
	// smoothed estimates instead of blending a stale value in — one lost
	// report must not walk the split toward an out-of-date demand mix.
	Stale bool
}

// Splitter computes per-interface limits that sum to (at most) the
// aggregate. The zero value is not usable; use NewSplitter.
type Splitter struct {
	// AggregateBps is the tenant-purchased rate for the VM direction
	// (transmit or receive).
	AggregateBps float64
	// OverflowBps is FasTrak's overflow allowance O.
	OverflowBps float64
	// MinShareFraction guarantees each interface a floor fraction of
	// the aggregate so a currently-idle path can start flows without
	// waiting a full control interval.
	MinShareFraction float64
	// EWMA smooths demand estimates across intervals (0 = no history,
	// 1 = frozen). Matches the original FPS estimate-smoothing.
	EWMA float64

	estS, estH float64 // smoothed demand estimates
	init       bool
}

// NewSplitter returns a splitter with FasTrak's defaults: 5% overflow, 10%
// minimum share, 0.3 smoothing.
func NewSplitter(aggregateBps float64) *Splitter {
	return &Splitter{
		AggregateBps:     aggregateBps,
		OverflowBps:      0.05 * aggregateBps,
		MinShareFraction: 0.10,
		EWMA:             0.3,
	}
}

// Limits is the outcome of one FPS adjustment.
type Limits struct {
	// SoftwareBps (Ls) and HardwareBps (Lh) are the proportional
	// shares; they sum to AggregateBps.
	SoftwareBps, HardwareBps float64
	// SoftwareWithOverflow (Rs = Ls + O) and HardwareWithOverflow
	// (Rh = Lh + O) are the limits actually installed on the
	// interfaces.
	SoftwareWithOverflow, HardwareWithOverflow float64
}

// Adjust computes new limits from the latest demand measurements. A maxed-
// out interface's true demand is unobservable (it is clipped by its own
// limit), so FPS inflates its estimate: the interface wants more than it
// got.
func (s *Splitter) Adjust(sw, hw Demand) Limits {
	ds := effectiveDemand(sw)
	dh := effectiveDemand(hw)

	if !s.init {
		s.estS, s.estH = ds, dh
		s.init = true
	} else {
		// Stale inputs hold the estimate: blending a carried-over value
		// would double-count the past against the present.
		if !sw.Stale {
			s.estS = s.EWMA*s.estS + (1-s.EWMA)*ds
		}
		if !hw.Stale {
			s.estH = s.EWMA*s.estH + (1-s.EWMA)*dh
		}
	}

	total := s.estS + s.estH
	var fracS float64
	switch {
	case total <= 0:
		// No demand anywhere: split by flow count if known, else
		// evenly, so whichever path wakes first has headroom.
		if sw.Flows+hw.Flows > 0 {
			fracS = float64(sw.Flows) / float64(sw.Flows+hw.Flows)
		} else {
			fracS = 0.5
		}
	default:
		fracS = s.estS / total
	}

	// Apply the minimum-share floor to both sides.
	min := s.MinShareFraction
	if fracS < min {
		fracS = min
	}
	if fracS > 1-min {
		fracS = 1 - min
	}

	ls := fracS * s.AggregateBps
	lh := s.AggregateBps - ls
	return Limits{
		SoftwareBps:          ls,
		HardwareBps:          lh,
		SoftwareWithOverflow: ls + s.OverflowBps,
		HardwareWithOverflow: lh + s.OverflowBps,
	}
}

// effectiveDemand returns the demand estimate used for proportioning. A
// maxed-out interface is bottlenecked by its limit, so its demand is
// inflated (here: by 50%, the original FPS uses a comparable multiplicative
// probe) to let its share grow until it stops maxing out.
func effectiveDemand(d Demand) float64 {
	if d.MaxedOut {
		return d.RateBps * 1.5
	}
	return d.RateBps
}
