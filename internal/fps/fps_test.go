package fps

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitterProportional(t *testing.T) {
	s := NewSplitter(1e9) // 1 Gbps aggregate
	s.EWMA = 0            // no smoothing for determinism
	lim := s.Adjust(Demand{RateBps: 300e6}, Demand{RateBps: 700e6})
	if math.Abs(lim.SoftwareBps-300e6) > 1e6 || math.Abs(lim.HardwareBps-700e6) > 1e6 {
		t.Errorf("split = %v / %v, want 300M/700M", lim.SoftwareBps, lim.HardwareBps)
	}
	if lim.SoftwareBps+lim.HardwareBps != 1e9 {
		t.Error("shares do not sum to aggregate")
	}
}

func TestSplitterOverflow(t *testing.T) {
	s := NewSplitter(1e9)
	s.EWMA = 0
	lim := s.Adjust(Demand{RateBps: 500e6}, Demand{RateBps: 500e6})
	if lim.SoftwareWithOverflow <= lim.SoftwareBps || lim.HardwareWithOverflow <= lim.HardwareBps {
		t.Error("overflow allowance not added")
	}
	if got := lim.SoftwareWithOverflow - lim.SoftwareBps; math.Abs(got-s.OverflowBps) > 1 {
		t.Errorf("overflow = %v, want %v", got, s.OverflowBps)
	}
}

func TestSplitterNoDemandEvenSplit(t *testing.T) {
	s := NewSplitter(1e9)
	lim := s.Adjust(Demand{}, Demand{})
	if lim.SoftwareBps != 500e6 || lim.HardwareBps != 500e6 {
		t.Errorf("idle split = %v/%v, want even", lim.SoftwareBps, lim.HardwareBps)
	}
}

func TestSplitterNoDemandFlowWeighted(t *testing.T) {
	s := NewSplitter(1e9)
	lim := s.Adjust(Demand{Flows: 3}, Demand{Flows: 1})
	if lim.SoftwareBps <= lim.HardwareBps {
		t.Errorf("flow-weighted split ignored flow counts: %v/%v", lim.SoftwareBps, lim.HardwareBps)
	}
}

func TestSplitterMinimumShare(t *testing.T) {
	s := NewSplitter(1e9)
	s.EWMA = 0
	lim := s.Adjust(Demand{RateBps: 0}, Demand{RateBps: 900e6})
	if lim.SoftwareBps < 0.10*1e9-1 {
		t.Errorf("software share %v below 10%% floor", lim.SoftwareBps)
	}
}

func TestSplitterMaxedOutGrows(t *testing.T) {
	s := NewSplitter(1e9)
	s.EWMA = 0
	// Hardware is clipped at its limit (maxed out): its share must grow
	// relative to a non-maxed reading of the same rate.
	base := s2limits(1e9, Demand{RateBps: 500e6}, Demand{RateBps: 500e6})
	grown := s2limits(1e9, Demand{RateBps: 500e6}, Demand{RateBps: 500e6, MaxedOut: true})
	if grown.HardwareBps <= base.HardwareBps {
		t.Errorf("maxed-out hardware share did not grow: %v vs %v", grown.HardwareBps, base.HardwareBps)
	}
}

func s2limits(agg float64, sw, hw Demand) Limits {
	s := NewSplitter(agg)
	s.EWMA = 0
	return s.Adjust(sw, hw)
}

func TestConvergence(t *testing.T) {
	// True demand 100 Mbps software, 800 Mbps hardware under a 600 Mbps
	// aggregate. After convergence the hardware limit should approach
	// its proportional share (~500 Mbps+) and software near its demand.
	s := NewSplitter(600e6)
	lim := convergeSteps(s, 50, 100e6, 800e6)
	if lim.HardwareBps < 350e6 {
		t.Errorf("hardware share %v did not converge upward", lim.HardwareBps)
	}
	if lim.SoftwareBps+lim.HardwareBps > 600e6+1 {
		t.Error("converged shares exceed aggregate")
	}
}

// Property: shares are non-negative, respect the floor, and always sum to
// the aggregate, for any demands.
func TestSplitterInvariants(t *testing.T) {
	f := func(dsRaw, dhRaw uint32, flowsS, flowsH uint8, maxS, maxH bool) bool {
		agg := 1e9
		s := NewSplitter(agg)
		lim := s.Adjust(
			Demand{RateBps: float64(dsRaw), Flows: int(flowsS), MaxedOut: maxS},
			Demand{RateBps: float64(dhRaw), Flows: int(flowsH), MaxedOut: maxH},
		)
		if lim.SoftwareBps < 0 || lim.HardwareBps < 0 {
			return false
		}
		if math.Abs(lim.SoftwareBps+lim.HardwareBps-agg) > 1 {
			return false
		}
		floor := s.MinShareFraction*agg - 1
		return lim.SoftwareBps >= floor && lim.HardwareBps >= floor
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: performance isolation (§1 objective 2) — the installed limits
// exceed the aggregate only by the fixed overflow allowance on each side,
// never unboundedly.
func TestOverflowBoundProperty(t *testing.T) {
	f := func(ds, dh uint32) bool {
		agg := 500e6
		s := NewSplitter(agg)
		lim := s.Adjust(Demand{RateBps: float64(ds)}, Demand{RateBps: float64(dh)})
		return lim.SoftwareWithOverflow+lim.HardwareWithOverflow <= agg+2*s.OverflowBps+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// convergeSteps runs s.Adjust for n intervals against fixed true demands
// and reports the final limits. clip models what an installed limit lets
// through of the true demand.
func convergeSteps(s *Splitter, n int, trueSwBps, trueHwBps float64) Limits {
	lim := s.Adjust(Demand{RateBps: trueSwBps}, Demand{RateBps: trueHwBps})
	for i := 0; i < n; i++ {
		obsS := clip(trueSwBps, lim.SoftwareWithOverflow)
		obsH := clip(trueHwBps, lim.HardwareWithOverflow)
		lim = s.Adjust(
			Demand{RateBps: obsS, MaxedOut: obsS >= lim.SoftwareWithOverflow*0.95},
			Demand{RateBps: obsH, MaxedOut: obsH >= lim.HardwareWithOverflow*0.95},
		)
	}
	return lim
}

func clip(v, limit float64) float64 {
	if v > limit {
		return limit
	}
	return v
}
