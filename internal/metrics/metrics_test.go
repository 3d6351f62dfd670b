package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.P99() != 0 || h.Count() != 0 || h.Percentile(0) != 0 || h.Percentile(100) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Errorf("Mean = %v, want 20µs", got)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{1, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHistogramObserveAfterPercentile(t *testing.T) {
	// Percentile sorts in place; later Observes must still be seen.
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	_ = h.P99()
	h.Observe(50 * time.Millisecond)
	if got := h.Percentile(100); got != 50*time.Millisecond {
		t.Errorf("Max = %v after post-sort Observe, want 50ms", got)
	}
}

func TestCPUAccount(t *testing.T) {
	var a CPUAccount
	a.Charge(2 * time.Second)
	a.Charge(time.Second)
	a.Charge(-time.Second) // ignored
	if got := a.LogicalCPUs(time.Second); got != 3.0 {
		t.Errorf("LogicalCPUs = %v, want 3.0", got)
	}
	if a.LogicalCPUs(0) != 0 {
		t.Error("zero elapsed should yield 0")
	}
	a.Reset()
	if a.Busy() != 0 {
		t.Error("Reset did not clear account")
	}
}

// Property: mean is bounded by min and max, and percentiles are monotone.
func TestHistogramProperties(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		if h.Mean() < h.Percentile(0) || h.Mean() > h.Percentile(100) {
			return false
		}
		prev := time.Duration(0)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
