package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks (the "R-7" definition spreadsheets
// and numpy use). sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median sorts a copy of xs and returns its 50th percentile.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// latencies collects per-sample latencies in nanoseconds. uint32 holds
// 4.29 s, above every per-op deadline in the suite; longer samples
// saturate.
type latencies []uint32

func (l *latencies) add(took time.Duration) {
	*l = append(*l, uint32(min(max(took.Nanoseconds(), 0), math.MaxUint32)))
}

// sortedUS returns the samples ascending, in microseconds.
func (l latencies) sortedUS() []float64 {
	out := make([]float64, len(l))
	for i, v := range l {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// p50p90 returns the median and the 90th percentile over every sample of
// the timed section, in microseconds.
func (l latencies) p50p90() (p50, p90 float64) {
	s := l.sortedUS()
	return percentile(s, 50), percentile(s, 90)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
