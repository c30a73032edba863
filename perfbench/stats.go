package main

import (
	"fmt"
	"math"
	"sort"
)

// latencyLimitMS is the latency limit on the tail percentile: one frame
// period of the 30 Hz da Vinci kinematics stream.
const latencyLimitMS = 33.0

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be reported at all.
const minBeyond = 10

// tailPercentiles are the candidates for a distribution's reported tail,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// dist summarizes a sample: its size, median and the highest candidate
// percentile that has at least minBeyond samples beyond it (Pct and Tail
// are 0 when even the median lacks them).
type dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	Pct  float64 `json:"tail_pct"`
	Tail float64 `json:"tail"`
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples; n − rank samples lie beyond it.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(k, 1), n)
}

// tailPct returns the highest candidate percentile with at least
// minBeyond of n samples beyond it, or 0.
func tailPct(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), Pct: tailPct(len(xs))}
	if d.N > 0 {
		d.P50 = percentile(xs, 50)
	}
	if d.Pct > 0 {
		d.Tail = percentile(xs, d.Pct)
	}
	return d
}

// at returns the p-th percentile when the sample supports it (at least
// minBeyond samples beyond), else an error naming the sample size.
func (d dist) at(xs []float64, p float64) (float64, error) {
	if d.N == 0 || d.N-rank(p, d.N) < minBeyond {
		return math.NaN(), fmt.Errorf("p%g needs %d samples beyond it; n=%d has %d", p, minBeyond, d.N, d.N-rank(p, max(d.N, 1)))
	}
	return percentile(xs, p), nil
}

// median returns the median of xs (sorting a copy), 0 for none.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// geometricLadder returns base·ratio^k for k in [lo, hi].
func geometricLadder(base, ratio float64, lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, base*math.Pow(ratio, float64(k)))
	}
	return out
}

// searchCapacity returns the index of the highest passing ladder step
// strictly between lo and hi, or lo when none does, assuming steps pass
// monotonically (a step passes only if every lower one does). lo is a
// step known to pass (-1 for none), hi one known to fail (the ladder
// length for none).
func searchCapacity(lo, hi int, pass func(i int) bool) int {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
