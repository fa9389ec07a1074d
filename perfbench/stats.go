package main

// stats.go holds the benchmark's summary rules: the percentile rule for
// latency tails, medians, and the layer-peel subtraction.

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// tailCandidates are the percentiles the tail rule chooses from, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 50}

// minBeyond is the number of samples a reported percentile must have
// above it.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it; ok is false when even the
// median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// beyond is the number of samples of n strictly above percentile p
// under the nearest-rank rule.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of percentile p among n samples.
// The tolerance keeps a rank such as 99.9% of 10000 from rounding up
// past 9990.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanUS is the mean of ds in microseconds (0 when empty).
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(len(ds))
}

// medianUS is the median of ds in microseconds (0 when empty).
func medianUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d.Nanoseconds()) / 1e3
	}
	return median(us)
}

// latencies summarises per-op wall latencies.
type latencies struct {
	n     int
	p50   float64 // microseconds
	p99   float64
	tail  float64 // the highest percentile the rule allows
	tailP float64
}

// summarise applies the tail rule to per-op latencies. It fails when
// the sample count does not support a p99.
func summarise(ds []time.Duration) (latencies, error) {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d.Nanoseconds()) / 1e3
	}
	slices.Sort(us)
	tp, ok := tailPercentile(len(us))
	if !ok || tp < 99 {
		return latencies{}, fmt.Errorf("%d latency samples do not support a p99 (need %d beyond it)", len(us), minBeyond)
	}
	return latencies{n: len(us), p50: percentile(us, 50), p99: percentile(us, 99), tail: percentile(us, tp), tailP: tp}, nil
}

// peel turns stage medians into per-layer self times. stages[i] is the
// median per-op time of driving the ops through layer i's public entry
// point, innermost first, so each stage includes every inner layer. A
// layer's self time is its stage minus the stage below it; the first
// layer's self time is its whole stage. residual is the measured
// end-to-end median minus the outermost stage: time the peel does not
// attribute to any layer (it is negative when the end-to-end run was
// faster than the outermost stage).
func peel(stages []float64, endToEnd float64) (self []float64, residual float64) {
	self = make([]float64, len(stages))
	prev := 0.0
	for i, s := range stages {
		self[i] = s - prev
		prev = s
	}
	return self, endToEnd - prev
}
