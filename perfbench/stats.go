package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of requests.
const minBeyond = 10

// sample is one timed operation. ok is false for a request that failed,
// was refused or returned a result that did not match its reference; such
// a request misses every latency limit, so it sorts as +Inf.
type sample struct {
	start, end float64 // seconds since the phase began
	ok         bool
}

// latency is the sample's time from its submit to its verified result,
// or +Inf when the operation did not succeed.
func (s sample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return s.end - s.start
}

// latencies returns the samples' latencies, failures as +Inf.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latency()
	}
	return out
}

// percentile is the nearest-rank percentile (0 < p < 1) of xs: the
// smallest value with at least a fraction p of the samples at or below
// it. +Inf values sort last, so failures count against the tail. It
// returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}

// beyond counts the samples ranked above the nearest-rank p percentile of
// n samples.
func beyond(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return n - r
}

// percentileOK reports whether n samples support reporting percentile p
// under the percentile rule.
func percentileOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// tailPercentile returns the highest of p50, p90, p99 and p99.9 that n
// samples support under the percentile rule, or 0 when none does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if percentileOK(n, p) {
			best = p
		}
	}
	return best
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// verifiedRate is completions per second of a phase that lasted dur
// seconds, counting only samples whose result was verified.
func verifiedRate(ss []sample, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return float64(n) / dur
}
