package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, // 10 beyond
		{99, 0.9, false}, // 9 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v (beyond=%d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {150, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestFailedRequestsSortAsInf(t *testing.T) {
	ss := make([]sample, 20)
	for i := range ss {
		ss[i] = sample{start: 0, end: 0.001 * float64(i+1), ok: true}
	}
	// Two failures out of 20: the p90 (rank 18) is still finite, the p95
	// (rank 19) is +Inf, even though the failures returned instantly.
	ss[3] = sample{start: 0, end: 0, ok: false}
	ss[7] = sample{start: 0, end: 0, ok: false}
	lat := latencies(ss)
	if p := percentile(lat, 0.9); math.IsInf(p, 1) {
		t.Errorf("p90 = %g, want finite", p)
	}
	if p := percentile(lat, 0.95); !math.IsInf(p, 1) {
		t.Errorf("p95 = %g, want +Inf", p)
	}
}

func TestVerifiedRateCountsOnlyVerified(t *testing.T) {
	ss := []sample{{ok: true}, {ok: true}, {ok: false}, {ok: true}}
	if got := verifiedRate(ss, 2); got != 1.5 {
		t.Errorf("verifiedRate = %g, want 1.5", got)
	}
	if got := verifiedRate(ss, 0); got != 0 {
		t.Errorf("verifiedRate over zero time = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
