package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9, ok: false},           // even the median has fewer than 10 above it
		{n: 19, ok: false},          // rank 10 leaves 9 above
		{n: 20, want: 50, ok: true}, // rank 10 leaves 10 above
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true}, // p99 would leave only 9 beyond
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
		{n: 100000, want: 99.99, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.5: 100, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSummariseNeedsP99Samples(t *testing.T) {
	ds := make([]time.Duration, 999)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Microsecond
	}
	if _, err := summarise(ds); err == nil {
		t.Fatal("summarise accepted 999 samples for a p99")
	}
	ds = append(ds, 1000*time.Microsecond)
	lat, err := summarise(ds)
	if err != nil {
		t.Fatal(err)
	}
	if lat.n != 1000 || lat.p50 != 500 || lat.p99 != 990 || lat.tailP != 99 {
		t.Errorf("summarise(1..1000us) = %+v", lat)
	}
}

func TestPeelSubtractsInnerStages(t *testing.T) {
	// world 100, +persist 50, serve 250, route 50, ship 150.
	stages := []float64{100, 150, 400, 450, 600}
	self, residual := peel(stages, 650)
	want := []float64{100, 50, 250, 50, 150}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
	}
	if residual != 50 {
		t.Errorf("residual = %v, want 50", residual)
	}
	var sum float64
	for _, s := range self {
		sum += s
	}
	if sum+residual != 650 {
		t.Errorf("self times plus residual = %v, want the end-to-end 650", sum+residual)
	}
	// An end-to-end median below the outermost stage leaves a negative
	// residual rather than hiding it.
	if _, r := peel(stages, 580); r != -20 {
		t.Errorf("residual = %v, want -20", r)
	}
}
