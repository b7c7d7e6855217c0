package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

// TestQuartilesMatchPython pins the cut points Python's
// statistics.quantiles(data, n=4) (method "exclusive") prints for the same
// inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must fail")
	}
	if r, ok := relativeIQR([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !ok || !near(r, 5.5/5.5) {
		t.Errorf("relativeIQR = %v %v, want 1", r, ok)
	}
}

func TestPercentileTailRule(t *testing.T) {
	if got := minSamplesFor(0.9); got != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1
	}
	v, beyond := percentile(xs, 0.9)
	if !near(v, 90.1) || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90.1 with 10", v, beyond)
	}
	v, beyond = percentile(xs[:90], 0.9)
	if beyond >= minTail {
		t.Errorf("90 samples leave %d beyond p90 (%v); the rule must not accept them", beyond, v)
	}
	if v, beyond := percentile([]float64{7}, 0.5); v != 7 || beyond != 0 {
		t.Errorf("single-sample percentile = %v, %d", v, beyond)
	}
}
