package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{8, 2, 4, 6}, 0.75, 6.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
	} {
		if got := quantile(sorted(c.xs), c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestP90CountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 110)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := p90(xs)
	if !near(v, 99.1) || beyond != 11 {
		t.Errorf("p90 of 1..110 = %v with %d beyond, want 99.1 with 11", v, beyond)
	}
	if _, beyond := p90([]float64{1, 2, 3}); beyond != 1 {
		t.Errorf("p90 of three samples has %d beyond, want 1", beyond)
	}
}

func TestRatioAndSum(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
	if sum([]float64{1, 2, 3.5}) != 6.5 || sum(nil) != 0 {
		t.Error("sum")
	}
}
