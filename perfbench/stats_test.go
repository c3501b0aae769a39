package main

import (
	"math"
	"testing"
)

func TestQuantileKnownSamples(t *testing.T) {
	oneToTen := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{oneToTen, 0, 1},
		{oneToTen, 1, 10},
		{oneToTen, 0.5, 5.5},
		{oneToTen, 0.25, 3.25},
		{oneToTen, 0.99, 9.91},
		{[]float64{4}, 0.99, 4},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of no sample = %v, want NaN", got)
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}
