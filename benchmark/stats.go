package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile of ascending xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// p90 returns the 90th percentile with the number of samples beyond it: the
// percentile is trustworthy once at least ten samples lie above it.
func p90(xs []float64) (value float64, beyond int) {
	s := sorted(xs)
	value = quantile(s, 0.9)
	for _, x := range s {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (an empty sample, not a division fault).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
