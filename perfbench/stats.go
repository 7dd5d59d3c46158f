package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks), or NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or NaN for an empty sample.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// exponent is the empirical growth exponent log(tMain/tHalf) /
// log(nMain/nHalf) between two sizes.
func exponent(tMain, tHalf float64, nMain, nHalf int) float64 {
	return math.Log(tMain/tHalf) / math.Log(float64(nMain)/float64(nHalf))
}

// another reports whether a closed loop starts cycle i: always before
// minCycles cycles are done, then until the deadline.
func another(i, minCycles int, deadline int64) bool {
	return i < minCycles || now() < deadline
}
