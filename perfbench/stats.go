package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs into four groups with the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so spreads computed here match Python's for the same values. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var cuts [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cuts[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cuts[0], cuts[1], cuts[2], true
}

// relativeIQR is the interquartile range of xs as a share of its median.
func relativeIQR(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}

// minTail is how many samples must lie strictly above a reported
// percentile for the percentile to mean anything.
const minTail = 10

// minSamplesFor is the smallest sample count that can leave minTail
// samples above the p-th percentile (p in (0,1)).
func minSamplesFor(p float64) int {
	return int(math.Ceil(minTail/(1-p) - 1e-9)) // 1-0.9 is not exact in binary
}

// percentile returns the p-th percentile of xs (linear interpolation
// between closest ranks) and how many samples lie strictly above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		value = s[n-1]
	} else {
		value = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	for _, x := range s {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}
