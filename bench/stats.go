package main

import (
	"math"
	"sort"
)

// normalise converts a raw time into reference-host time: the op ran
// between two yardstick runs, and the host speed it saw is taken as the
// mean of the two.
func normalise(raw, yardBefore, yardAfter float64) float64 {
	return raw * yardRefMS / ((yardBefore + yardAfter) / 2)
}

// normaliseWindow normalises every op of a window whose ops ran in
// batches of the given size, batch b between yards[b] and yards[b+1].
func normaliseWindow(rawMS, yardsMS []float64, batch int) []float64 {
	out := make([]float64, len(rawMS))
	for i, raw := range rawMS {
		b := i / batch
		out[i] = normalise(raw, yardsMS[b], yardsMS[b+1])
	}
	return out
}

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the q-quantile (0..1) of an ascending slice, linearly
// interpolated between closest ranks.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(sorted(v), 0.5) }

// samplesBeyond is how many of n samples lie above the position the
// q-quantile is interpolated at.
func samplesBeyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// tailQuantile is the highest of the reporting quantiles that still has
// at least ten samples beyond it — the rule for which tail percentile a
// sample of size n can support.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if samplesBeyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// returns (the "exclusive" method), so spreads computed here match the
// ones the benchmark's acceptance check computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	n := len(asc)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// relRange is (max-min)/median.
func relRange(v []float64) float64 {
	asc := sorted(v)
	m := percentile(asc, 0.5)
	if m == 0 {
		return 0
	}
	return (asc[len(asc)-1] - asc[0]) / math.Abs(m)
}
