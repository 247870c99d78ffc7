// Algorithm 1 of Section 4: a dynamic programming algorithm computing the
// minimum cost order of data distribution schemes for executing a
// sequence of s Do-loops on the distributed memory computer.
//
// Let M[i][j] be the cost of computing loops L_i .. L_{i+j-1} under the
// single scheme P[i][j] found by component alignment of that subsequence,
// and T[i][j] the minimum cost of computing L_1 .. L_{i+j-1} such that the
// final segment is exactly (i, j). Then
//
//	T[1][j] = M[1][j]
//	T[i][j] = min over 1 <= k < i of
//	          T[i-k][k] + M[i][j] + cost(P[i-k][k] -> P[i][j])
//
// and the answer is min over k of T[s-k+1][k] plus, for iterative
// programs, the loop-carried-dependence cost of the final scheme.
package core

import (
	"fmt"
	"math"
)

// SegmentCoster abstracts the cost queries Algorithm 1 needs, so the DP
// can be driven either by the exact enumeration counter (package cost) or
// by closed-form models in tests.
type SegmentCoster interface {
	// SegmentCost returns M[i][j] and P[i][j] for loops L_i..L_{i+j-1}
	// (1-based i, j >= 1).
	SegmentCost(i, j int) (float64, *SchemeSet, error)
	// ChangeCost prices the redistribution from one scheme set to the
	// next between consecutive segments (the cost(P,P') term).
	ChangeCost(from, to *SchemeSet) (float64, error)
	// LoopCarriedCost prices the loop-carried dependences of an iterative
	// program under the final segment's schemes (the CTime2 term).
	LoopCarriedCost(final *SchemeSet) (float64, error)
}

// Segment is one run of consecutive loops executed under one scheme set.
type Segment struct {
	Start, Len int // 1-based loop range [Start, Start+Len-1]
	Schemes    *SchemeSet
	M          float64 // segment execution cost
	ChangeIn   float64 // redistribution cost paid entering this segment
}

// DPResult is the outcome of Algorithm 1.
type DPResult struct {
	Segments []Segment
	// SegmentTotal is the sum of M and redistribution costs.
	SegmentTotal float64
	// LoopCarried is the final loop-carried term (0 for non-iterative).
	LoopCarried float64
	// MinimumCost = SegmentTotal + LoopCarried.
	MinimumCost float64
	// T holds the DP table for reports: T[i][j], 1-based, 0 unused.
	T [][]float64
}

// RunDP executes Algorithm 1 for a sequence of s loops.
func RunDP(s int, coster SegmentCoster, iterative bool) (*DPResult, error) {
	if s < 1 {
		return nil, fmt.Errorf("core: DP over %d loops", s)
	}
	type cell struct {
		t       float64
		prevK   int // length of the previous segment (0 for first)
		m       float64
		changed float64
		schemes *SchemeSet
	}
	// Each M[i][j] is asked of the coster exactly once; T indexed [i][j].
	table := make([][]cell, s+1)
	for i := range table {
		table[i] = make([]cell, s+2)
		for j := range table[i] {
			table[i][j].t = math.Inf(1)
		}
	}
	for j := 1; j <= s; j++ {
		m, ss, err := coster.SegmentCost(1, j)
		if err != nil {
			return nil, err
		}
		table[1][j] = cell{t: m, prevK: 0, m: m, schemes: ss}
	}
	for i := 2; i <= s; i++ {
		for j := 1; j <= s-i+1; j++ {
			m, ss, err := coster.SegmentCost(i, j)
			if err != nil {
				return nil, err
			}
			bestT := math.Inf(1)
			bestK := 0
			bestChange := 0.0
			for k := 1; k < i; k++ {
				prev := table[i-k][k]
				if math.IsInf(prev.t, 1) {
					continue
				}
				chg, err := coster.ChangeCost(prev.schemes, ss)
				if err != nil {
					return nil, err
				}
				if t := prev.t + m + chg; t < bestT {
					bestT, bestK, bestChange = t, k, chg
				}
			}
			table[i][j] = cell{t: bestT, prevK: bestK, m: m, changed: bestChange, schemes: ss}
		}
	}

	// Final minimization over the last segment's length.
	bestCost := math.Inf(1)
	bestK := 0
	bestLC := 0.0
	for k := 1; k <= s; k++ {
		c := table[s-k+1][k]
		if math.IsInf(c.t, 1) {
			continue
		}
		lc := 0.0
		if iterative {
			var err error
			lc, err = coster.LoopCarriedCost(c.schemes)
			if err != nil {
				return nil, err
			}
		}
		if t := c.t + lc; t < bestCost {
			bestCost, bestK, bestLC = t, k, lc
		}
	}
	if math.IsInf(bestCost, 1) {
		return nil, fmt.Errorf("core: DP found no feasible segmentation")
	}

	// Trace back the chosen segmentation.
	var segs []Segment
	i, j := s-bestK+1, bestK
	for {
		c := table[i][j]
		segs = append([]Segment{{Start: i, Len: j, Schemes: c.schemes, M: c.m, ChangeIn: c.changed}}, segs...)
		if c.prevK == 0 {
			break
		}
		i, j = i-c.prevK, c.prevK
	}

	res := &DPResult{
		Segments:    segs,
		LoopCarried: bestLC,
		MinimumCost: bestCost,
	}
	res.SegmentTotal = bestCost - bestLC
	res.T = make([][]float64, s+1)
	for ii := 1; ii <= s; ii++ {
		res.T[ii] = make([]float64, s+2)
		for jj := 1; jj <= s-ii+1; jj++ {
			res.T[ii][jj] = table[ii][jj].t
		}
	}
	return res, nil
}
