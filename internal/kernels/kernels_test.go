package kernels

import (
	"math"
	"testing"

	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

func cfg() machine.Config { return machine.DefaultConfig() }

const tol = 1e-9

func TestJacobiGridMatchesSequential(t *testing.T) {
	m := 24
	a, b, _ := matrix.DiagonallyDominant(m, 3)
	x0 := make([]float64, m)
	want := matrix.JacobiSeq(a, b, x0, 10)
	for _, shape := range [][2]int{{1, 1}, {4, 1}, {1, 4}, {2, 2}, {2, 3}, {6, 4}} {
		res, err := JacobiGrid(cfg(), a, b, x0, 10, shape[0], shape[1])
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if d := matrix.MaxAbsDiff(res.X, want); d > tol {
			t.Errorf("shape %v: max diff %v", shape, d)
		}
	}
}

func TestJacobiGridConverges(t *testing.T) {
	m := 32
	a, b, xs := matrix.DiagonallyDominant(m, 5)
	x0 := make([]float64, m)
	res, err := JacobiGrid(cfg(), a, b, x0, 120, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(res.X, xs); d > 1e-8 {
		t.Fatalf("did not converge: %v", d)
	}
}

func TestJacobiRowSchemeCommMatchesSection4(t *testing.T) {
	// On an Nx1 grid the only communication is the X exchange:
	// m - m/N words received per processor per iteration, zero reduction.
	m, n, iters := 32, 4, 3
	a, b, _ := matrix.DiagonallyDominant(m, 7)
	x0 := make([]float64, m)
	res, err := JacobiGrid(cfg(), a, b, x0, iters, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the N multicasts ships m/N words to N-1 receivers.
	want := int64(iters) * int64(n) * int64(m/n) * int64(n-1)
	if res.Stats.Words != want {
		t.Errorf("words = %d, want %d", res.Stats.Words, want)
	}
	// 2m² for V = A·X and 3m for the X update, as cost's
	// TestCountJacobiL* tests count them for the counter.
	if wantFlops := int64(iters * (2*m*m + 3*m)); res.Stats.Flops != wantFlops {
		t.Errorf("flops = %d, want %d", res.Stats.Flops, wantFlops)
	}
}

func TestJacobiGridErrors(t *testing.T) {
	a, b, _ := matrix.DiagonallyDominant(10, 1)
	x0 := make([]float64, 10)
	if _, err := JacobiGrid(cfg(), a, b, x0, 1, 3, 1); err == nil {
		t.Fatal("indivisible rows accepted")
	}
	if _, err := JacobiGrid(cfg(), a, b, x0, 1, 1, 4); err == nil {
		t.Fatal("indivisible cols accepted")
	}
	if _, err := JacobiGrid(cfg(), a, b, x0, 1, 0, 1); err == nil {
		t.Fatal("zero processors accepted")
	}
}

func TestSORNaiveMatchesSequential(t *testing.T) {
	m := 24
	a, b, _ := matrix.DiagonallyDominant(m, 11)
	x0 := make([]float64, m)
	want := matrix.SORSeq(a, b, x0, 1.3, 6)
	for _, n := range []int{1, 2, 4, 8} {
		res, err := SORNaive(cfg(), a, b, x0, 1.3, 6, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(res.X, want); d > tol {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

func TestSORPipelinedMatchesSequential(t *testing.T) {
	m := 24
	a, b, _ := matrix.DiagonallyDominant(m, 13)
	x0 := make([]float64, m)
	want := matrix.SORSeq(a, b, x0, 1.1, 6)
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12} {
		res, err := SORPipelined(cfg(), a, b, x0, 1.1, 6, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(res.X, want); d > tol {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

func TestSORPipelinedConverges(t *testing.T) {
	m := 32
	a, b, xs := matrix.DiagonallyDominant(m, 17)
	x0 := make([]float64, m)
	res, err := SORPipelined(cfg(), a, b, x0, 1.0, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(res.X, xs); d > 1e-8 {
		t.Fatalf("did not converge: %v", d)
	}
}

// TestSORPipelinedBeatsNaive verifies the Section 5 claim on the machine:
// the pipelined implementation has a lower simulated makespan than the
// naive reduction implementation (and the gap grows with m).
func TestSORPipelinedBeatsNaive(t *testing.T) {
	n := 4
	var prevRatio float64
	for _, m := range []int{32, 64, 128} {
		a, b, _ := matrix.DiagonallyDominant(m, 19)
		x0 := make([]float64, m)
		naive, err := SORNaive(cfg(), a, b, x0, 1.2, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		pip, err := SORPipelined(cfg(), a, b, x0, 1.2, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		if pip.Stats.ParallelTime >= naive.Stats.ParallelTime {
			t.Errorf("m=%d: pipelined %v not faster than naive %v",
				m, pip.Stats.ParallelTime, naive.Stats.ParallelTime)
		}
		ratio := naive.Stats.ParallelTime / pip.Stats.ParallelTime
		if ratio < prevRatio {
			// The advantage should not shrink as m grows.
			t.Logf("m=%d: ratio %v (prev %v)", m, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// TestSORPipelinedTimeWithinPaperBound: Section 5 bounds the average
// per-iteration time by (m+N)(2(m/N)tf + 2tc).
func TestSORPipelinedTimeWithinPaperBound(t *testing.T) {
	m, n, iters := 64, 4, 4
	a, b, _ := matrix.DiagonallyDominant(m, 23)
	x0 := make([]float64, m)
	res, err := SORPipelined(cfg(), a, b, x0, 1.2, iters, n)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Stats.ParallelTime / float64(iters)
	bound := float64(m+n) * (2*float64(m)/float64(n) + 2)
	// Allow the update flops (5 per row) on top of the paper's bound.
	if perIter > bound*1.25 {
		t.Errorf("per-iteration %v exceeds Section 5 bound %v", perIter, bound)
	}
}

func TestGaussBroadcastSolves(t *testing.T) {
	m := 20
	a, b, xs := matrix.DiagonallyDominant(m, 29)
	for _, n := range []int{1, 2, 4, 5} {
		res, err := GaussBroadcast(cfg(), a, b, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(res.X, xs); d > 1e-7 {
			t.Errorf("n=%d: error %v", n, d)
		}
		// Exact agreement with the sequential listing.
		want := matrix.GaussSeq(a, b)
		if d := matrix.MaxAbsDiff(res.X, want); d > tol {
			t.Errorf("n=%d: diff vs sequential %v", n, d)
		}
	}
}

func TestGaussPipelinedSolves(t *testing.T) {
	m := 20
	a, b, xs := matrix.DiagonallyDominant(m, 31)
	want := matrix.GaussSeq(a, b)
	for _, n := range []int{1, 2, 3, 4, 7} {
		res, err := GaussPipelined(cfg(), a, b, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(res.X, want); d > tol {
			t.Errorf("n=%d: diff vs sequential %v", n, d)
		}
		if d := matrix.MaxAbsDiff(res.X, xs); d > 1e-7 {
			t.Errorf("n=%d: error vs x* %v", n, d)
		}
	}
}

// TestGaussPipelinedBeatsBroadcast verifies the Section 6 claim: shifting
// the pivot row around the ring beats multicasting it. The advantage is
// the multicast's log N factor, so it appears once log2 N exceeds the
// pipeline's constant per-hop cost (receive-wait plus forward, ~2 message
// times): parity at N=4, a growing win for N >= 8, and a win even at N=4
// when the hardware overlaps communication with computation (the closing
// remark of Section 5).
func TestGaussPipelinedBeatsBroadcast(t *testing.T) {
	m := 64
	a, b, _ := matrix.DiagonallyDominant(m, 37)
	prevRatio := 0.0
	for _, n := range []int{8, 16} {
		bc, err := GaussBroadcast(cfg(), a, b, n)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := GaussPipelined(cfg(), a, b, n)
		if err != nil {
			t.Fatal(err)
		}
		if pp.Stats.ParallelTime >= bc.Stats.ParallelTime {
			t.Errorf("n=%d: pipelined %v not faster than broadcast %v",
				n, pp.Stats.ParallelTime, bc.Stats.ParallelTime)
		}
		ratio := bc.Stats.ParallelTime / pp.Stats.ParallelTime
		if ratio <= prevRatio {
			t.Errorf("n=%d: advantage %v did not grow from %v (want ~log N growth)", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// N=4 with overlap: pipelining wins because forwarding leaves the
	// critical path.
	over := cfg()
	over.Overlap = true
	bc, err := GaussBroadcast(over, a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := GaussPipelined(over, a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Stats.ParallelTime >= bc.Stats.ParallelTime {
		t.Errorf("overlap n=4: pipelined %v not faster than broadcast %v",
			pp.Stats.ParallelTime, bc.Stats.ParallelTime)
	}
}

func TestGaussRingValidation(t *testing.T) {
	a, b, _ := matrix.DiagonallyDominant(4, 1)
	if _, err := GaussBroadcast(cfg(), a, b, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := GaussPipelined(cfg(), a, b, 8); err == nil {
		t.Fatal("more processors than rows accepted")
	}
}

func TestCannonMatchesSequential(t *testing.T) {
	m := 12
	bm := matrix.RandomDense(m, m, 41)
	cm := matrix.RandomDense(m, m, 43)
	want := bm.Mul(cm)
	for _, q := range []int{1, 2, 3, 4, 6} {
		got, _, err := Cannon(cfg(), bm, cm, q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if d := matrix.MaxAbsDiff(got.Data, want.Data); d > tol {
			t.Errorf("q=%d: max diff %v", q, d)
		}
	}
}

func TestCannonCommunicationVolume(t *testing.T) {
	// q-1 rotation steps, each moving two blocks of (m/q)^2 words per
	// processor: total words = 2 (q-1) q^2 (m/q)^2.
	m, q := 16, 4
	bm := matrix.RandomDense(m, m, 47)
	cm := matrix.RandomDense(m, m, 53)
	_, st, err := Cannon(cfg(), bm, cm, q)
	if err != nil {
		t.Fatal(err)
	}
	blk := m / q
	want := int64(2 * (q - 1) * q * q * blk * blk)
	if st.Words != want {
		t.Errorf("words = %d, want %d", st.Words, want)
	}
	// Perfect load balance: every processor does 2(m/q)^2 m flops.
	if st.MaxFlops() != int64(2*blk*blk*m) {
		t.Errorf("max flops = %d, want %d", st.MaxFlops(), 2*blk*blk*m)
	}
}

func TestCannonValidation(t *testing.T) {
	bm := matrix.RandomDense(9, 9, 1)
	cm := matrix.RandomDense(9, 8, 1)
	if _, _, err := Cannon(cfg(), bm, cm, 3); err == nil {
		t.Fatal("non-square C accepted")
	}
	if _, _, err := Cannon(cfg(), matrix.RandomDense(9, 9, 1), matrix.RandomDense(9, 9, 2), 2); err == nil {
		t.Fatal("indivisible size accepted")
	}
}

// TestOverlapReducesJacobiTime: with Overlap on, the simulated makespan
// must not increase, and should strictly decrease when communication is
// on the critical path ("if the hardware supports overlaying the
// computation and the communication, the total execution time may reduce
// further", Section 5).
func TestOverlapHelps(t *testing.T) {
	m, n := 32, 4
	a, b, _ := matrix.DiagonallyDominant(m, 59)
	x0 := make([]float64, m)
	plain := cfg()
	over := cfg()
	over.Overlap = true
	r1, err := SORPipelined(plain, a, b, x0, 1.2, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SORPipelined(over, a, b, x0, 1.2, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.ParallelTime > r1.Stats.ParallelTime {
		t.Errorf("overlap increased time: %v > %v", r2.Stats.ParallelTime, r1.Stats.ParallelTime)
	}
	if math.Abs(r1.Stats.ParallelTime-r2.Stats.ParallelTime) < 1e-12 {
		t.Logf("overlap made no difference at m=%d n=%d", m, n)
	}
}

func TestJacobiStatsAccounting(t *testing.T) {
	m, n1, n2, iters := 16, 2, 2, 2
	a, b, _ := matrix.DiagonallyDominant(m, 61)
	x0 := make([]float64, m)
	res, err := JacobiGrid(cfg(), a, b, x0, iters, n1, n2)
	if err != nil {
		t.Fatal(err)
	}
	// Matvec flops: 2 m^2 per iteration (split across processors) plus
	// 3m update flops plus reduction combines.
	minFlops := int64(iters * (2*m*m + 3*m))
	if res.Stats.Flops < minFlops {
		t.Errorf("flops = %d, want >= %d", res.Stats.Flops, minFlops)
	}
	if res.Stats.ParallelTime <= 0 || res.Stats.Messages == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestSORChunkedMatchesSequential(t *testing.T) {
	m := 32
	a, b, _ := matrix.DiagonallyDominant(m, 71)
	x0 := make([]float64, m)
	want := matrix.SORSeq(a, b, x0, 1.15, 5)
	for _, n := range []int{2, 4} {
		for _, chunk := range []int{1, 2, 4, m / n} {
			res, err := SORPipelinedChunked(cfg(), a, b, x0, 1.15, 5, n, chunk)
			if err != nil {
				t.Fatalf("n=%d chunk=%d: %v", n, chunk, err)
			}
			if d := matrix.MaxAbsDiff(res.X, want); d > tol {
				t.Errorf("n=%d chunk=%d: max diff %v", n, chunk, d)
			}
		}
	}
}

// TestSORChunkTradeoff: with zero startup cost, fine-grain pipelining
// (chunk 1) is fastest; with a large per-message startup, coarser chunks
// win — the granularity trade-off of blocked pipelining.
func TestSORChunkTradeoff(t *testing.T) {
	m, n := 64, 4
	a, b, _ := matrix.DiagonallyDominant(m, 79)
	x0 := make([]float64, m)
	timeFor := func(alpha float64, chunk int) float64 {
		c := cfg()
		c.Alpha = alpha
		res, err := SORPipelinedChunked(c, a, b, x0, 1.2, 2, n, chunk)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.ParallelTime
	}
	if t1, t8 := timeFor(0, 1), timeFor(0, 8); t1 > t8 {
		t.Errorf("alpha=0: chunk 1 (%v) should not lose to chunk 8 (%v)", t1, t8)
	}
	if t1, t8 := timeFor(16, 1), timeFor(16, 8); t8 >= t1 {
		t.Errorf("alpha=16: chunk 8 (%v) should beat chunk 1 (%v)", t8, t1)
	}
}

func TestSORChunkedValidation(t *testing.T) {
	a, b, _ := matrix.DiagonallyDominant(16, 1)
	x0 := make([]float64, 16)
	if _, err := SORPipelinedChunked(cfg(), a, b, x0, 1.2, 1, 4, 3); err == nil {
		t.Fatal("chunk not dividing block accepted")
	}
	if _, err := SORPipelinedChunked(cfg(), a, b, x0, 1.2, 1, 4, 0); err == nil {
		t.Fatal("chunk 0 accepted")
	}
}

func TestGaussBlockCyclicSolves(t *testing.T) {
	m := 24
	a, b, _ := matrix.DiagonallyDominant(m, 111)
	want := matrix.GaussSeq(a, b)
	for _, n := range []int{2, 4} {
		for _, block := range []int{1, 2, 3, m / n} {
			res, err := GaussPipelinedBlockCyclic(cfg(), a, b, n, block)
			if err != nil {
				t.Fatalf("n=%d block=%d: %v", n, block, err)
			}
			if d := matrix.MaxAbsDiff(res.X, want); d > tol {
				t.Errorf("n=%d block=%d: diff %v", n, block, d)
			}
		}
	}
	if _, err := GaussPipelinedBlockCyclic(cfg(), a, b, 4, 0); err == nil {
		t.Fatal("block 0 accepted")
	}
}

func TestGaussBlockCyclicMatchesCyclicAtBlock1(t *testing.T) {
	m, n := 32, 4
	a, b, _ := matrix.DiagonallyDominant(m, 113)
	r1, err := GaussPipelined(cfg(), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := GaussPipelinedBlockCyclic(cfg(), a, b, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.ParallelTime != rb.Stats.ParallelTime || r1.Stats.Words != rb.Stats.Words {
		t.Errorf("block=1 stats differ: %v/%d vs %v/%d",
			rb.Stats.ParallelTime, rb.Stats.Words, r1.Stats.ParallelTime, r1.Stats.Words)
	}
}

// TestGaussLayoutLoadBalanceOnMachine: the Section 6 load-balance
// argument measured end to end — cyclic beats contiguous blocks on
// makespan and max-processor flops for the triangular workload.
func TestGaussLayoutLoadBalanceOnMachine(t *testing.T) {
	m, n := 48, 4
	a, b, _ := matrix.DiagonallyDominant(m, 117)
	cyc, err := GaussPipelinedBlockCyclic(cfg(), a, b, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := GaussPipelinedBlockCyclic(cfg(), a, b, n, m/n)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Stats.MaxFlops() >= blk.Stats.MaxFlops() {
		t.Errorf("cyclic max flops %d not below contiguous %d", cyc.Stats.MaxFlops(), blk.Stats.MaxFlops())
	}
	if cyc.Stats.ParallelTime >= blk.Stats.ParallelTime {
		t.Errorf("cyclic makespan %v not below contiguous %v", cyc.Stats.ParallelTime, blk.Stats.ParallelTime)
	}
}

func TestGaussPartialPivotMatchesSequential(t *testing.T) {
	m := 20
	a, b, xs := matrix.NearSingularLeading(m, 1e-13, 121)
	want, _ := matrix.GaussPivotSeq(a, b)
	for _, n := range []int{1, 2, 4, 5} {
		res, err := GaussPartialPivot(cfg(), a, b, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(res.X, want); d > tol {
			t.Errorf("n=%d: diff vs sequential pivoting %v", n, d)
		}
		if d := matrix.MaxAbsDiff(res.X, xs); d > 1e-6 {
			t.Errorf("n=%d: error vs x* %v", n, d)
		}
	}
}

// TestPivotingRescuesStability: without pivoting the tiny leading pivot
// destroys accuracy; with pivoting the solution stays tight.
func TestPivotingRescuesStability(t *testing.T) {
	m, n := 24, 4
	a, b, xs := matrix.NearSingularLeading(m, 1e-13, 127)
	plain, err := GaussPipelined(cfg(), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	piv, err := GaussPartialPivot(cfg(), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	errPlain := matrix.MaxAbsDiff(plain.X, xs)
	errPiv := matrix.MaxAbsDiff(piv.X, xs)
	if errPiv*1e3 > errPlain {
		t.Errorf("pivoting error %.3g not well below plain %.3g", errPiv, errPlain)
	}
}

func TestGaussPartialPivotOnWellConditioned(t *testing.T) {
	// On diagonally dominant systems pivoting may still permute; the
	// answer must match the sequential pivoting reference exactly.
	m := 16
	a, b, _ := matrix.DiagonallyDominant(m, 131)
	want, _ := matrix.GaussPivotSeq(a, b)
	res, err := GaussPartialPivot(cfg(), a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(res.X, want); d > tol {
		t.Errorf("diff %v", d)
	}
}
