package machine

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dmcc/internal/grid"
)

func mustNew(t testing.TB, g *grid.Grid, cfg Config) *Machine {
	t.Helper()
	m, err := New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func run(t *testing.T, g *grid.Grid, cfg Config, body func(p *Proc)) Stats {
	t.Helper()
	st, err := mustNew(t, g, cfg).Run(body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

func TestSendRecvDeliversCopy(t *testing.T) {
	g := grid.New(2)
	run(t, g, DefaultConfig(), func(p *Proc) {
		if p.Rank() == 0 {
			data := []Word{1, 2, 3}
			p.Send(1, data)
			data[0] = 99 // must not affect the receiver
		} else {
			got := p.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestSendRecvClockModel(t *testing.T) {
	g := grid.New(2)
	cfg := Config{Tf: 2, Tc: 3, Alpha: 5, Overlap: false}
	st := run(t, g, cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(10) // clock = 20
			p.Send(1, []Word{1, 2})
			// non-overlap: sender pays alpha + 2*Tc = 11; clock = 31
			if p.Clock() != 31 {
				t.Errorf("sender clock = %v, want 31", p.Clock())
			}
		} else {
			got := p.Recv(0)
			if len(got) != 2 {
				t.Errorf("len = %d", len(got))
			}
			// receiver waits until arrival at t=31
			if p.Clock() != 31 {
				t.Errorf("receiver clock = %v, want 31", p.Clock())
			}
		}
	})
	if st.ParallelTime != 31 {
		t.Errorf("ParallelTime = %v, want 31", st.ParallelTime)
	}
	if st.Messages != 1 || st.Words != 2 || st.Flops != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOverlapClockModel(t *testing.T) {
	g := grid.New(2)
	cfg := Config{Tf: 1, Tc: 10, Alpha: 1, Overlap: true}
	run(t, g, cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, []Word{1, 2, 3}) // pays alpha only: clock = 1
			if p.Clock() != 1 {
				t.Errorf("overlapped sender clock = %v, want 1", p.Clock())
			}
			p.Compute(5) // keeps computing while message is in flight
		} else {
			p.Recv(0)
			// arrival = 1 (send clock) + 30 (transfer) = 31
			if p.Clock() != 31 {
				t.Errorf("receiver clock = %v, want 31", p.Clock())
			}
		}
	})
}

func TestSelfSendIsFree(t *testing.T) {
	g := grid.New(1)
	st := run(t, g, DefaultConfig(), func(p *Proc) {
		p.Send(0, []Word{7})
		got := p.Recv(0)
		if got[0] != 7 {
			t.Errorf("got %v", got)
		}
		if p.Clock() != 0 {
			t.Errorf("clock = %v", p.Clock())
		}
	})
	if st.Messages != 0 || st.Words != 0 {
		t.Errorf("self-send counted: %+v", st)
	}
}

func TestSendRecvValue(t *testing.T) {
	g := grid.New(2)
	run(t, g, DefaultConfig(), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendValue(1, 3.5)
		} else if v := p.RecvValue(0); v != 3.5 {
			t.Errorf("got %v", v)
		}
	})
}

func TestFIFOOrderPerPair(t *testing.T) {
	g := grid.New(2)
	run(t, g, DefaultConfig(), func(p *Proc) {
		const n = 50
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.SendValue(1, Word(i))
			}
		} else {
			for i := 0; i < n; i++ {
				if v := p.RecvValue(0); v != Word(i) {
					t.Errorf("out of order: got %v at %d", v, i)
					return
				}
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	g := grid.New(4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		p.Compute(p.Rank() * 10)
		p.Barrier()
		if p.Clock() != 30 {
			t.Errorf("proc %d clock after barrier = %v, want 30", p.Rank(), p.Clock())
		}
		// Reusable: second generation.
		p.Compute(5)
		p.Barrier()
		if p.Clock() != 35 {
			t.Errorf("proc %d clock after 2nd barrier = %v, want 35", p.Rank(), p.Clock())
		}
	})
}

func TestBarrierManyGenerations(t *testing.T) {
	g := grid.New(3)
	run(t, g, DefaultConfig(), func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Barrier()
		}
	})
}

func TestPanicIsReportedAsError(t *testing.T) {
	g := grid.New(2)
	_, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		p.Barrier() // would deadlock without abort handling
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestComputeNegativePanics(t *testing.T) {
	g := grid.New(1)
	_, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) { p.Compute(-1) })
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestSendRecvRankValidation(t *testing.T) {
	g := grid.New(2)
	if _, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) { p.Send(2, nil) }); err == nil {
		t.Fatal("Send to bad rank should error")
	}
	if _, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) { p.Recv(-1) }); err == nil {
		t.Fatal("Recv from bad rank should error")
	}
}

func TestPeersOver(t *testing.T) {
	g := grid.New(2, 3)
	run(t, g, DefaultConfig(), func(p *Proc) {
		rowPeers := p.PeersOver(1)
		if len(rowPeers) != 3 {
			t.Errorf("row peers = %v", rowPeers)
		}
		colPeers := p.PeersOver(0)
		if len(colPeers) != 2 {
			t.Errorf("col peers = %v", colPeers)
		}
		all := p.PeersOver(0, 1)
		if len(all) != 6 {
			t.Errorf("all peers = %v", all)
		}
	})
}

func TestTransfer(t *testing.T) {
	g := grid.New(3)
	run(t, g, DefaultConfig(), func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Transfer(0, 2, []Word{4, 5})
		case 2:
			got := p.Transfer(0, 2, nil)
			if len(got) != 2 || got[0] != 4 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestShiftRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for _, dist := range []int{0, 1, -1, 2, n, n + 1, -n - 2} {
			g := grid.New(n)
			run(t, g, DefaultConfig(), func(p *Proc) {
				got := p.Shift(0, dist, []Word{Word(p.Rank())})
				d := ((dist % n) + n) % n
				want := Word((p.Rank() - d + n*4) % n)
				if got[0] != want {
					t.Errorf("n=%d dist=%d proc %d: got %v want %v", n, dist, p.Rank(), got[0], want)
				}
			})
		}
	}
}

func TestShift2DGrid(t *testing.T) {
	g := grid.New(3, 4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		// Shift along dim 1: value moves +1 in the row ring.
		got := p.Shift(1, 1, []Word{Word(p.Coord(1))})
		want := Word((p.Coord(1) + 3) % 4)
		if got[0] != want {
			t.Errorf("proc %v: got %v want %v", p.Rank(), got[0], want)
		}
	})
}

func TestOneToManyMulticast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		g := grid.New(n)
		for root := 0; root < n; root += max(1, n/3) {
			root := root
			st := run(t, g, DefaultConfig(), func(p *Proc) {
				var data []Word
				if p.Rank() == root {
					data = []Word{42, 43}
				}
				got := p.OneToManyMulticast([]int{0}, root, data)
				if len(got) != 2 || got[0] != 42 || got[1] != 43 {
					t.Errorf("n=%d root=%d proc %d got %v", n, root, p.Rank(), got)
				}
			})
			if n > 1 && st.Messages != int64(n-1) {
				t.Errorf("n=%d: multicast used %d messages, want %d", n, st.Messages, n-1)
			}
		}
	}
}

func TestMulticastLogSteps(t *testing.T) {
	// Critical path of a binomial multicast over n procs is ceil(log2 n)
	// message hops: with Tc=1, Alpha=0 and 1-word messages the makespan
	// must equal ceil(log2 n).
	for _, n := range []int{2, 4, 8, 16, 32} {
		g := grid.New(n)
		st := run(t, g, DefaultConfig(), func(p *Proc) {
			var data []Word
			if p.Rank() == 0 {
				data = []Word{1}
			}
			p.OneToManyMulticast([]int{0}, 0, data)
		})
		want := math.Log2(float64(n))
		if st.ParallelTime != want {
			t.Errorf("n=%d: makespan %v, want %v", n, st.ParallelTime, want)
		}
	}
}

func TestReductionSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8, 9} {
		g := grid.New(n)
		run(t, g, DefaultConfig(), func(p *Proc) {
			data := []Word{Word(p.Rank()), 1}
			got := p.Reduction([]int{0}, 0, data, SumOp)
			if p.Rank() == 0 {
				wantSum := Word(n * (n - 1) / 2)
				if got == nil || got[0] != wantSum || got[1] != Word(n) {
					t.Errorf("n=%d root got %v, want [%v %v]", n, got, wantSum, n)
				}
			} else if got != nil {
				t.Errorf("n=%d non-root %d got %v", n, p.Rank(), got)
			}
		})
	}
}

func TestReductionNonzeroRoot(t *testing.T) {
	g := grid.New(5)
	run(t, g, DefaultConfig(), func(p *Proc) {
		got := p.Reduction([]int{0}, 3, []Word{1}, SumOp)
		if p.Rank() == 3 {
			if got == nil || got[0] != 5 {
				t.Errorf("root got %v", got)
			}
		} else if got != nil {
			t.Errorf("non-root got %v", got)
		}
	})
}

func TestReductionMax(t *testing.T) {
	g := grid.New(4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		got := p.Reduction([]int{0}, 0, []Word{Word(10 - p.Rank())}, MaxOp)
		if p.Rank() == 0 && got[0] != 10 {
			t.Errorf("got %v", got)
		}
	})
}

func TestAllReduce(t *testing.T) {
	for _, n := range []int{1, 3, 4, 8} {
		g := grid.New(n)
		run(t, g, DefaultConfig(), func(p *Proc) {
			got := p.AllReduce([]int{0}, []Word{Word(p.Rank() + 1)}, SumOp)
			want := Word(n * (n + 1) / 2)
			if got == nil || got[0] != want {
				t.Errorf("n=%d proc %d got %v want %v", n, p.Rank(), got, want)
			}
		})
	}
}

func TestReductionOverGridDimension(t *testing.T) {
	g := grid.New(2, 4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		// Reduce along dim 1: each row reduces to its column-0 processor.
		root := p.PeersOver(1)[0]
		got := p.Reduction([]int{1}, root, []Word{1}, SumOp)
		if p.Rank() == root {
			if got[0] != 4 {
				t.Errorf("row root %d got %v", p.Rank(), got)
			}
		} else if got != nil {
			t.Errorf("non-root got %v", got)
		}
	})
}

func TestScatterGather(t *testing.T) {
	g := grid.New(4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		var chunks [][]Word
		if p.Rank() == 1 {
			chunks = [][]Word{{0}, {10}, {20}, {30}}
		}
		mine := p.Scatter([]int{0}, 1, chunks)
		if mine[0] != Word(10*p.Rank()) {
			t.Errorf("proc %d scattered %v", p.Rank(), mine)
		}
		mine[0]++ // local update
		all := p.Gather([]int{0}, 2, mine)
		if p.Rank() == 2 {
			for i, c := range all {
				if c[0] != Word(10*i+1) {
					t.Errorf("gathered[%d] = %v", i, c)
				}
			}
		} else if all != nil {
			t.Errorf("non-root gather got %v", all)
		}
	})
}

func TestManyToManyMulticast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		g := grid.New(n)
		st := run(t, g, DefaultConfig(), func(p *Proc) {
			all := p.ManyToManyMulticast([]int{0}, []Word{Word(p.Rank() * 100)})
			if len(all) != n {
				t.Errorf("n=%d: got %d slots", n, len(all))
				return
			}
			for i, c := range all {
				if len(c) != 1 || c[0] != Word(i*100) {
					t.Errorf("n=%d proc %d slot %d = %v", n, p.Rank(), i, c)
				}
			}
		})
		// Ring all-gather: n*(n-1) messages total.
		if st.Messages != int64(n*(n-1)) {
			t.Errorf("n=%d messages = %d, want %d", n, st.Messages, n*(n-1))
		}
	}
}

func TestAffineTransform(t *testing.T) {
	g := grid.New(4)
	perm := []int{1, 2, 3, 0} // rotate by one
	run(t, g, DefaultConfig(), func(p *Proc) {
		got := p.AffineTransform([]int{0}, perm, []Word{Word(p.Rank())})
		want := Word((p.Rank() + 3) % 4)
		if got[0] != want {
			t.Errorf("proc %d got %v want %v", p.Rank(), got[0], want)
		}
	})
}

func TestAffineTransformIdentity(t *testing.T) {
	g := grid.New(3)
	st := run(t, g, DefaultConfig(), func(p *Proc) {
		got := p.AffineTransform([]int{0}, []int{0, 1, 2}, []Word{Word(p.Rank())})
		if got[0] != Word(p.Rank()) {
			t.Errorf("identity moved data")
		}
	})
	if st.Messages != 0 {
		t.Errorf("identity permutation sent %d messages", st.Messages)
	}
}

func TestAffineTransformValidation(t *testing.T) {
	g := grid.New(3)
	if _, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) {
		p.AffineTransform([]int{0}, []int{0, 0, 1}, nil)
	}); err == nil {
		t.Fatal("non-bijective perm should error")
	}
}

func TestCollectiveOn2DGridSubsets(t *testing.T) {
	// Multicast along rows of a 2x3 grid: roots are column 0 of each row.
	g := grid.New(2, 3)
	run(t, g, DefaultConfig(), func(p *Proc) {
		root := p.PeersOver(1)[0]
		var data []Word
		if p.Rank() == root {
			data = []Word{Word(p.Coord(0))}
		}
		got := p.OneToManyMulticast([]int{1}, root, data)
		if got[0] != Word(p.Coord(0)) {
			t.Errorf("proc %d got %v", p.Rank(), got)
		}
	})
}

func TestStatsPerProc(t *testing.T) {
	g := grid.New(2)
	st := run(t, g, DefaultConfig(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(7)
			p.Send(1, []Word{1, 2, 3})
		} else {
			p.Recv(0)
		}
	})
	if st.PerProc[0].Flops != 7 || st.PerProc[0].Messages != 1 || st.PerProc[0].Words != 3 {
		t.Errorf("proc0 stats %+v", st.PerProc[0])
	}
	if st.PerProc[1].Flops != 0 || st.PerProc[1].Messages != 0 {
		t.Errorf("proc1 stats %+v", st.PerProc[1])
	}
	if st.MaxFlops() != 7 {
		t.Errorf("MaxFlops = %d", st.MaxFlops())
	}
}

// Property: AllReduce(sum) equals the sequential sum for random vectors,
// on random ring sizes.
func TestAllReduceQuick(t *testing.T) {
	f := func(vals []float64, nn uint8) bool {
		n := int(nn)%6 + 1
		if len(vals) == 0 {
			vals = []float64{1}
		}
		if len(vals) > 8 {
			vals = vals[:8]
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 1
			}
		}
		m := len(vals)
		g := grid.New(n)
		want := make([]Word, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				want[j] += vals[j] * Word(i+1)
			}
		}
		ok := true
		st, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) {
			mine := make([]Word, m)
			for j := range mine {
				mine[j] = vals[j] * Word(p.Rank()+1)
			}
			got := p.AllReduce([]int{0}, mine, SumOp)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
					ok = false
				}
			}
		})
		_ = st
		return err == nil && ok
	}
	// A fixed seed list: quick's own source is clock-seeded, and a failure
	// could not be run again. Its error lists the failing input.
	for _, seed := range []int64{1, 2, 3} {
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSyncCollectiveClockSemantics: in the default (paper) model every
// participant's clock advances to max(entry) + Table-1 cost.
func TestSyncCollectiveClockSemantics(t *testing.T) {
	g := grid.New(4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		p.Compute(p.Rank() * 10) // staggered entries: max = 30
		var d []Word
		if p.Rank() == 1 {
			d = make([]Word, 8)
		}
		p.OneToManyMulticast([]int{0}, 1, d)
		// cost = 8 words * log2(4) = 16; everyone lands at 30 + 16.
		if p.Clock() != 46 {
			t.Errorf("proc %d clock = %v, want 46", p.Rank(), p.Clock())
		}
	})
}

func TestSyncReductionClock(t *testing.T) {
	g := grid.New(8)
	run(t, g, DefaultConfig(), func(p *Proc) {
		p.Reduction([]int{0}, 0, make([]Word, 4), SumOp)
		// 4 words * log2(8) = 12.
		if p.Clock() != 12 {
			t.Errorf("proc %d clock = %v, want 12", p.Rank(), p.Clock())
		}
	})
}

func TestSyncManyToManyClock(t *testing.T) {
	g := grid.New(4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		p.ManyToManyMulticast([]int{0}, make([]Word, 3))
		// 3 words * 4 peers = 12.
		if p.Clock() != 12 {
			t.Errorf("proc %d clock = %v, want 12", p.Rank(), p.Clock())
		}
	})
}

func TestSyncScatterGatherClock(t *testing.T) {
	g := grid.New(4)
	run(t, g, DefaultConfig(), func(p *Proc) {
		var chunks [][]Word
		if p.Rank() == 0 {
			chunks = [][]Word{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
		}
		p.Scatter([]int{0}, 0, chunks)
		// 2 words * 4 peers = 8.
		if p.Clock() != 8 {
			t.Errorf("proc %d clock after scatter = %v, want 8", p.Rank(), p.Clock())
		}
		p.Gather([]int{0}, 2, []Word{1, 2, 3})
		// + 3 words * 4 = 12 -> 20.
		if p.Clock() != 20 {
			t.Errorf("proc %d clock after gather = %v, want 20", p.Rank(), p.Clock())
		}
	})
}

// TestAffineTransformSyncFixedPoint: a non-identity permutation with a
// fixed point must not deadlock (every peer still
// participates in the clock synchronization).
func TestAffineTransformSyncFixedPoint(t *testing.T) {
	g := grid.New(3)
	run(t, g, DefaultConfig(), func(p *Proc) {
		perm := []int{0, 2, 1} // 0 fixed, 1<->2
		got := p.AffineTransform([]int{0}, perm, []Word{Word(p.Rank())})
		want := map[int]Word{0: 0, 1: 2, 2: 1}[p.Rank()]
		if got[0] != want {
			t.Errorf("proc %d got %v want %v", p.Rank(), got[0], want)
		}
	})
}

// TestCollectivesOn3DGrid: the Section 2 q-D grids work beyond 2-D —
// collectives over one or two dimensions of a 2x2x2 grid.
func TestCollectivesOn3DGrid(t *testing.T) {
	g := grid.New(2, 2, 2)
	run(t, g, DefaultConfig(), func(p *Proc) {
		// Reduce over dim 2 (pairs).
		root := p.PeersOver(2)[0]
		got := p.Reduction([]int{2}, root, []Word{1}, SumOp)
		if p.Rank() == root && got[0] != 2 {
			t.Errorf("dim-2 reduction = %v", got)
		}
		// All-gather over dims {0,1}: 4 peers.
		all := p.ManyToManyMulticast([]int{0, 1}, []Word{Word(p.Rank())})
		if len(all) != 4 {
			t.Errorf("peers over {0,1} = %d", len(all))
		}
		// Shift along dim 1.
		v := p.Shift(1, 1, []Word{Word(p.Coord(1))})
		if v[0] != Word((p.Coord(1)+1)%2) {
			t.Errorf("3-D shift wrong: %v", v[0])
		}
	})
}
