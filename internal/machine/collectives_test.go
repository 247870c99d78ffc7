// Collective coverage on the shapes the binomial-tree code paths find
// hardest: non-power-of-two peer groups carved out of 2-D grids (where
// the tree is ragged and peer ranks are non-contiguous) and degenerate
// 1xN / Nx1 grids (where one dimension's peer group is a singleton).

package machine

import (
	"math"
	"testing"

	"dmcc/internal/grid"
)

// TestCollectivesNonPow2PeerGroups: every collective returns correct
// values on ragged binomial trees over both dimensions of 3x5, 5x3 and
// 7x2 grids, for every root.
func TestCollectivesNonPow2PeerGroups(t *testing.T) {
	shapes := [][2]int{{3, 5}, {5, 3}, {7, 2}}
	for _, shape := range shapes {
		g := grid.New(shape[0], shape[1])
		for dim := 0; dim < 2; dim++ {
			run(t, g, DefaultConfig(), func(p *Proc) {
				peers := p.PeersOver(dim)
				if len(peers) != shape[dim] {
					t.Errorf("%v dim %d: peer group size %d, want %d", shape, dim, len(peers), shape[dim])
				}
				pos := indexOf(peers, p.Rank())

				// Multicast from every peer position in turn.
				for rootPos, root := range peers {
					var data []Word
					if p.Rank() == root {
						data = []Word{Word(100 + rootPos), 7}
					}
					got := p.OneToManyMulticast([]int{dim}, root, data)
					if len(got) != 2 || got[0] != Word(100+rootPos) || got[1] != 7 {
						t.Errorf("%v dim %d root %d: proc %d multicast got %v", shape, dim, root, p.Rank(), got)
					}
				}

				// Reduction to a non-zero, non-last peer position.
				root := peers[len(peers)/2]
				sum := p.Reduction([]int{dim}, root, []Word{Word(pos), 1}, SumOp)
				n := len(peers)
				if p.Rank() == root {
					if sum == nil || sum[0] != Word(n*(n-1)/2) || sum[1] != Word(n) {
						t.Errorf("%v dim %d: reduction at %d got %v", shape, dim, root, sum)
					}
				} else if sum != nil {
					t.Errorf("%v dim %d: non-root %d got reduction value %v", shape, dim, p.Rank(), sum)
				}

				// AllReduce max: everyone learns the group maximum.
				mx := p.AllReduce([]int{dim}, []Word{Word(pos * pos)}, MaxOp)
				if len(mx) != 1 || mx[0] != Word((n-1)*(n-1)) {
					t.Errorf("%v dim %d: proc %d allreduce got %v", shape, dim, p.Rank(), mx)
				}

				// Scatter/Gather round trip through the middle peer.
				var chunks [][]Word
				if p.Rank() == root {
					chunks = make([][]Word, n)
					for i := range chunks {
						chunks[i] = []Word{Word(10 * i), Word(10*i + 1)}
					}
				}
				own := p.Scatter([]int{dim}, root, chunks)
				if len(own) != 2 || own[0] != Word(10*pos) || own[1] != Word(10*pos+1) {
					t.Errorf("%v dim %d: proc %d scatter got %v", shape, dim, p.Rank(), own)
				}
				back := p.Gather([]int{dim}, root, own)
				if p.Rank() == root {
					for i, c := range back {
						if len(c) != 2 || c[0] != Word(10*i) || c[1] != Word(10*i+1) {
							t.Errorf("%v dim %d: gather chunk %d = %v", shape, dim, i, c)
						}
					}
				} else if back != nil {
					t.Errorf("%v dim %d: non-root %d got gather result", shape, dim, p.Rank())
				}

				// Many-to-many: position-indexed all-gather.
				all := p.ManyToManyMulticast([]int{dim}, []Word{Word(pos)})
				if len(all) != n {
					t.Fatalf("%v dim %d: many-to-many returned %d chunks", shape, dim, len(all))
				}
				for i, c := range all {
					if len(c) != 1 || c[0] != Word(i) {
						t.Errorf("%v dim %d: many-to-many chunk %d = %v", shape, dim, i, c)
					}
				}

				// Affine rotate-by-one across the ragged group.
				perm := make([]int, n)
				for i := range perm {
					perm[i] = (i + 1) % n
				}
				rot := p.AffineTransform([]int{dim}, perm, []Word{Word(pos)})
				if len(rot) != 1 || rot[0] != Word((pos-1+n)%n) {
					t.Errorf("%v dim %d: proc %d affine got %v", shape, dim, p.Rank(), rot)
				}
			})
		}
	}
}

// TestCollectivesDegenerate1xN: on 1xN and Nx1 grids, collectives over
// the singleton dimension are free local identities, while collectives
// over the long dimension behave exactly like a 1-D grid of N.
func TestCollectivesDegenerate1xN(t *testing.T) {
	for _, shape := range [][2]int{{1, 6}, {6, 1}, {1, 5}, {5, 1}} {
		g := grid.New(shape[0], shape[1])
		longDim, unitDim := 0, 1
		if shape[0] == 1 {
			longDim, unitDim = 1, 0
		}
		n := shape[longDim]

		// Singleton dimension: every collective is the identity at zero
		// cost and zero traffic.
		st := run(t, g, DefaultConfig(), func(p *Proc) {
			peers := p.PeersOver(unitDim)
			if len(peers) != 1 || peers[0] != p.Rank() {
				t.Errorf("%v: singleton peer group is %v for proc %d", shape, peers, p.Rank())
			}
			data := []Word{Word(p.Rank()), -3}
			if got := p.OneToManyMulticast([]int{unitDim}, p.Rank(), data); got[0] != data[0] || got[1] != data[1] {
				t.Errorf("%v: singleton multicast changed data: %v", shape, got)
			}
			if got := p.Reduction([]int{unitDim}, p.Rank(), data, SumOp); got[0] != data[0] {
				t.Errorf("%v: singleton reduction changed data: %v", shape, got)
			}
			if got := p.ManyToManyMulticast([]int{unitDim}, data); len(got) != 1 || got[0][0] != data[0] {
				t.Errorf("%v: singleton many-to-many wrong: %v", shape, got)
			}
			own := p.Scatter([]int{unitDim}, p.Rank(), [][]Word{data})
			if own[0] != data[0] {
				t.Errorf("%v: singleton scatter wrong: %v", shape, own)
			}
		})
		if st.Messages != 0 || st.Words != 0 || st.ParallelTime != 0 {
			t.Errorf("%v: singleton-dimension collectives were not free: %+v", shape, st)
		}

		// Long dimension: identical message count and makespan to the
		// 1-D machine of the same size running the same multicast.
		body1D := func(p *Proc, dims []int) {
			var data []Word
			if p.Rank() == 0 {
				data = []Word{5}
			}
			p.OneToManyMulticast(dims, 0, data)
		}
		st2 := run(t, g, DefaultConfig(), func(p *Proc) { body1D(p, []int{longDim}) })
		stRef := run(t, grid.New(n), DefaultConfig(), func(p *Proc) { body1D(p, []int{0}) })
		if st2.Messages != stRef.Messages || st2.ParallelTime != stRef.ParallelTime {
			t.Errorf("%v long-dim multicast (%d msgs, T=%v) differs from 1-D grid (%d msgs, T=%v)",
				shape, st2.Messages, st2.ParallelTime, stRef.Messages, stRef.ParallelTime)
		}
	}
}

// TestSyncMulticastRaggedCost: the Table 1 clock cost on a
// non-power-of-two group uses ceil(log2 n) — n=5 peers advance by
// 3*m*Tc, not by a fractional log.
func TestSyncMulticastRaggedCost(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7} {
		g := grid.New(n)
		st := run(t, g, DefaultConfig(), func(p *Proc) {
			var data []Word
			if p.Rank() == 0 {
				data = []Word{1, 2}
			}
			p.OneToManyMulticast([]int{0}, 0, data)
		})
		want := 2 * float64(log2ceil(n))
		if st.ParallelTime != want {
			t.Errorf("n=%d: makespan %v, want %v", n, st.ParallelTime, want)
		}
		if st.Messages != int64(n-1) {
			t.Errorf("n=%d: %d messages, want %d", n, st.Messages, n-1)
		}
	}
	if got, want := log2ceil(5), int(math.Ceil(math.Log2(5))); got != want {
		t.Fatalf("log2ceil(5) = %d, want %d", got, want)
	}
}

// TestCollectivesOverBothDims: a collective over both dimensions of a
// ragged 2-D grid spans the whole machine; peer order is rank order.
func TestCollectivesOverBothDims(t *testing.T) {
	g := grid.New(3, 5)
	n := g.Size()
	run(t, g, DefaultConfig(), func(p *Proc) {
		peers := p.PeersOver(0, 1)
		if len(peers) != n {
			t.Fatalf("both-dims peer group has %d members, want %d", len(peers), n)
		}
		sum := p.AllReduce([]int{0, 1}, []Word{1}, SumOp)
		if sum[0] != Word(n) {
			t.Errorf("proc %d: whole-machine allreduce got %v, want %d", p.Rank(), sum[0], n)
		}
	})
}
