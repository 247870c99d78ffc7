// Run statistics. The machine tallies per-pair traffic through PairTally
// and folds per-processor snapshots into Stats through AddProc.
package machine

import "sort"

// PairStat is one ordered processor pair's outbound traffic, keyed by
// the destination rank.
type PairStat struct {
	Peer     int
	Messages int64
	Words    int64
}

// PairTally accumulates outbound per-destination counters sparsely: a
// processor that talks to k peers holds k entries, not one per rank.
// At N=4096 the dense per-peer slices this replaces cost
// O(N^2) = 16.7M int64s per run even for nearest-neighbour kernels.
// The entries are one slice kept sorted by destination, its storage
// doubling as peers are added; a machine run carves every processor's
// storage from one chunk it shares (slab), so a run allocates per chunk,
// not per peer. The zero value is ready to use and allocates its own.
type PairTally struct {
	pairs []PairStat
	slab  *[]PairStat
}

// Note records one counted message of the given size to dst.
func (t *PairTally) Note(dst, words int) {
	i := sort.Search(len(t.pairs), func(k int) bool { return t.pairs[k].Peer >= dst })
	if i == len(t.pairs) || t.pairs[i].Peer != dst {
		n := len(t.pairs)
		if n == cap(t.pairs) {
			grown := t.alloc(max(2, 2*n))
			copy(grown, t.pairs)
			t.pairs = grown[:n]
		}
		t.pairs = t.pairs[:n+1]
		copy(t.pairs[i+1:], t.pairs[i:n])
		t.pairs[i] = PairStat{Peer: dst}
	}
	t.pairs[i].Messages++
	t.pairs[i].Words += int64(words)
}

// alloc returns storage for n entries, carved from the slab if there is
// one.
func (t *PairTally) alloc(n int) []PairStat {
	if t.slab == nil {
		return make([]PairStat, n)
	}
	if len(*t.slab) < n {
		*t.slab = make([]PairStat, max(n, 1024))
	}
	s := (*t.slab)[:n:n]
	*t.slab = (*t.slab)[n:]
	return s
}

// Snapshot returns the live pairs sorted by destination rank, or nil if
// nothing was counted. The slice is the tally's own storage, capped, so a
// snapshot is taken when counting is over. The deterministic order makes
// ProcStats values directly comparable with reflect.DeepEqual across
// engines.
func (t *PairTally) Snapshot() []PairStat {
	if len(t.pairs) == 0 {
		return nil
	}
	return t.pairs[:len(t.pairs):len(t.pairs)]
}

// Stats aggregates the outcome of a Run.
type Stats struct {
	// ParallelTime is the simulated makespan: the maximum clock over all
	// processors when the SPMD body finishes.
	ParallelTime float64
	// Flops is the total flop count over all processors.
	Flops int64
	// Messages is the total number of point-to-point messages
	// (self-sends excluded).
	Messages int64
	// Words is the total number of words carried by those messages.
	Words int64
	// MaxMsgWords is the size of the largest single message any processor
	// sent — 1 for a per-element engine, the largest vectored exchange
	// for a batching one.
	MaxMsgWords int64
	// MaxPairMessages / MaxPairWords are the heaviest ordered processor
	// pair's message and word counts — the hot-link load. Like
	// MaxMsgWords they count finalize traffic and operand ships
	// uniformly, so they compare across engines.
	MaxPairMessages int64
	MaxPairWords    int64
	// PerProc holds the final per-processor snapshots indexed by rank.
	PerProc []ProcStats
}

// ProcStats is one processor's final counters.
type ProcStats struct {
	Clock       float64
	Flops       int64
	Messages    int64
	Words       int64
	MaxMsgWords int64
	// Peers breaks the outbound counters down by destination rank,
	// sorted by rank (nil when this processor sent nothing).
	Peers []PairStat
}

// AddProc folds one processor's snapshot into the aggregate totals
// (everything except PerProc, which the caller owns).
func (s *Stats) AddProc(ps ProcStats) {
	if ps.Clock > s.ParallelTime {
		s.ParallelTime = ps.Clock
	}
	s.Flops += ps.Flops
	s.Messages += ps.Messages
	s.Words += ps.Words
	if ps.MaxMsgWords > s.MaxMsgWords {
		s.MaxMsgWords = ps.MaxMsgWords
	}
	for _, pr := range ps.Peers {
		if pr.Messages > s.MaxPairMessages {
			s.MaxPairMessages = pr.Messages
		}
		if pr.Words > s.MaxPairWords {
			s.MaxPairWords = pr.Words
		}
	}
}

// MaxFlops returns the largest per-processor flop count — the computation
// load of the most loaded processor, used in load-balance experiments.
func (s Stats) MaxFlops() int64 {
	var mx int64
	for _, ps := range s.PerProc {
		if ps.Flops > mx {
			mx = ps.Flops
		}
	}
	return mx
}
