// Run statistics. The machine tallies per-pair traffic in tallyRows and
// folds per-processor snapshots into Stats through AddProc.
package machine

import "sort"

// PairStat is one ordered processor pair's outbound traffic, keyed by
// the destination rank.
type PairStat struct {
	Peer     int
	Messages int64
	Words    int64
}

// tallyRow is one processor's outbound per-destination counters, kept
// sparsely — a processor that talks to k peers holds k entries, not one
// per rank; at N=4096 dense per-peer slices cost O(N^2) = 16.7M int64s
// per run even for nearest-neighbour kernels. The entries are
// slab[at:at+n], sorted by destination, with room for cap: a machine run
// keeps every processor's row in one slab it shares (runTables.tallies),
// and a full row doubles its room, in place at the slab's end or moved
// there.
type tallyRow struct{ at, n, cap int32 }

// note records one counted message of the given size to dst.
func (t *tallyRow) note(slab *[]PairStat, dst, words int) {
	row := t.list(*slab)
	i := sort.Search(len(row), func(k int) bool { return row[k].Peer >= dst })
	if i == len(row) || row[i].Peer != dst {
		if end := int(t.at + t.cap); t.n == t.cap && end == len(*slab) && t.n > 0 {
			*slab = append(*slab, make([]PairStat, t.cap)...) // the last row grows in place
			t.cap *= 2
		} else if t.n == t.cap {
			at, c := len(*slab), max(2, 2*t.cap)
			*slab = append(*slab, make([]PairStat, c)...)
			copy((*slab)[at:], row)
			t.at, t.cap = int32(at), c
		}
		row = (*slab)[t.at : t.at+t.n+1]
		copy(row[i+1:], row[i:])
		row[i] = PairStat{Peer: dst}
		t.n++
	}
	row[i].Messages++
	row[i].Words += int64(words)
}

// list is the row's entries in slab, sorted by destination rank. The
// deterministic order makes ProcStats values directly comparable with
// reflect.DeepEqual across engines.
func (t *tallyRow) list(slab []PairStat) []PairStat { return slab[t.at : t.at+t.n] }

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
