// The eight communication primitives of Section 2.2, with the asymptotic
// costs of Table 1:
//
//	Transfer(m)                  O(m)            direct send
//	Shift(m)                     O(m)            ring neighbour exchange
//	OneToManyMulticast(m, seq)   O(m log num)    binomial tree
//	Reduction(m, seq)            O(m log num)    binomial tree, folded
//	AffineTransform(m, seq)      O(m log num)    permutation routing
//	Scatter(m, seq)              O(m num)        root sends distinct chunks
//	Gather(m, seq)               O(m num)        root receives all chunks
//	ManyToManyMulticast(m, seq)  O(m num)        ring all-gather
//
// Every collective operates over the set of processors that agree with
// the caller on all grid coordinates *outside* the listed dimensions
// ("the processors lying on the specified grid dimension(s)"); all of
// them must call it with consistent arguments, in the same order, as in
// any SPMD collective library.
//
// Two execution models (Config.SyncCollectives):
//
//   - synchronous (default, the paper's model): all participants are
//     engaged for the full Table 1 duration — every peer's clock advances
//     to max(entry clocks) + cost. Transfer and Shift remain asynchronous
//     point-to-point operations, which is exactly why Sections 5-6 can
//     beat multicasts by pipelining with Shifts.
//
//   - asynchronous: collectives are plain binomial-tree message
//     exchanges over the same Send/Recv used by user code; a leaf can
//     exit before the rest finish. The ablation benchmarks use this to
//     show how much of the pipelining advantage is due to collective
//     synchronization.
package machine

import (
	"fmt"
	"sort"
)

// PeersOver returns, in ascending rank order, the ranks of all processors
// that agree with p on every grid coordinate not in dims. The caller's own
// rank is included. It panics on an empty or out-of-range dims list.
func (p *Proc) PeersOver(dims ...int) []int {
	g := p.m.grid
	if len(dims) == 0 {
		panic("machine: collective over empty dimension list")
	}
	in := make(map[int]bool, len(dims))
	for _, d := range dims {
		if d < 0 || d >= g.Q() {
			panic(fmt.Sprintf("machine: dimension %d out of range for %s", d, g))
		}
		in[d] = true
	}
	var peers []int
	for r := 0; r < g.Size(); r++ {
		ok := true
		for d := 0; d < g.Q(); d++ {
			if !in[d] && g.Coord(r, d) != p.Coord(d) {
				ok = false
				break
			}
		}
		if ok {
			peers = append(peers, r)
		}
	}
	sort.Ints(peers)
	return peers
}

func indexOf(peers []int, rank int) int {
	for i, r := range peers {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("machine: rank %d not among collective peers %v", rank, peers))
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for p := 1; p < n; p <<= 1 {
		k++
	}
	return k
}

// syncStart synchronizes the peer group on entry: every peer's clock is
// raised to the maximum entry clock, which is returned. Implemented as a
// zero-cost max-reduce plus broadcast over the links (uncounted: a real
// collective synchronizes through its own payload messages). The
// exchange shares the pairs' FIFO queues with ordinary traffic, so every
// message sent to a peer before the call must have been received.
func (p *Proc) syncStart(peers []int) float64 {
	n := len(peers)
	if n == 1 {
		return p.clock
	}
	rel := indexOf(peers, p.rank)
	clk := p.clock
	top := 1
	for top < n {
		top <<= 1
	}
	for k := top >> 1; k >= 1; k >>= 1 {
		if rel < k {
			if rel+k < n {
				v := p.rawRecv(peers[rel+k])
				if v[0] > clk {
					clk = v[0]
				}
			}
		} else if rel < 2*k {
			p.rawSend(peers[rel-k], []Word{clk}, false)
			break
		}
	}
	// Broadcast the max back down the tree.
	for k := 1; k < n; k <<= 1 {
		if rel < k {
			if rel+k < n {
				p.rawSend(peers[rel+k], []Word{clk}, false)
			}
		} else if rel < 2*k {
			clk = p.rawRecv(peers[rel-k])[0]
		}
	}
	if tr := p.m.cfg.Tracer; tr != nil && clk > p.clock {
		tr.Record(Event{Proc: p.rank, Kind: EvWait, Start: p.clock, End: clk, Peer: -1})
	}
	p.clock = clk
	return clk
}

// Barrier synchronizes all processors of the machine and equalizes their
// simulated clocks to the maximum (everyone waits for the slowest).
func (p *Proc) Barrier() {
	all := make([]int, p.NumProcs())
	for r := range all {
		all[r] = r
	}
	p.syncStart(all)
}

// finishCollective advances the whole peer group's clock by the Table 1
// cost of the primitive.
func (p *Proc) finishCollective(start, cost float64) {
	p.clock = start + cost
	if tr := p.m.cfg.Tracer; tr != nil && cost > 0 {
		tr.Record(Event{Proc: p.rank, Kind: EvCollective, Start: start, End: p.clock, Peer: -1})
	}
}

// Transfer sends data from the processor with rank src to the processor
// with rank dst. Only those two processors may call it; src returns nil,
// dst returns the received data. A processor that is both src and dst
// gets the data back untouched at zero cost.
func (p *Proc) Transfer(src, dst int, data []Word) []Word {
	if src == dst {
		if p.rank == src {
			return append([]Word(nil), data...)
		}
		panic("machine: Transfer with src == dst called by a third processor")
	}
	switch p.rank {
	case src:
		p.Send(dst, data)
		return nil
	case dst:
		return p.Recv(src)
	default:
		panic(fmt.Sprintf("machine: Transfer(%d->%d) called by uninvolved processor %d", src, dst, p.rank))
	}
}

// Shift performs a circular shift by dist positions along grid dimension
// dim: every processor sends data to the processor dist steps in the +
// direction (negative dist shifts the other way) and returns what it
// receives. dist is taken modulo the extent; a zero net shift returns a
// copy of data untouched. Shift is always an asynchronous neighbour
// exchange — it is the primitive pipelined code is made of.
func (p *Proc) Shift(dim, dist int, data []Word) []Word {
	g := p.m.grid
	n := g.Extent(dim)
	d := ((dist % n) + n) % n
	if d == 0 {
		return append([]Word(nil), data...)
	}
	c := p.Coord(dim)
	peers := p.PeersOver(dim)
	dst := peers[(c+d)%n]
	src := peers[(c-d+n)%n]
	// Sends never block, so send-then-receive is deadlock-free on a ring.
	p.Send(dst, data)
	return p.Recv(src)
}

// OneToManyMulticast broadcasts data from root (a rank in the caller's
// peer set over dims) to all processors on the specified grid
// dimension(s): a binomial tree, O(m log num). Every peer returns the
// data.
func (p *Proc) OneToManyMulticast(dims []int, root int, data []Word) []Word {
	peers := p.PeersOver(dims...)
	n := len(peers)
	if n == 1 {
		return append([]Word(nil), data...)
	}
	sync := p.m.cfg.SyncCollectives
	var start float64
	if sync {
		start = p.syncStart(peers)
	}
	rootPos := indexOf(peers, root)
	rel := (indexOf(peers, p.rank) - rootPos + n) % n
	var buf []Word
	if p.rank == root {
		buf = append([]Word(nil), data...)
	}
	for k := 1; k < n; k <<= 1 {
		if rel < k {
			if rel+k < n {
				dst := peers[(rel+k+rootPos)%n]
				if sync {
					p.rawSend(dst, buf, true)
				} else {
					p.Send(dst, buf)
				}
			}
		} else if rel < 2*k {
			src := peers[(rel-k+rootPos)%n]
			if sync {
				buf = p.rawRecv(src)
			} else {
				buf = p.Recv(src)
			}
		}
	}
	if sync {
		p.finishCollective(start, p.m.cfg.Tc*float64(len(buf))*float64(log2ceil(n)))
	}
	return buf
}

// ReduceOp combines an incoming message into an accumulator, element-wise;
// it must be associative and commutative as the paper requires.
type ReduceOp func(acc, in []Word)

// SumOp adds in to acc element-wise.
func SumOp(acc, in []Word) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// MaxOp keeps the element-wise maximum.
func MaxOp(acc, in []Word) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// Reduction reduces the per-processor data vectors over all processors on
// the specified grid dimension(s) with a binomial-tree fold; the root
// returns the combined vector, everyone else returns nil. O(m log num).
// In the asynchronous model each combine also costs m flops on the
// combining processor.
func (p *Proc) Reduction(dims []int, root int, data []Word, op ReduceOp) []Word {
	peers := p.PeersOver(dims...)
	n := len(peers)
	acc := append([]Word(nil), data...)
	if n == 1 {
		return acc
	}
	sync := p.m.cfg.SyncCollectives
	var start float64
	if sync {
		start = p.syncStart(peers)
	}
	rootPos := indexOf(peers, root)
	rel := (indexOf(peers, p.rank) - rootPos + n) % n
	top := 1
	for top < n {
		top <<= 1
	}
	sent := false
	for k := top >> 1; k >= 1 && !sent; k >>= 1 {
		if rel < k {
			if rel+k < n {
				src := peers[(rel+k+rootPos)%n]
				var in []Word
				if sync {
					in = p.rawRecv(src)
				} else {
					in = p.Recv(src)
				}
				op(acc, in)
				if !sync {
					p.Compute(len(acc))
				}
			}
		} else if rel < 2*k {
			dst := peers[(rel-k+rootPos)%n]
			if sync {
				p.rawSend(dst, acc, true)
			} else {
				p.Send(dst, acc)
			}
			sent = true
		}
	}
	if sync {
		p.finishCollective(start, p.m.cfg.Tc*float64(len(acc))*float64(log2ceil(n)))
	}
	if rel == 0 {
		return acc
	}
	return nil
}

// AllReduce performs a Reduction to the lowest-ranked peer followed by a
// OneToManyMulticast of the result, so every peer returns the combined
// vector. Cost: O(2 m log num).
func (p *Proc) AllReduce(dims []int, data []Word, op ReduceOp) []Word {
	peers := p.PeersOver(dims...)
	root := peers[0]
	acc := p.Reduction(dims, root, data, op)
	if p.rank != root {
		acc = nil
	}
	return p.OneToManyMulticast(dims, root, acc)
}

// Scatter sends chunk i of chunks (indexed by peer position over dims)
// from root to peer i; every peer returns its own chunk. Only root's
// chunks argument is consulted. O(m num) with m the chunk size.
func (p *Proc) Scatter(dims []int, root int, chunks [][]Word) []Word {
	peers := p.PeersOver(dims...)
	n := len(peers)
	sync := p.m.cfg.SyncCollectives && n > 1
	var start float64
	if sync {
		start = p.syncStart(peers)
	}
	var own []Word
	maxLen := 0
	if p.rank == root {
		if len(chunks) != n {
			panic(fmt.Sprintf("machine: Scatter got %d chunks for %d peers", len(chunks), n))
		}
		for _, c := range chunks {
			if len(c) > maxLen {
				maxLen = len(c)
			}
		}
		for i, r := range peers {
			if r == root {
				own = append([]Word(nil), chunks[i]...)
				continue
			}
			// Prefix the chunk with its true size so the cost formula is
			// known at every peer in sync mode.
			payload := append([]Word{Word(maxLen)}, chunks[i]...)
			if sync {
				p.rawSend(r, payload, true)
			} else {
				p.Send(r, payload)
			}
		}
	} else {
		var payload []Word
		if sync {
			payload = p.rawRecv(root)
		} else {
			payload = p.Recv(root)
		}
		maxLen = int(payload[0])
		own = payload[1:]
	}
	if sync {
		p.finishCollective(start, p.m.cfg.Tc*float64(maxLen)*float64(n))
	}
	return own
}

// Gather collects every peer's data at root; root returns the chunks in
// peer order, everyone else returns nil. O(m num).
func (p *Proc) Gather(dims []int, root int, data []Word) [][]Word {
	peers := p.PeersOver(dims...)
	n := len(peers)
	sync := p.m.cfg.SyncCollectives && n > 1
	var start float64
	if sync {
		start = p.syncStart(peers)
	}
	var out [][]Word
	maxLen := len(data)
	if p.rank == root {
		out = make([][]Word, n)
		for i, r := range peers {
			if r == root {
				out[i] = append([]Word(nil), data...)
				continue
			}
			if sync {
				out[i] = p.rawRecv(r)
			} else {
				out[i] = p.Recv(r)
			}
			if len(out[i]) > maxLen {
				maxLen = len(out[i])
			}
		}
	} else {
		if sync {
			p.rawSend(root, data, true)
		} else {
			p.Send(root, data)
		}
	}
	if sync {
		// All peers advance by the same formula; non-roots use their own
		// chunk size, which matches when chunks are equal-sized (the
		// common case for the paper's kernels).
		p.finishCollective(start, p.m.cfg.Tc*float64(maxLen)*float64(n))
	}
	return out
}

// ManyToManyMulticast replicates every peer's data to all peers over the
// given dimension(s) (an all-gather) with num-1 ring steps: O(m num).
// The result is indexed by peer position.
func (p *Proc) ManyToManyMulticast(dims []int, data []Word) [][]Word {
	peers := p.PeersOver(dims...)
	n := len(peers)
	pos := indexOf(peers, p.rank)
	out := make([][]Word, n)
	out[pos] = append([]Word(nil), data...)
	if n == 1 {
		return out
	}
	sync := p.m.cfg.SyncCollectives
	var start float64
	if sync {
		start = p.syncStart(peers)
	}
	cur := out[pos]
	maxLen := len(cur)
	for step := 1; step < n; step++ {
		next := peers[(pos+1)%n]
		prev := peers[(pos-1+n)%n]
		if sync {
			p.rawSend(next, cur, true)
			cur = p.rawRecv(prev)
		} else {
			p.Send(next, cur)
			cur = p.Recv(prev)
		}
		out[(pos-step+n)%n] = cur
		if len(cur) > maxLen {
			maxLen = len(cur)
		}
	}
	if sync {
		p.finishCollective(start, p.m.cfg.Tc*float64(maxLen)*float64(n))
	}
	return out
}

// AffineTransform sends each peer's data to a distinct peer according to
// the permutation perm over peer positions (perm[i] = destination position
// of the data held at position i); every peer returns what it receives.
// perm must be a bijection. Cost on the hypercube is O(m log num) because
// a permutation routes in at most log num dimension-ordered hops; the
// simulation sends directly, preserving the message/word counts.
func (p *Proc) AffineTransform(dims []int, perm []int, data []Word) []Word {
	peers := p.PeersOver(dims...)
	n := len(peers)
	if len(perm) != n {
		panic(fmt.Sprintf("machine: AffineTransform perm has %d entries for %d peers", len(perm), n))
	}
	seen := make([]bool, n)
	identity := true
	for i, d := range perm {
		if d < 0 || d >= n || seen[d] {
			panic("machine: AffineTransform perm is not a bijection")
		}
		seen[d] = true
		if d != i {
			identity = false
		}
	}
	// The identity check is the same at every peer, so returning early
	// here cannot desynchronize the group (a per-peer fixed point could).
	if identity {
		return append([]Word(nil), data...)
	}
	pos := indexOf(peers, p.rank)
	dst := perm[pos]
	sync := p.m.cfg.SyncCollectives
	var start float64
	if sync {
		start = p.syncStart(peers)
	}
	src := -1
	for i, d := range perm {
		if d == pos {
			src = i
			break
		}
	}
	var got []Word
	switch {
	case dst == pos:
		got = append([]Word(nil), data...)
	case sync:
		p.rawSend(peers[dst], data, true)
		got = p.rawRecv(peers[src])
	default:
		p.Send(peers[dst], data)
		got = p.Recv(peers[src])
	}
	if sync {
		p.finishCollective(start, p.m.cfg.Tc*float64(len(got))*float64(log2ceil(n)))
	}
	return got
}
