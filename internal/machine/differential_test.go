package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dmcc/internal/grid"
)

// The differential test of the one runtime: seeded random SPMD programs
// over Send/Recv, the eight Table 1 collectives, AllReduce and Barrier
// run on the event scheduler and on the channel reference
// (reference_test.go) — Stats, sorted traces and per-processor payload
// checksums must be identical — and both are held to an independent
// sequential model of what the program should cost (model below), because
// the collectives are one source for both runtimes and a pricing or
// counting slip in them would otherwise move both sides together.

// spmdOp is one step of a random program. Every processor executes every
// step; the fields are drawn once so the whole machine agrees on them.
type spmdOp struct {
	Kind string
	Dims []int // collectives: the grid dimensions of the peer group
	Root int   // rooted collectives: root position, taken mod the group size
	K    int   // payload words (uniform across the group)
	Dim  int   // shift: dimension
	Dist int   // shift: distance
	Src  int   // transfer: source rank
	Dst  int   // transfer: destination rank
	Seed int64 // affine: permutation seed; scatter: chunk-length seed
	// exchange: Sends[src] lists (dst, words) pairs; all sends of a round
	// precede its receives, which drain sources in ascending order.
	Sends [][][2]int
	Flops int // compute: rank r spends Flops*(r+1)
}

var spmdKinds = []string{"compute", "exchange", "transfer", "shift", "multicast", "reduce", "allreduce",
	"scatter", "gather", "allgather", "affine", "barrier"}

func randomSPMD(rng *rand.Rand, g *grid.Grid, nops int) []spmdOp {
	n := g.Size()
	prog := make([]spmdOp, nops)
	for i := range prog {
		op := spmdOp{Kind: spmdKinds[rng.Intn(len(spmdKinds))], K: 1 + rng.Intn(5), Root: rng.Intn(n),
			Seed: rng.Int63(), Flops: rng.Intn(4)}
		if g.Q() == 1 || rng.Intn(3) == 0 {
			for d := 0; d < g.Q(); d++ {
				op.Dims = append(op.Dims, d)
			}
		} else {
			op.Dims = []int{rng.Intn(g.Q())}
		}
		op.Dim, op.Dist = rng.Intn(g.Q()), rng.Intn(7)-3
		op.Src, op.Dst = rng.Intn(n), rng.Intn(n)
		if op.Kind == "exchange" {
			op.Sends = make([][][2]int, n)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if dst != src && rng.Intn(3) == 0 {
						op.Sends[src] = append(op.Sends[src], [2]int{dst, 1 + rng.Intn(6)})
					}
				}
			}
		}
		prog[i] = op
	}
	return prog
}

// chunkLens draws the ragged chunk lengths of a scatter over n peers from
// the op's seed: the same at every processor.
func chunkLens(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(5)
	}
	return out
}

func payload(rank, step, k int) []Word {
	buf := make([]Word, k)
	for i := range buf {
		buf[i] = Word(rank*1000 + step*10 + i)
	}
	return buf
}

// runSPMD interprets prog on p and returns a checksum of every word the
// processor received.
func runSPMD(p *Proc, prog []spmdOp) Word {
	var sum Word
	fold := func(vs ...[]Word) {
		for _, v := range vs {
			for _, w := range v {
				sum += w
			}
		}
	}
	me := p.Rank()
	for step, op := range prog {
		data := payload(me, step, op.K)
		switch op.Kind {
		case "compute":
			p.Compute(op.Flops * (me + 1))
		case "exchange":
			for _, s := range op.Sends[me] {
				p.Send(s[0], payload(me, step, s[1]))
			}
			for src := range op.Sends {
				for _, s := range op.Sends[src] {
					if s[0] == me {
						fold(p.Recv(src))
					}
				}
			}
		case "transfer":
			if me == op.Src || me == op.Dst {
				fold(p.Transfer(op.Src, op.Dst, data))
			}
		case "shift":
			fold(p.Shift(op.Dim, op.Dist, data))
		case "barrier":
			p.Barrier()
		default:
			peers := p.PeersOver(op.Dims...)
			n := len(peers)
			root := peers[op.Root%n]
			switch op.Kind {
			case "multicast":
				fold(p.OneToManyMulticast(op.Dims, root, data))
			case "reduce":
				fold(p.Reduction(op.Dims, root, data, SumOp))
			case "allreduce":
				fold(p.AllReduce(op.Dims, data, MaxOp))
			case "scatter":
				var chunks [][]Word
				if me == root {
					for _, l := range chunkLens(op.Seed, n) {
						chunks = append(chunks, payload(me, step, l))
					}
				}
				fold(p.Scatter(op.Dims, root, chunks))
			case "gather":
				fold(p.Gather(op.Dims, root, data)...)
			case "allgather":
				fold(p.ManyToManyMulticast(op.Dims, data)...)
			case "affine":
				fold(p.AffineTransform(op.Dims, rand.New(rand.NewSource(op.Seed)).Perm(n), data))
			}
		}
	}
	return sum
}

// spmdModel is the sequential oracle: what prog must cost on cfg, from
// the definitions — Table 1 for synchronous collectives, SendTiming for
// point-to-point — not from the runtime. Counter totals are modelled in
// every mode; clocks are modelled when collectives are synchronous
// (asynchronous collectives are binomial-tree message exchanges whose
// clocks only a second implementation of the trees could predict).
type spmdModel struct {
	clock                  []float64
	flops, messages, words int64
}

func modelSPMD(g *grid.Grid, cfg Config, prog []spmdOp) spmdModel {
	n := g.Size()
	m := spmdModel{clock: make([]float64, n)}
	count := func(msgs, words int) {
		m.messages += int64(msgs)
		m.words += int64(words)
	}
	// exchange prices one round of point-to-point traffic: every
	// processor's sends (in order) precede its receives (in the given
	// order), so arrivals depend only on the senders' entry clocks.
	type msg struct{ src, dst, words int }
	exchange := func(msgs []msg) {
		arrival := make([]float64, len(msgs))
		for i, x := range msgs { // grouped by sender, in send order
			m.clock[x.src], arrival[i] = cfg.SendTiming(m.clock[x.src], x.words)
			count(1, x.words)
		}
		for i, x := range msgs { // per receiver, in receive order
			if arrival[i] > m.clock[x.dst] {
				m.clock[x.dst] = arrival[i]
			}
		}
	}
	// groups partitions the ranks into the peer groups of a collective
	// over dims, each in ascending rank order.
	groups := func(dims []int) [][]int {
		in := map[int]bool{}
		for _, d := range dims {
			in[d] = true
		}
		byKey := map[string][]int{}
		var keys []string
		for r := 0; r < n; r++ {
			key := ""
			for d := 0; d < g.Q(); d++ {
				if !in[d] {
					key += fmt.Sprint(g.Coord(r, d), ",")
				}
			}
			if byKey[key] == nil {
				keys = append(keys, key)
			}
			byKey[key] = append(byKey[key], r)
		}
		var out [][]int
		for _, k := range keys {
			out = append(out, byKey[k])
		}
		return out
	}
	// engage is the synchronous-collective clock rule: the group leaves
	// at max(entry) + cost(position).
	engage := func(peers []int, cost func(pos int) float64) {
		if !cfg.SyncCollectives {
			return
		}
		start := 0.0
		for _, r := range peers {
			if m.clock[r] > start {
				start = m.clock[r]
			}
		}
		for pos, r := range peers {
			m.clock[r] = start + cost(pos)
		}
	}
	flat := func(c float64) func(int) float64 { return func(int) float64 { return c } }

	for _, op := range prog {
		switch op.Kind {
		case "compute":
			for r := 0; r < n; r++ {
				m.flops += int64(op.Flops * (r + 1))
				m.clock[r] += float64(op.Flops*(r+1)) * cfg.Tf
			}
		case "exchange":
			var msgs []msg
			for src := range op.Sends {
				for _, s := range op.Sends[src] {
					msgs = append(msgs, msg{src, s[0], s[1]})
				}
			}
			exchange(msgs)
		case "transfer":
			if op.Src != op.Dst {
				exchange([]msg{{op.Src, op.Dst, op.K}})
			}
		case "shift":
			ext := g.Extent(op.Dim)
			if d := ((op.Dist % ext) + ext) % ext; d != 0 {
				var msgs []msg
				for _, ring := range groups([]int{op.Dim}) {
					for c, r := range ring {
						msgs = append(msgs, msg{r, ring[(c+d)%ext], op.K})
					}
				}
				exchange(msgs)
			}
		case "barrier":
			all := make([]int, n)
			for r := range all {
				all[r] = r
			}
			engage(all, flat(0))
		default:
			for _, peers := range groups(op.Dims) {
				num := len(peers)
				if num == 1 {
					continue
				}
				tree := cfg.Tc * float64(op.K) * float64(log2ceil(num))
				root := op.Root % num
				switch op.Kind {
				case "multicast":
					count(num-1, (num-1)*op.K)
					engage(peers, flat(tree))
				case "reduce", "allreduce":
					rounds := 1
					if op.Kind == "allreduce" {
						rounds = 2 // a Reduction, then a multicast of the result
					}
					count(rounds*(num-1), rounds*(num-1)*op.K)
					if !cfg.SyncCollectives {
						m.flops += int64((num - 1) * op.K) // one combine per tree edge
					}
					engage(peers, flat(float64(rounds)*tree))
				case "scatter":
					lens := chunkLens(op.Seed, num)
					longest := 0
					for pos, l := range lens {
						if l > longest {
							longest = l
						}
						if pos != root {
							count(1, l+1) // each chunk travels with a length prefix
						}
					}
					engage(peers, flat(cfg.Tc*float64(longest)*float64(num)))
				case "gather":
					count(num-1, (num-1)*op.K)
					engage(peers, flat(cfg.Tc*float64(op.K)*float64(num)))
				case "allgather":
					count(num*(num-1), num*(num-1)*op.K)
					engage(peers, flat(cfg.Tc*float64(op.K)*float64(num)))
				case "affine":
					moved := 0
					for pos, dst := range rand.New(rand.NewSource(op.Seed)).Perm(num) {
						if pos != dst {
							moved++
						}
					}
					if moved > 0 { // the identity returns before synchronizing
						count(moved, moved*op.K)
						engage(peers, flat(tree))
					}
				}
			}
		}
	}
	return m
}

func sortedEvents(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Proc != b.Proc:
			return a.Proc < b.Proc
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.End != b.End:
			return a.End < b.End
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Peer != b.Peer:
			return a.Peer < b.Peer
		}
		return a.Words < b.Words
	})
	return out
}

// TestRuntimesAgreeOnRandomSPMD is the differential test described at the
// top of this file.
func TestRuntimesAgreeOnRandomSPMD(t *testing.T) {
	grids := [][]int{{1}, {2}, {5}, {8}, {2, 3}, {3, 4}, {4, 1}}
	for _, shape := range grids {
		g := grid.New(shape...)
		for seed := int64(1); seed <= 6; seed++ {
			prog := randomSPMD(rand.New(rand.NewSource(seed*7919+int64(g.Size()))), g, 10)
			for mode := 0; mode < 8; mode++ {
				cfg := DefaultConfig()
				cfg.SyncCollectives = mode&1 == 0
				cfg.Overlap = mode&2 != 0
				cfg.Alpha = float64(mode>>2) * 3
				label := func() string {
					return fmt.Sprintf("grid %v seed %d sync=%t overlap=%t alpha=%g\nprogram: %+v",
						shape, seed, cfg.SyncCollectives, cfg.Overlap, cfg.Alpha, prog)
				}

				sums := [2][]Word{make([]Word, g.Size()), make([]Word, g.Size())}
				var tracers [2]lockedTracer
				body := func(side int) func(p *Proc) {
					return func(p *Proc) { sums[side][p.Rank()] = runSPMD(p, prog) }
				}
				cfg.Tracer = &tracers[0]
				got, err := mustNew(t, g, cfg).Run(body(0))
				if err != nil {
					t.Fatalf("scheduler: %v\n%s", err, label())
				}
				cfg.Tracer = &tracers[1]
				want, err := runReference(g, cfg, 256, body(1))
				if err != nil {
					t.Fatalf("reference: %v\n%s", err, label())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stats differ:\n scheduler %+v\n reference %+v\n%s", got, want, label())
				}
				if !reflect.DeepEqual(sums[0], sums[1]) {
					t.Fatalf("received payloads differ:\n scheduler %v\n reference %v\n%s", sums[0], sums[1], label())
				}
				if a, b := sortedEvents(tracers[0].events), sortedEvents(tracers[1].events); !reflect.DeepEqual(a, b) {
					t.Fatalf("traces differ (%d vs %d events)\n%s", len(a), len(b), label())
				}

				model := modelSPMD(g, cfg, prog)
				if got.Flops != model.flops || got.Messages != model.messages || got.Words != model.words {
					t.Fatalf("counters: ran flops=%d messages=%d words=%d, model says %d / %d / %d\n%s",
						got.Flops, got.Messages, got.Words, model.flops, model.messages, model.words, label())
				}
				if cfg.SyncCollectives {
					for r, ps := range got.PerProc {
						if ps.Clock != model.clock[r] {
							t.Fatalf("processor %d clock = %v, model says %v\n%s", r, ps.Clock, model.clock[r], label())
						}
					}
				}
			}
		}
	}
}

// TestRuntimesAgreeOnAborts: a failing processor takes its peers down the
// same way on both runtimes — whether they wait in a Barrier, in a Recv
// or inside a collective — and both report the same lowest-ranked root
// cause, never a casualty's unwind and never the generic abort error.
func TestRuntimesAgreeOnAborts(t *testing.T) {
	cases := []struct {
		name string
		want string
		body func(p *Proc)
	}{
		{"panic while peers wait in a barrier", "processor 2 panicked: boom", func(p *Proc) {
			if p.Rank() == 2 {
				panic("boom")
			}
			p.Barrier()
		}},
		{"panic while peers wait in Recv", "processor 3 panicked: boom", func(p *Proc) {
			if p.Rank() == 3 {
				panic("boom")
			}
			p.Recv(3)
		}},
		{"two root causes, lowest rank wins", "processor 1 panicked: first", func(p *Proc) {
			switch p.Rank() {
			case 1:
				panic("first")
			case 3:
				panic("second")
			}
			p.AllReduce([]int{0}, []Word{1}, SumOp)
		}},
		{"protocol error inside a collective", "processor 0 panicked: machine: Scatter got 1 chunks for 4 peers", func(p *Proc) {
			p.Compute(p.Rank())
			p.Scatter([]int{0}, 0, [][]Word{{1}})
		}},
		{"invalid rank after a completed exchange", "processor 2 panicked: machine: Send to invalid rank 9", func(p *Proc) {
			p.Shift(0, 1, []Word{1})
			if p.Rank() == 2 {
				p.Send(9, nil)
			}
			p.Barrier()
		}},
	}
	g := grid.New(4)
	for _, c := range cases {
		_, errSched := mustNew(t, g, DefaultConfig()).Run(c.body)
		_, errRef := runReference(g, DefaultConfig(), 16, c.body)
		for side, err := range map[string]error{"scheduler": errSched, "reference": errRef} {
			if err == nil || !strings.HasSuffix(err.Error(), c.want) {
				t.Errorf("%s: %s returned %v, want ...%s", c.name, side, err, c.want)
			}
		}
	}
}
