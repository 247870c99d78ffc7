package machine

import (
	"sync"

	"dmcc/internal/grid"
)

// chanLinks is the reference runtime the event scheduler is checked
// against: the goroutine-per-processor machine this package shipped
// before it had a scheduler, cut down to what made it a different
// runtime — a P x P matrix of buffered channels, the Go scheduler
// interleaving P really-concurrent processors, and a dead channel that
// unblocks them when one fails. It plugs into the links seam, so Send,
// Recv, every collective and Barrier run here from the same source as
// on the scheduler; nothing but how a message waits is duplicated.
//
// A full channel blocks its sender, which the scheduler's queues never
// do: programs run here must keep their per-pair bursts under capacity.
type chanLinks struct {
	n     int
	links []chan message // links[src*n+dst]
	dead  chan struct{}
	once  sync.Once
}

// put sends each payload in a copy of its own: the processors run
// concurrently here, so they cannot share the scheduler's arena.
func (c *chanLinks) put(src *Proc, dst int, msg message) {
	msg.data = append([]Word(nil), msg.data...)
	select {
	case c.links[src.rank*c.n+dst] <- msg:
	case <-c.dead:
		panic(deadErr)
	}
}

func (c *chanLinks) take(dst *Proc, src int) message {
	select {
	case msg := <-c.links[src*c.n+dst.rank]:
		return msg
	case <-c.dead:
		panic(deadErr)
	}
}

// runReference executes the SPMD body with one live goroutine per
// processor over channels of the given capacity, with Run's error
// discipline (lowest-ranked root cause; casualties filtered).
func runReference(g *grid.Grid, cfg Config, capacity int, body func(p *Proc)) (Stats, error) {
	n := g.Size()
	c := &chanLinks{n: n, links: make([]chan message, n*n), dead: make(chan struct{})}
	for i := range c.links {
		c.links[i] = make(chan message, capacity)
	}
	procs := make([]Proc, n)
	errs := make([]error, n)
	abort := func() { c.once.Do(func() { close(c.dead) }) }
	var wg sync.WaitGroup
	wg.Add(n)
	for r := range procs {
		// Each processor its own machine, for a tally slab of its own.
		procs[r] = Proc{rank: r, m: &Machine{grid: g, cfg: cfg, net: c}}
		go func(p *Proc) {
			defer wg.Done()
			errs[p.rank] = runBody(p, body, abort)
		}(&procs[r])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return outcome(procs, err)
		}
	}
	return outcome(procs, nil)
}
