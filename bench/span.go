package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// op share OpID; ParentID is the span that caused this one (0 for the
// op's root). Counts are taken at the same boundary as the times.
type span struct {
	OpID     int              `json:"op_id"`
	SpanID   int              `json:"span_id"`
	ParentID int              `json:"parent_id"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func (s *span) durNS() int64 { return s.EndNS - s.StartNS }

// tracer records spans in memory; nothing is written until the run is
// over. The harness goroutine opens and closes spans as a stack
// (push/pop); the serve workloads' handler wrapper runs on the server's
// goroutine and attaches its span to the request in flight with under.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // open spans of the harness goroutine, innermost last
	opID  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(name string) {
	t.mu.Lock()
	t.opID++
	t.stack = t.stack[:0]
	t.mu.Unlock()
	t.push(name)
}

// endOp closes the root span and returns its wall time in ms.
func (t *tracer) endOp() float64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.stack {
		t.spans[id-1].EndNS = end
	}
	root := t.stack[0]
	t.stack = t.stack[:0]
	return float64(t.spans[root-1].durNS()) / 1e6
}

// active reports whether an op is open.
func (t *tracer) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stack) > 0
}

// push opens a span under the innermost open one.
func (t *tracer) push(name string) {
	t.mu.Lock()
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := t.openLocked(parent, name)
	t.stack = append(t.stack, id)
	t.mu.Unlock()
}

// pop closes the innermost open span.
func (t *tracer) pop() {
	end := t.now()
	t.mu.Lock()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// count adds to a counter of the innermost open span.
func (t *tracer) count(key string, n int64) {
	t.mu.Lock()
	s := &t.spans[t.stack[len(t.stack)-1]-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
	t.mu.Unlock()
}

// call times f as a span.
func (t *tracer) call(name string, f func() error) error {
	t.push(name)
	err := f()
	t.pop()
	return err
}

// under opens a span from another goroutine as a child of the harness
// goroutine's innermost open span; it returns 0 when no op is open.
func (t *tracer) under(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return 0
	}
	return t.openLocked(t.stack[len(t.stack)-1], name)
}

// closeSpan ends a span opened with under.
func (t *tracer) closeSpan(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// insert records a span whose duration was measured elsewhere (the
// program's own Result.SimWall) as a child of the innermost open span,
// ending now. Only its length is a measurement; its position is not.
func (t *tracer) insert(name string, dur time.Duration) {
	end := t.now()
	t.mu.Lock()
	parent := t.stack[len(t.stack)-1]
	id := t.openLocked(parent, name)
	t.spans[id-1].StartNS = end - dur.Nanoseconds()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

func (t *tracer) openLocked(parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{OpID: t.opID, SpanID: id, ParentID: parent, Name: name, StartNS: t.now()})
	return id
}

// selfTimes returns, per span, its duration minus the part of it that
// its children cover. Children may nest further (their own children are
// theirs to subtract) and may overlap one another: the covered part is
// the union of the child intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[p.SpanID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), p.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.SpanID] = p.durNS() - covered
	}
	return self
}

// layerOf is the module a span name belongs to: the text before the
// first dot ("core.RunDP" -> "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// stageRow is one line of a stage table.
type stageRow struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// stageTable sums self time by key (span name or layer) over all ops;
// shares are of the summed root-span wall, so they add up to 1.
func stageTable(spans []span, key func(name string) string) []stageRow {
	self := selfTimes(spans)
	rows := map[string]*stageRow{}
	var wall int64
	for i := range spans {
		s := &spans[i]
		if s.ParentID == 0 {
			wall += s.durNS()
		}
		k := key(s.Name)
		r := rows[k]
		if r == nil {
			r = &stageRow{Name: k}
			rows[k] = r
		}
		r.Calls++
		r.SelfMS += float64(self[s.SpanID]) / 1e6
	}
	out := make([]stageRow, 0, len(rows))
	for _, r := range rows {
		if wall > 0 {
			r.Share = r.SelfMS * 1e6 / float64(wall)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfMS != out[b].SelfMS {
			return out[a].SelfMS > out[b].SelfMS
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// printStageTable writes rows with per-op figures.
func printStageTable(w io.Writer, title string, rows []stageRow, ops int) {
	fmt.Fprintf(w, "%s\n  %-34s %10s %14s %8s\n", title, "stage", "calls/op", "raw self ms/op", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10.1f %14.4f %7.1f%%\n", r.Name, float64(r.Calls)/float64(ops), r.SelfMS/float64(ops), 100*r.Share)
	}
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
