package exec

import (
	"reflect"
	"testing"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// census counts the words the garbage collector traces in a graph of
// objects: every pointer-typed word (pointer, slice, string, map,
// interface, func or channel) of every object it reaches, each object
// once. It descends only into objects whose type is defined in a package
// of home (the types of other packages are the program's, the lowering's
// or the grid's, counted where they are referenced, never walked), and
// tallies the words by the type holding them.
type census struct {
	home   map[string]bool
	seen   map[[2]uintptr]bool
	words  int
	byType map[string]int
}

func newCensus(pkgs ...string) *census {
	c := &census{home: map[string]bool{}, seen: map[[2]uintptr]bool{}, byType: map[string]int{}}
	for _, p := range pkgs {
		c.home[p] = true
	}
	return c
}

// follows reports whether the census descends into a value of type t:
// one of home's types, or a composite of them or of built-in types.
func (c *census) follows(t reflect.Type) bool {
	if t.Name() != "" {
		return t.PkgPath() == "" || c.home[t.PkgPath()]
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return c.follows(t.Elem())
	case reflect.Map:
		return c.follows(t.Key()) && c.follows(t.Elem())
	}
	return true
}

// once reports whether the object at p of type t is new to the census.
func (c *census) once(p uintptr, t reflect.Type) bool {
	k := [2]uintptr{p, reflect.ValueOf(t).Pointer()}
	if c.seen[k] {
		return false
	}
	c.seen[k] = true
	return true
}

// walk counts the pointer words of v, held inline by an object of type
// in, and walks what they reach.
func (c *census) walk(v reflect.Value, in string) {
	t := v.Type()
	switch t.Kind() {
	case reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		c.words++
		c.byType[in]++
		return
	case reflect.Pointer, reflect.Slice, reflect.Map:
		c.words++
		c.byType[in]++
	case reflect.Struct:
		for i := range t.NumField() {
			c.walk(v.Field(i), t.String())
		}
		return
	case reflect.Array:
		for i := range v.Len() {
			c.walk(v.Index(i), in)
		}
		return
	default:
		return
	}
	if v.IsNil() || !c.follows(t) {
		return
	}
	switch t.Kind() {
	case reflect.Pointer:
		if c.once(v.Pointer(), t.Elem()) {
			c.walk(v.Elem(), t.Elem().String())
		}
	case reflect.Slice:
		if v.Len() > 0 && c.once(v.Pointer(), t) {
			for i := range v.Len() {
				c.walk(v.Index(i), t.String())
			}
		}
	case reflect.Map:
		if c.once(v.Pointer(), t) {
			for it := v.MapRange(); it.Next(); {
				c.walk(it.Key(), t.String())
				c.walk(it.Value(), t.String())
			}
		}
	}
}

// planCensus builds the schedule of c and the executors of each of its
// segments in a workspace warmed by a run of warm, and counts the pointer
// words the workspace holds.
func planCensus(t *testing.T, c, warm benchCase) (*census, *planSchedule, [][]valExec) {
	t.Helper()
	ws := &workspace{}
	for _, c := range []benchCase{warm, c} {
		segs := wholeProgram(c.p, c.ss)
		lw := mustLower(t, c.p, c.bind)
		if err := validate(lw, segs, c.input); err != nil {
			t.Fatal(err)
		}
		if _, err := buildPlan(lw, segs, nil, ws); err != nil {
			t.Fatal(err)
		}
		ws.execs = resize(ws.execs, len(ws.plan.segs))
		for k, s := range ws.plan.segs {
			ws.execs[k] = s.executors(ws.execs[k])
		}
	}
	cen := newCensus("dmcc/internal/exec")
	cen.walk(reflect.ValueOf(ws), "root")
	return cen, &ws.plan, ws.execs
}

// TestRunTracesFewPointers: a run's workspace — its schedule, executors
// and the inspector's scratch, after an earlier run of another program —
// holds at most two pointer words per rank (an executor's schedule and
// Proc) plus 1,000, and so do the machine's run tables, so the
// collector's work during Run does not grow with the ranks, epochs,
// rounds, messages or elements of the plan. Jacobi m = 32 on 1,024
// processors held 39,678 such words and Gauss m = 32 on 16 processors
// 24,699 while the plan was nested slices and pointers per rank, round,
// message, segment, reduction role and owner list, and the machine 19,473
// at N = 1,024 while its queues, pair slots, message nodes and payloads
// were linked by pointers. -v prints the counts and the types holding
// most of them.
func TestRunTracesFewPointers(t *testing.T) {
	jacobi := newBenchCase(t, ir.Jacobi(), 32, 1024, 2, true)
	gauss := newBenchCase(t, ir.Gauss(), 32, 16, 1, false)
	for _, c := range []struct {
		name      string
		run, warm benchCase
	}{{"jacobi m=32 N=1024", jacobi, gauss}, {"gauss m=32 N=16", gauss, jacobi}} {
		cen, _, _ := planCensus(t, c.run, c.warm)
		budget := 2*c.run.ss.Grid.Size() + 1000
		t.Logf("%s: %d pointer words (budget %d); by type %v", c.name, cen.words, budget, cen.byType)
		if cen.words > budget {
			t.Errorf("%s: the workspace holds %d pointer words, budget %d; by type %v", c.name, cen.words, budget, cen.byType)
		}
	}

	// The machine's run tables, at jacobi N = 1,024's last step.
	_, pl, execs := planCensus(t, jacobi, gauss)
	mach, err := machine.New(pl.segs[0].g, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loads, nest, done := buildLoads(pl.segs[0], jacobi.input, nil), make([]int, len(execs[0])), 0
	mc := newCensus("dmcc/internal/machine")
	if _, err := mach.RunSteps(func(proc *machine.Proc) bool { // one iteration
		x := &execs[0][proc.Rank()]
		if x.proc == nil {
			x.proc = proc
			x.installInput(loads)
		}
		for at := &nest[x.me]; *at < len(x.s.nests); *at++ {
			if !x.runNest(x.s.nests[*at]) {
				return false
			}
		}
		if done++; done == len(execs[0]) { // the last rank's last step
			mc.walk(reflect.ValueOf(mach), "root")
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	budget := 2*len(execs[0]) + 1000
	t.Logf("machine during jacobi m=32 N=1024: %d pointer words (budget %d); by type %v", mc.words, budget, mc.byType)
	if mc.words > budget {
		t.Errorf("the machine holds %d pointer words during jacobi m=32 N=1024, budget %d; by type %v", mc.words, budget, mc.byType)
	}
}
