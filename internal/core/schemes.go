// Package core is the paper's primary contribution: the compile pipeline
// that turns a sequential Do-loop program into distribution schemes and an
// execution plan for a distributed memory machine. It combines
//
//   - per-loop component alignment (Section 3, package align),
//   - the dynamic programming algorithm over loop sequences that picks
//     the minimum-cost order of distribution schemes (Section 4,
//     Algorithm 1),
//   - communication pipelining decisions driven by data-dependence
//     information (Sections 5-6, package dep).
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dmcc/internal/align"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// SchemeSet is a complete data-distribution decision for one segment of
// the program: a processor-grid shape plus one distribution scheme per
// array.
type SchemeSet struct {
	Grid      *grid.Grid
	Schemes   map[string]dist.Scheme
	Partition align.Partition
	// Cyclic records whether the segment used cyclic distributions
	// (triangular iteration spaces, Section 6).
	Cyclic bool
	Label  string

	keyOnce  sync.Once
	gridKey  string            // "gx<extent>x<extent>", "" without a grid
	arrayKey map[string]string // per array: ";<name>:" and its placement
	sig      string            // gridKey + every arrayKey in sorted name order

	// nestKeys[t] is restrictedKey over the arrays nest t of the program
	// behind keysOf references, formatted once when a compiler's memo
	// derived the set.
	nestKeys []string
	keysOf   *Analysis
}

// String summarizes the scheme set.
func (ss *SchemeSet) String() string {
	if ss == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s on %s", ss.Label, ss.Grid)
}

// Signature returns a canonical, order-stable encoding of everything
// that determines element placement: the grid shape and, per array (in
// sorted name order), each dimension's sign, displacement, block size,
// cyclic/replication flags and grid mapping, plus rotation coefficients
// and fixed coordinates. Two scheme sets with equal signatures place
// every element of every array identically, so signatures (and
// signature pairs) are safe memoization keys for redistribution and
// loop-carried costs. Labels and partitions are deliberately excluded.
// The string is built once per set; Grid and Schemes must not change
// after the first call.
func (ss *SchemeSet) Signature() string {
	if ss == nil {
		return "<nil>"
	}
	ss.keyOnce.Do(ss.buildKeys)
	return ss.sig
}

// buildKeys formats the set's memoization keys, once: the signature and
// the pieces it concatenates, so a key over a subset of the arrays
// (restrictedKey) costs a concatenation and no formatting. The pieces are
// formatted into one buffer and sliced from the signature's one string.
func (ss *SchemeSet) buildKeys() {
	var b []byte
	if ss.Grid != nil {
		b = append(b, 'g')
		for d := 0; d < ss.Grid.Q(); d++ {
			b = strconv.AppendInt(append(b, 'x'), int64(ss.Grid.Extent(d)), 10)
		}
	}
	names := make([]string, 0, len(ss.Schemes))
	for n := range ss.Schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	ends := make([]int, len(names)+1) // the grid's piece, then each array's
	ends[0] = len(b)
	for i, n := range names {
		b = appendSchemeKey(b, n, ss.Schemes[n])
		ends[i+1] = len(b)
	}
	ss.sig = string(b)
	ss.gridKey = ss.sig[:ends[0]]
	ss.arrayKey = make(map[string]string, len(names))
	for i, n := range names {
		ss.arrayKey[n] = ss.sig[ends[i]:ends[i+1]]
	}
}

// restrictedKey is the signature restricted to the named arrays (given
// in sorted order): equal keys place every element of those arrays
// identically on equal grids, whatever the sets say about other arrays.
func (ss *SchemeSet) restrictedKey(arrays []string) string {
	ss.keyOnce.Do(ss.buildKeys)
	var b strings.Builder
	b.WriteString(ss.gridKey)
	for _, a := range arrays {
		b.WriteString(ss.arrayKey[a])
	}
	return b.String()
}

// nestKey is restrictedKey over the arrays nest t references, formatted
// when the compiler that derived the set first shared it, and afresh for
// any other set.
func (ss *SchemeSet) nestKey(an *Analysis, t int) string {
	if ss.keysOf == an {
		return ss.nestKeys[t]
	}
	return ss.restrictedKey(an.refs[t])
}

// appendSchemeKey appends one array's placement, encoded as Signature
// documents it.
func appendSchemeKey(b []byte, name string, s dist.Scheme) []byte {
	b = append(append(append(b, ';'), name...), ':')
	for _, d := range s.Dims {
		if d.Replicated {
			b = append(strconv.AppendInt(append(b, "[R g"...), int64(d.GridDim), 10), ']')
			continue
		}
		b = append(b, '[')
		if d.Sign >= 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(d.Sign), 10)
		b = strconv.AppendInt(append(b, ' '), int64(d.Disp), 10)
		b = strconv.AppendInt(append(b, ' '), int64(d.Block), 10)
		b = strconv.AppendBool(append(b, " c"...), d.Cyclic)
		b = append(strconv.AppendInt(append(b, " g"...), int64(d.GridDim), 10), ']')
	}
	if s.Rot != dist.NoRotation {
		b = strconv.AppendInt(append(b, "rot"...), int64(s.Rot), 10)
		b = strconv.AppendInt(append(b, '('), int64(s.D1), 10)
		b = append(strconv.AppendInt(append(b, ','), int64(s.D2), 10), ')')
	}
	if len(s.Fixed) > 0 {
		gds := make([]int, 0, len(s.Fixed))
		for gd := range s.Fixed {
			gds = append(gds, gd)
		}
		sort.Ints(gds)
		for _, gd := range gds {
			b = strconv.AppendInt(append(b, 'f'), int64(gd), 10)
			b = strconv.AppendInt(append(b, '='), int64(s.Fixed[gd]), 10)
		}
	}
	return b
}

// Triangular reports whether any loop bound of the nest depends on an
// enclosing loop index — the paper's criterion for switching from
// contiguous to cyclic distribution ("Because the index space includes an
// oblique pyramid and a triangle, cyclical data distribution schema will
// be used", Section 6).
func Triangular(nest *ir.Nest) bool {
	for li, l := range nest.Loops {
		for _, b := range []ir.Affine{l.Lo, l.Hi} {
			for _, t := range b.Terms {
				for _, outer := range nest.Loops[:li] {
					if outer.Index == t.Var {
						return true
					}
				}
			}
		}
	}
	return false
}

// GridShapes returns the candidate 2-D grid shapes for n processors the
// way Section 3 evaluates them: (n,1), (1,n), and (sqrt(n), sqrt(n)) when
// n is a perfect square.
func GridShapes(n int) [][2]int {
	shapes := [][2]int{{n, 1}, {1, n}}
	r := 1
	for r*r < n {
		r++
	}
	if r*r == n && r > 1 {
		shapes = append(shapes, [2]int{r, r})
	}
	return shapes
}

// DeriveSchemes turns an alignment partition into concrete distribution
// schemes on a 2-D grid of the given shape: each array dimension maps to
// the grid dimension of its subset with a contiguous block distribution
// (rectangular iteration spaces) or a cyclic distribution (triangular
// ones); remaining grid dimensions of lower-rank arrays are replicated,
// following the end of Section 2.1.
func DeriveSchemes(an *Analysis, pt align.Partition, shape [2]int, cyclic bool) (*SchemeSet, error) {
	return deriveSchemes(an.low, pt, shape, cyclic)
}

// deriveSchemes is DeriveSchemes over the array shapes of a lowering,
// which a size pricer re-binds.
func deriveSchemes(lw *ir.Lowered, pt align.Partition, shape [2]int, cyclic bool) (*SchemeSet, error) {
	kind := "block"
	if cyclic {
		kind = "cyclic"
	}
	ss := &SchemeSet{
		Grid:      grid.New(shape[0], shape[1]),
		Schemes:   make(map[string]dist.Scheme, len(lw.Names)),
		Partition: pt,
		Cyclic:    cyclic,
		Label:     fmt.Sprintf("%dx%d/%s", shape[0], shape[1], kind),
	}
	if err := ss.rederive(lw); err != nil {
		return nil, err
	}
	return ss, nil
}

// rederive derives every array's scheme of ss from its partition, grid
// and cyclic flag for the shapes of lw, validating each. An array that
// already has a scheme keeps its Dims and Fixed storage and gets new
// values in it, so a set re-derived at another size of the same program
// allocates nothing; a set whose keys have been built must not be
// re-derived.
func (ss *SchemeSet) rederive(lw *ir.Lowered) error {
	g := ss.Grid
	for a, name := range lw.Names {
		size := lw.Shapes[a]
		s, had := ss.Schemes[name]
		if !had {
			s.Dims = make([]dist.Dim, len(size))
		}
		var used [2]bool
		for k := range s.Dims {
			sub, ok := ss.Partition.Assign[ir.DimID{Array: name, Dim: k}]
			if !ok {
				return fmt.Errorf("core: no alignment for %s dim %d", name, k+1)
			}
			n := g.Extent(sub)
			switch {
			case n == 1:
				// Degenerate grid dimension: one block holds everything.
				s.Dims[k] = dist.Dim{Sign: 1, Disp: -1, Block: size[k], GridDim: sub}
			case ss.Cyclic:
				s.Dims[k] = dist.Cyclic(sub)
			default:
				s.Dims[k] = dist.BlockContiguous(size[k], n, sub)
			}
			used[sub] = true
		}
		if !had {
			s.Fixed = map[int]int{}
			for gd := 0; gd < g.Q(); gd++ {
				if !used[gd] {
					s.Fixed[gd] = dist.All // replicate along unused grid dims
				}
			}
		}
		if err := s.Validate(g, size); err != nil {
			return fmt.Errorf("core: derived scheme for %s invalid: %v", name, err)
		}
		if !had {
			ss.Schemes[name] = s
		}
	}
	return nil
}
