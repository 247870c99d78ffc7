// Where an array's elements live. An element is named globally, by its
// array and row-major offset (elemID), and a layout says, for one array
// under one scheme on one grid, which ranks own an element and where in
// each owner's local store it sits. The layout is the one owner of that
// cell format: everything else asks it through first, owners, local,
// storeLen and held.

package exec

import (
	"fmt"
	"slices"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
)

// elemID packs (array id, 0-based row-major element offset) into one
// integer: how both engines name an element.
type elemID int64

const elemOffBits = 40

func mkElem(a, off int) elemID { return elemID(int64(a)<<elemOffBits | int64(off)) }
func (e elemID) arr() int      { return int(int64(e) >> elemOffBits) }
func (e elemID) off() int      { return int(int64(e) & (1<<elemOffBits - 1)) }

// arrayMeta is one array's global shape — extents evaluated under the
// binding, row-major, subscripts 1-based — and its layout.
type arrayMeta struct {
	name string
	ext  []int
	size int
	lay  layout
}

// layout is one array's owner-local layout under one scheme. Owner cells
// (the sets of elements sharing an owner list) partition the array and a
// rank holds at most one of them, so one table shared by every processor
// turns a global offset into an offset inside the element's cell, and a
// processor's store of the array is exactly as long as its cell. A cell is
// named by its first (lowest) owner rank.
type layout struct {
	sch dist.Scheme
	// Per element: its cell and its offset inside the cell.
	cell, loc []int32
	// Per rank: the cell the rank holds (-1 for none). Per cell: its
	// length and its owners, ascending, a range of owner (empty for none).
	rankCell, cellLen []int32
	cellOwners        []span
	owner             []int
}

// build resolves, into l, the ownership of an array of extents ext under
// sch on g, visiting every element once, and asserts what the local
// stores rest on: every element of a cell has the same owner list and no
// rank appears in two cells. The caller names the array in the error.
func (l *layout) build(ext []int, sch dist.Scheme, g *grid.Grid) error {
	size := 1
	for _, e := range ext {
		size *= e
	}
	n := g.Size()
	l.sch = sch
	l.cell, l.loc = resize(l.cell, size), resize(l.loc, size)
	l.rankCell, l.cellLen, l.cellOwners = resize(l.rankCell, n), zeroed(l.cellLen, n), zeroed(l.cellOwners, n)
	l.owner = l.owner[:0]
	for r := range l.rankCell {
		l.rankCell[r] = -1
	}
	if size == 0 {
		return nil
	}
	var err error
	var owners []int // every element's owner list, in one reused buffer
	off := 0
	dist.ForEachIndex(ext, func(idx []int) {
		owners = sch.AppendOwners(owners[:0], g, idx...)
		c := int32(owners[0])
		if l.cellOwners[c].n() == 0 {
			for _, o := range owners {
				if l.rankCell[o] >= 0 && err == nil {
					err = fmt.Errorf("rank %d owns %v under first owner %d and other elements under first owner %d",
						o, idx, c, l.rankCell[o])
				}
				l.rankCell[o] = c
			}
			l.cellOwners[c] = span{int32(len(l.owner)), int32(len(l.owner) + len(owners))}
			l.owner = append(l.owner, owners...)
		} else if cell := l.owner[l.cellOwners[c].lo:l.cellOwners[c].hi]; !slices.Equal(owners, cell) && err == nil {
			err = fmt.Errorf("%v is owned by %v, other elements of first owner %d by %v",
				idx, owners, c, cell)
		}
		l.cell[off], l.loc[off] = c, l.cellLen[c]
		l.cellLen[c]++
		off++
	})
	return err
}

// first is the first (lowest) owner of the element at off, which names
// its cell.
func (l *layout) first(off int) int32 { return l.cell[off] }

// owners is the owner list of the element at off, ascending: a view of
// its cell's.
func (l *layout) owners(off int) []int {
	s := l.cellOwners[l.cell[off]]
	return l.owner[s.lo:s.hi:s.hi]
}

// local is the element's index in rank r's store, and whether r holds it.
func (l *layout) local(r, off int) (int32, bool) {
	return l.loc[off], l.cell[off] == l.rankCell[r]
}

// held is the cell rank r holds, named by its first owner, or -1.
func (l *layout) held(r int) int32 { return l.rankCell[r] }

// storeLen is the length of rank r's local store of the array.
func (l *layout) storeLen(r int) int {
	if c := l.rankCell[r]; c >= 0 {
		return int(l.cellLen[c])
	}
	return 0
}

// dense is a per-array element table, each array's row materialized,
// zeroed, on first touch; a row of no elements is one not touched yet.
type dense[T any] [][]T

func (d dense[T]) at(s *progSchedule, e elemID) *T {
	a := e.arr()
	if len(d[a]) == 0 {
		d[a] = zeroed(d[a], s.arrays[a].size)
	}
	return &d[a][e.off()]
}

// reset empties the table for arrays arrays, keeping each row's storage.
func (d *dense[T]) reset(arrays int) {
	*d = resize(*d, arrays)
	for a := range *d {
		(*d)[a] = (*d)[a][:0]
	}
}

// decode is the element's 1-based subscripts, used only in diagnostics.
func (s *progSchedule) decode(e elemID) []int { return s.lw.Index(e.arr(), e.off(), nil) }
