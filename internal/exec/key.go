package exec

import (
	"sort"
	"strconv"
	"strings"

	"dmcc/internal/ir"
)

// pkey renders an array element as its canonical "arr!i,j" key — the
// subscript part is exactly the key ir.Storage uses within an array map.
// These strings survive only at the ir.Storage boundary and in reduction
// bookkeeping; the batched engine's hot path works on integer element
// offsets (see schedule.go).
func pkey(arr string, idx []int) string {
	var b strings.Builder
	b.Grow(len(arr) + 1 + 4*len(idx))
	b.WriteString(arr)
	b.WriteByte('!')
	b.WriteString(subKey(idx))
	return b.String()
}

// subKey renders a subscript list the way ir.Storage keys elements.
func subKey(idx []int) string {
	var b strings.Builder
	for i, v := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// parseKey parses a comma-separated subscript list ("3,-1,12") back into
// indices. Every component must be a canonical base-10 integer — exactly
// what subKey/ir.Storage emit — so parseKey(subKey(idx)) round-trips and
// subKey(parseKey(key)) == key. A malformed key (stray bytes, empty
// components, non-canonical digits) panics naming the key instead of
// silently folding garbage into the subscripts.
func parseKey(key string) []int {
	idx, ok := appendSubs(nil, key)
	if !ok {
		panic("exec: malformed element key " + strconv.Quote(key))
	}
	return idx
}

// appendSubs is parseKey's allocation-free core: it appends the key's
// subscripts to idx (a caller's stack buffer, typically) and reports
// whether every component is canonical.
func appendSubs(idx []int, key string) ([]int, bool) {
	for key != "" {
		part, rest, more := strings.Cut(key, ",")
		digits := strings.TrimPrefix(part, "-")
		v, err := strconv.Atoi(part)
		if err != nil || part[0] == '+' || part == "-0" || (len(digits) > 1 && digits[0] == '0') || (more && rest == "") {
			return idx, false
		}
		idx, key = append(idx, v), rest
	}
	return idx, true
}

// splitKey splits "arr!1,2" into the array name and parsed subscripts,
// panicking (with the key named) when the array part is missing or the
// subscripts are malformed.
func splitKey(key string) (string, []int) {
	for i := 0; i < len(key); i++ {
		if key[i] == '!' {
			if i == 0 {
				break
			}
			return key[:i], parseKey(key[i+1:])
		}
	}
	panic("exec: malformed element key " + strconv.Quote(key))
}

// anchorOf picks the reduction anchor read (most distinct subscript
// variables, excluding the accumulator), mirroring cost.CountNest.
func anchorOf(stmt *ir.Stmt) int {
	best, bestVars := -1, -1
	for i, rd := range stmt.Reads {
		if rd.Array == stmt.LHS.Array {
			continue
		}
		vars := map[string]bool{}
		for _, s := range rd.Subs {
			for _, v := range s.Vars() {
				vars[v] = true
			}
		}
		if len(vars) > bestVars {
			best, bestVars = i, len(vars)
		}
	}
	return best
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
