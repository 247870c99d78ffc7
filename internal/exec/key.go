package exec

import (
	"strconv"
	"strings"

	"dmcc/internal/ir"
)

// pkey renders an array element as its canonical "arr!i,j" key — the
// subscript part is exactly the key ir.Storage uses within an array map.
// These strings survive only in RunExact's reduction bookkeeping; the
// batched engine works on integer element offsets (see schedule.go).
func pkey(arr string, idx []int) string { return arr + "!" + ir.Key(idx) }

// splitKey splits "arr!1,2" into the array name and parsed subscripts,
// panicking (with the key named) when the array part is missing or the
// subscripts are malformed.
func splitKey(key string) (string, []int) {
	arr, subs, ok := strings.Cut(key, "!")
	idx, canonical := ir.ParseKey(nil, subs)
	if !ok || arr == "" || !canonical {
		panic("exec: malformed element key " + strconv.Quote(key))
	}
	return arr, idx
}
