// Element enumeration for the redistribution oracle. The cost(P, P')
// term of Algorithm 1 — what switching an array's distribution scheme
// between two Do-loops moves — is priced in analytic.go: RedistLoads in
// closed form, RedistLoadsExact by visiting every element with
// ForEachIndex.
package dist

// ForEachIndex enumerates all 1-based multi-indices of the shape in
// row-major order; the same idx slice is reused across calls.
func ForEachIndex(shape []int, f func(idx []int)) {
	idx := make([]int, len(shape))
	for i := range idx {
		idx[i] = 1
	}
	for {
		f(idx)
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] <= shape[k] {
				break
			}
			idx[k] = 1
			k--
		}
		if k < 0 {
			return
		}
	}
}
