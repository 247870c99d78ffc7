package core

import (
	"encoding/json"

	"dmcc/internal/align"
)

// ReflectUnmarshal is encoding/json's decode of data into fp with no
// UnmarshalJSON on the way: the oracle the canonical reader is held to.
func ReflectUnmarshal(data []byte, fp *FrozenPlan) error {
	type plan = FrozenPlan
	type FrozenPlan plan
	return json.Unmarshal(data, (*FrozenPlan)(fp))
}

// partition is the alignment of nests lo..hi-1 (0-based) as the
// Partition a scheme set derived from it records.
func (c *Compiler) partition(lo, hi int) (align.Partition, error) {
	assign, method, err := c.alignNests(lo, hi, new(align.Search))
	if err != nil {
		return align.Partition{}, err
	}
	return partitionOf(c.an.low, assign, method), nil // alignNests analysed the program
}

// assignOf is pt's subsets as schemeSet takes them: one byte per array
// dimension of c's program in AllDims order.
func (c *Compiler) assignOf(pt align.Partition) []byte {
	var out []byte
	for _, d := range c.Program.AllDims() {
		out = append(out, byte(pt.Assign[d]))
	}
	return out
}
