package core

import "encoding/json"

// ReadsCanonical reports whether the canonical plan reader, not the
// reflective fallback, reads data.
func ReadsCanonical(data []byte) bool {
	var fp FrozenPlan
	return readPlan(data, &fp)
}

// ReflectUnmarshal is encoding/json's decode of data into fp with no
// UnmarshalJSON on the way: the oracle the canonical reader is held to.
func ReflectUnmarshal(data []byte, fp *FrozenPlan) error {
	type plan = FrozenPlan
	type FrozenPlan plan
	return json.Unmarshal(data, (*FrozenPlan)(fp))
}
