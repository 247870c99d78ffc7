package core

import "encoding/json"

// ReflectUnmarshal is encoding/json's decode of data into fp with no
// UnmarshalJSON on the way: the oracle the canonical reader is held to.
func ReflectUnmarshal(data []byte, fp *FrozenPlan) error {
	type plan = FrozenPlan
	type FrozenPlan plan
	return json.Unmarshal(data, (*FrozenPlan)(fp))
}
