package cost

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// checkDecoded decodes data as a PiecewisePoly the way a plan's fits are
// decoded when the canonical reader declines them: a value Validate
// accepts must evaluate and render without panicking at sizes from its
// floor, and must come back unchanged through the writer.
func checkDecoded(t *testing.T, data []byte) {
	t.Helper()
	var pp PiecewisePoly
	if json.Unmarshal(data, &pp) != nil || pp.Validate() != nil {
		return
	}
	for _, m := range []int{pp.MinM, pp.MinM + 1, pp.MinM + pp.Period, pp.MinM + 1000} {
		if m < pp.MinM {
			continue // past MaxInt
		}
		if _, err := pp.Eval(m); err != nil {
			t.Fatalf("%q: valid polynomial refused m=%d: %v", data, m, err)
		}
	}
	_ = pp.String()
	out, err := json.Marshal(&pp)
	if err != nil {
		t.Fatalf("%q: re-encoding: %v", data, err)
	}
	var back PiecewisePoly
	if err := json.Unmarshal(out, &back); err != nil || !reflect.DeepEqual(back, pp) {
		t.Fatalf("%q: written as %s, read back as %+v (%v), want %+v", data, out, back, err, pp)
	}
}

// canonicalPoly is a fitted polynomial the way Fit writes one.
func canonicalPoly(t testing.TB) []byte {
	pp, err := FitPiecewise(func(m int) (int64, error) { return int64(m/4)*int64(m) - 7, nil }, 8, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeCorpus is the canonical bytes of a fitted polynomial and
// deviations from them in field order, whitespace, unknown fields, number
// form and length.
func decodeCorpus(t testing.TB) [][]byte {
	canon := string(canonicalPoly(t))
	corpus := []string{
		canon,
		`{"Period":1,"MinM":0,"Pieces":[{"M0":0,"Step":1,"Diffs":[0]}]}`,
		`{"Period":1,"MinM":-3,"Pieces":[{"M0":-3,"Step":1,"Diffs":[-9223372036854775808,9223372036854775807]}]}`,
		`{"Period":0,"MinM":0,"Pieces":[]}`,
		`{"Period":2,"MinM":0,"Pieces":null}`,
		`{"Period":1,"MinM":0,"Pieces":[{"M0":0,"Step":1,"Diffs":[]}]}`,
		`{"Period":1,"MinM":0,"Pieces":[{"M0":0,"Step":1,"Diffs":null}]}`,
		`{"Period":1000000000000,"MinM":0,"Pieces":[{"M0":0,"Step":1,"Diffs":[1]}]}`,
		// Reordered, respelled, spaced, extended.
		`{"MinM":8,"Period":1,"Pieces":[{"Step":1,"M0":8,"Diffs":[1,2]}]}`,
		`{"period":1,"minm":8,"PIECES":[{"m0":8,"step":1,"diffs":[1,2]}]}`,
		`{ "Period": 1, "MinM": 8, "Pieces": [ { "M0": 8, "Step": 1, "Diffs": [ 1, 2 ] } ] }`,
		"{\"Period\":1,\"MinM\":8,\n\"Pieces\":[{\"M0\":8,\"Step\":1,\"Diffs\":[1,\t2]}]}",
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[1,2],"Extra":true}],"Note":"x"}`,
		`{"Period":1,"Period":2,"MinM":8,"Pieces":[]}`,
		`{"Period":1,"MinM":8}`,
		`{}`, `null`, `[]`, `3`, `"Period"`, `true`,
		// Number forms.
		`{"Period":1e0,"MinM":8,"Pieces":[]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[1e3]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[1.5]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[1.0]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[-0]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[9223372036854775808]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[-9223372036854775809]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[123456789012345678901234567890]}]}`,
		`{"Period":99999999999999999999,"MinM":8,"Pieces":[]}`,
		`{"Period":"1","MinM":8,"Pieces":[]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":["1"]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[1,null]}]}`,
		`{"Period":1,"MinM":8,"Pieces":{"M0":8}}`,
		// Invalid JSON json.Unmarshal rejects before UnmarshalJSON runs.
		`{"Period":01,"MinM":8,"Pieces":[]}`,
		`{"Period":1,"MinM":8,"Pieces":[{"M0":8,"Step":1,"Diffs":[1,]}]}`,
		`{"Period":1,"MinM":8,"Pieces":[,]}`,
		`{"Period":1,"MinM":8,"Pieces":[]}}`,
		`{"Period":1,"MinM":8,"Pieces":[]} x`,
		`{"Period":-,"MinM":8,"Pieces":[]}`,
		`{"Period":--1,"MinM":8,"Pieces":[]}`,
		`{"Period":+1,"MinM":8,"Pieces":[]}`,
	}
	out := make([][]byte, 0, len(corpus)+len(canon))
	for _, s := range corpus {
		out = append(out, []byte(s))
	}
	for cut := 0; cut < len(canon); cut += 3 {
		out = append(out, []byte(canon[:cut]))
	}
	return out
}

// TestPiecewiseDecodeMatchesReflect: a PiecewisePoly decodes by
// reflection — the canonical byte form of a plan is read in package core,
// which hands anything else to encoding/json — and every corpus input
// that decodes to a valid polynomial evaluates and round-trips.
func TestPiecewiseDecodeMatchesReflect(t *testing.T) {
	if reflect.PointerTo(reflect.TypeFor[PiecewisePoly]()).Implements(reflect.TypeFor[json.Unmarshaler]()) {
		t.Fatal("PiecewisePoly has a decoder of its own; the plan reader in core is the only one")
	}
	for _, data := range decodeCorpus(t) {
		checkDecoded(t, data)
	}
	var pp PiecewisePoly
	if err := json.Unmarshal(canonicalPoly(t), &pp); err != nil || pp.Validate() != nil {
		t.Fatalf("fitted polynomial did not decode to a valid one: %v, %v", err, pp.Validate())
	}
}

func FuzzPiecewiseDecode(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(checkDecoded)
}

// TestPiecewiseValidate: what Fit writes is valid; each way a decoded
// polynomial could make Eval divide by zero or index out of range is not.
func TestPiecewiseValidate(t *testing.T) {
	var good PiecewisePoly
	if err := json.Unmarshal(canonicalPoly(t), &good); err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("fitted polynomial rejected: %v", err)
	}
	for name, mutate := range map[string]func(pp *PiecewisePoly){
		"period 0":       func(pp *PiecewisePoly) { pp.Period = 0 },
		"period 400":     func(pp *PiecewisePoly) { pp.Period = 400 },
		"short pieces":   func(pp *PiecewisePoly) { pp.Pieces = pp.Pieces[:3] },
		"step 0":         func(pp *PiecewisePoly) { pp.Pieces[1].Step = 0 },
		"wrong residue":  func(pp *PiecewisePoly) { pp.Pieces[1].M0++ },
		"below minM":     func(pp *PiecewisePoly) { pp.Pieces[1].M0 -= 4 },
		"a period late":  func(pp *PiecewisePoly) { pp.Pieces[1].M0 += 4 },
		"far anchor":     func(pp *PiecewisePoly) { pp.Pieces[1].M0 = math.MaxInt - 2 },
		"negative minM":  func(pp *PiecewisePoly) { pp.MinM = -8 },
		"no differences": func(pp *PiecewisePoly) { pp.Pieces[2].Diffs = nil },
	} {
		var pp PiecewisePoly
		json.Unmarshal(canonicalPoly(t), &pp)
		mutate(&pp)
		if err := pp.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, pp)
		}
	}
	if err := (*PiecewisePoly)(nil).Validate(); err == nil {
		t.Error("nil polynomial accepted")
	}
	sc := &SymbolicCounts{TotalFlops: &good, MaxProcFlops: &good, RemoteWords: &good, ReduceWords: &good, MaxProcIn: &good}
	if err := sc.Validate(8); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("counts without MaxProcOut: %v", err)
	}
	if err := (&SymbolicLoads{MaxNum: &good, Words: &good, Den: 0}).Validate(8); err == nil {
		t.Error("loads with den 0 accepted")
	}
	if err := (&SymbolicLoads{MaxNum: &good, Words: &good, Den: 4}).Validate(8); err != nil {
		t.Errorf("sound loads rejected: %v", err)
	}
	if err := (&SymbolicLoads{MaxNum: &good, Words: &good, Den: 4}).Validate(16); err == nil {
		t.Error("loads fitted from m=8 accepted as fitted from m=16")
	}
}
