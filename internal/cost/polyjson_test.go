package cost

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// reflectDecode is the plain reflective decode of a PiecewisePoly — what
// encoding/json did before the type had an UnmarshalJSON.
func reflectDecode(data []byte) (PiecewisePoly, error) {
	type plain PiecewisePoly
	var p plain
	err := json.Unmarshal(data, &p)
	return PiecewisePoly(p), err
}

// errClass names the kind of a decode error; the texts differ between the
// two decoders only in the struct name json reports.
func errClass(err error) string {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &syn):
		return "syntax"
	case errors.As(err, &typ):
		return "type"
	default:
		return fmt.Sprintf("%T", err)
	}
}

// checkDecodeMatchesReflect decodes data both ways and fails on any
// difference in value or error class.
func checkDecodeMatchesReflect(t *testing.T, data []byte) {
	t.Helper()
	var got PiecewisePoly
	gotErr := json.Unmarshal(data, &got)
	want, wantErr := reflectDecode(data)
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%q: decode error %v, reflective decode error %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n decoded %+v\n reflect %+v", data, got, want)
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

// decodeCorpus is every shape of input the decoder must treat exactly as
// encoding/json does: the canonical bytes, and deviations from them in
// field order, whitespace, unknown fields, number form and length.
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

// TestPiecewiseDecodeMatchesReflect: every corpus input decodes to the
// value, or fails with the error class, of the reflective decode.
func TestPiecewiseDecodeMatchesReflect(t *testing.T) {
	for _, data := range decodeCorpus(t) {
		checkDecodeMatchesReflect(t, data)
	}
	// The canonical bytes take the integer pass, not the fallback.
	c := canonReader{b: canonicalPoly(t)}
	if _, ok := c.piecewise(); !ok {
		t.Fatalf("canonical bytes %s declined by the canonical reader", c.b)
	}
	// Inside a larger document, and as a value rather than a pointer.
	var doc struct {
		A *PiecewisePoly
		B PiecewisePoly
		C *PiecewisePoly
	}
	canon := string(canonicalPoly(t))
	if err := json.Unmarshal([]byte(`{"A":`+canon+`,"B": `+canon+` ,"C":null}`), &doc); err != nil {
		t.Fatal(err)
	}
	want, _ := reflectDecode([]byte(canon))
	if !reflect.DeepEqual(*doc.A, want) || !reflect.DeepEqual(doc.B, want) || doc.C != nil {
		t.Fatalf("embedded decode = %+v", doc)
	}
}

func FuzzPiecewiseDecode(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeMatchesReflect(t, data) })
}

// TestPiecewiseValidate: what Fit writes is valid; each way a decoded
// polynomial could make Eval divide by zero or index out of range is not.
func TestPiecewiseValidate(t *testing.T) {
	good, _ := reflectDecode(canonicalPoly(t))
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
		pp, _ := reflectDecode(canonicalPoly(t))
		mutate(&pp)
		if err := pp.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, pp)
		}
	}
	if err := (*PiecewisePoly)(nil).Validate(); err == nil {
		t.Error("nil polynomial accepted")
	}
	sc := &SymbolicCounts{TotalFlops: &good, MaxProcFlops: &good, RemoteWords: &good, ReduceWords: &good, MaxProcIn: &good}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("counts without MaxProcOut: %v", err)
	}
	if err := (&SymbolicLoads{MaxNum: &good, Words: &good, Den: 0}).Validate(); err == nil {
		t.Error("loads with den 0 accepted")
	}
	if err := (&SymbolicLoads{MaxNum: &good, Words: &good, Den: 4}).Validate(); err != nil {
		t.Errorf("sound loads rejected: %v", err)
	}
}
