package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/parse"
	"dmcc/internal/sweep"
)

// storedPlan is one payload the way the artifact store holds it, with
// the program and the evaluator it was frozen from.
type storedPlan struct {
	name    string
	payload []byte
	prog    *ir.Program
	pe      *core.PlanEvaluator
}

var (
	storedOnce sync.Once
	stored     []storedPlan
	storedErr  error
)

// storedPlans is every payload PlanPayload writes for the builtin
// programs at N in {4, 8, 16} and m in {16, 64, 256}, and for the
// testdata sources at m = 16, N = 4; plus a plan whose fit was declined
// (it carries a fitErr) and one that was never fitted. Built once per
// test binary.
func storedPlans(tb testing.TB) []storedPlan {
	tb.Helper()
	storedOnce.Do(func() { stored, storedErr = buildStoredPlans() })
	if storedErr != nil {
		tb.Fatal(storedErr)
	}
	return stored
}

func buildStoredPlans() ([]storedPlan, error) {
	var out []storedPlan
	add := func(name string, p *ir.Program, m, n int) error {
		c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
		pe, fitErr, _, err := sweep.PlanFor(c, m, sweep.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		payload, err := sweep.PlanPayload(pe, fitErr)
		if err != nil {
			return err
		}
		out = append(out, storedPlan{name, payload, p, pe})
		return nil
	}
	for _, pr := range []struct {
		name string
		mk   func() *ir.Program
	}{{"jacobi", ir.Jacobi}, {"sor", ir.SOR}, {"gauss", ir.Gauss}, {"matmul", ir.Cannon}} {
		for _, n := range []int{4, 8, 16} {
			for _, m := range []int{16, 64, 256} {
				if err := add(fmt.Sprintf("%s m=%d N=%d", pr.name, m, n), pr.mk(), m, n); err != nil {
					return nil, err
				}
			}
		}
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no testdata sources (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		p, err := parse.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if err := add(filepath.Base(f)+" m=16 N=4", p, 16, 4); err != nil {
			return nil, err
		}
	}
	// sor at m = 6 on 8 processors is too small to fit from any floor
	// PlanFor tries: its payload carries the declined fit's diagnostic,
	// "... not polynomial of degree <= 3 ..." with the < escaped.
	if err := add("sor m=6 N=8 (fit declined)", ir.SOR(), 6, 8); err != nil {
		return nil, err
	}
	if !bytes.Contains(out[len(out)-1].payload, []byte(`"fitErr":"`)) {
		return nil, fmt.Errorf("sor m=6 N=8 was fitted; the corpus needs a fit diagnostic")
	}
	c := core.NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": 16}, 4)
	pe, err := core.NewPlanEvaluator(c)
	if err != nil {
		return nil, err
	}
	payload, err := sweep.PlanPayload(pe, "")
	if err != nil {
		return nil, err
	}
	return append(out, storedPlan{"gauss m=16 N=4 (unfitted)", payload, c.Program, pe}), nil
}

// mutatedPlans is every way an input can deviate from a stored payload:
// in layout, key order and repetition, unknown fields, number form,
// nulls, empty values, string escapes, types and length. fitted is a
// fitted plan with a change fit (so a null at chgFits[0]), declined one
// with a fitErr. Most mutations replace one value and keep the rest of
// the rendering, so the canonical reader reads them as far as the value.
// truncStride spaces the truncations of declined; 1 cuts it at every
// offset.
func mutatedPlans(tb testing.TB, fitted, declined []byte, truncStride int) [][]byte {
	tb.Helper()
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// edit replaces the first old in plan by new.
	edit := func(plan []byte, old, new string) []byte {
		if !bytes.Contains(plan, []byte(old)) {
			tb.Fatalf("plan has no %s to mutate: %s", old, plan)
		}
		return bytes.Replace(plan, []byte(old), []byte(new), 1)
	}
	// set replaces the value of the first field key in plan by value.
	set := func(plan []byte, key, value string) []byte {
		k := bytes.Index(plan, []byte(`"`+key+`":`))
		if k < 0 {
			tb.Fatalf("plan has no %s to mutate: %s", key, plan)
		}
		start := k + len(key) + 3
		dec := json.NewDecoder(bytes.NewReader(plan[start:]))
		var old json.RawMessage
		if err := dec.Decode(&old); err != nil {
			tb.Fatal(err)
		}
		return join(plan[:start], []byte(value), plan[start+int(dec.InputOffset()):])
	}
	f := func(key, value string) []byte { return set(fitted, key, value) }
	d := func(value string) []byte { return set(declined, "fitErr", value) }
	var indented bytes.Buffer
	if err := json.Indent(&indented, fitted, "", "  "); err != nil {
		tb.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(fitted, &m); err != nil {
		tb.Fatal(err)
	}
	reordered, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	out := [][]byte{
		// Layout.
		indented.Bytes(),
		join([]byte(" "), fitted),
		join(fitted, []byte("\n")),
		bytes.ReplaceAll(fitted, []byte(`":`), []byte(`": `)),
		edit(fitted, `,"segments":`, ` ,"segments":`),
		f("Diffs", `[ 1,2]`),
		// Key order, repetition, spelling, unknown fields.
		reordered,
		edit(fitted, `{"schema":`, `{"baseM":16,"schema":`),
		edit(fitted, `{"schema":`, `{"schema":1,"schema":`),
		edit(fitted, `"Period":`, `"Period":1,"Period":`),
		edit(fitted, `"baseM"`, `"basem"`),
		edit(fitted, `"TotalFlops"`, `"totalflops"`),
		edit(fitted, `{"schema":`, `{"extra":[1,{"a":null}],"schema":`),
		edit(fitted, `"den":`, `"was":{},"den":`),
		edit(fitted, `"cyclic":`, `"note":"x","cyclic":`),
		edit(fitted, `"Diffs":`, `"Extra":true,"Diffs":`),
		edit(fitted, `,"fitMinM":`, `,"zzz":0,"fitMinM":`),
		join(bytes.TrimSuffix(fitted, []byte("}")), []byte(`,"fitErr":"late"}`)),
		join(bytes.TrimSuffix(fitted, []byte("}")), []byte(`,"fitMinM":1}`)),
		edit(fitted, `,"fitMinM":`, `,"fitErr":"early","fitMinM":`),
		// Number forms.
		f("schema", `2.0`), f("schema", `2e0`), f("schema", `2E+0`), f("schema", `-0`), f("schema", `02`),
		f("schema", `-`), f("schema", `--2`), f("schema", `+2`), f("schema", `"2"`),
		f("schema", `99999999999999999999`), f("schema", `-9223372036854775808`),
		f("schema", `9223372036854775807`), f("schema", `9223372036854775808`),
		f("schema", `-9223372036854775809`), f("schema", `999999999999999999`), f("schema", `-999999999999999999`),
		f("den", `1e2`), f("den", `1.0`), f("den", `-0`), f("den", `0`), f("den", `-7`),
		f("den", `9223372036854775807`), f("den", `9223372036854775808`),
		f("Diffs", `[1.0,2]`), f("Diffs", `[-0]`), f("Diffs", `[007]`), f("Diffs", `[-9223372036854775809]`),
		f("Diffs", `[-9223372036854775808,9223372036854775807]`), f("Diffs", `[+1]`), f("Diffs", `[1,,2]`),
		f("Diffs", `[1,]`), f("Diffs", `[,1]`), f("Diffs", `[1 2]`), f("Diffs", `["1"]`), f("Diffs", `[null]`),
		f("minimumCost", `1e400`), f("minimumCost", `-0`), f("minimumCost", `1.50E+2`), f("minimumCost", `5e-324`),
		f("minimumCost", `-1.7976931348623157e308`), f("minimumCost", `0.`), f("minimumCost", `.5`),
		f("minimumCost", `1e`), f("minimumCost", `1e+`), f("minimumCost", `00`), f("minimumCost", `0.0e-0`),
		f("minimumCost", `-`), f("minimumCost", `"1"`), f("minimumCost", `null`), f("minimumCost", `1.`),
		f("m", `123456789012345678901234567890`), f("changeIn", `1E-7`),
		// Nulls, empty values, and values of the wrong type.
		[]byte(`null`), []byte(`{}`),
		f("schema", `null`), f("baseM", `true`),
		f("segments", `null`), f("segments", `[]`), f("segments", `{}`), f("segments", `[null]`), f("segments", `[{}]`),
		f("assign", `null`), f("assign", `[]`), f("assign", `[null]`), f("assign", `[{"array":"A","dim":0}]`),
		f("shape", `null`), f("shape", `[]`), f("shape", `[1]`), f("shape", `[1,2,3]`), f("shape", `[1,null]`),
		f("cyclic", `null`), f("cyclic", `0`), f("cyclic", `fals`), f("cyclic", `true`), f("cyclic", `"true"`),
		f("execFits", `null`), f("execFits", `[]`), f("execFits", `[null,null]`), f("execFits", `[5]`), f("execFits", `{}`),
		f("chgFits", `null`), f("chgFits", `[]`), f("chgFits", `[null,null]`), f("chgFits", `[{}]`),
		f("TotalFlops", `null`), f("TotalFlops", `{}`), f("TotalFlops", `[]`),
		f("Pieces", `null`), f("Pieces", `[]`), f("Pieces", `[null]`), f("Pieces", `[{}]`),
		f("Diffs", `null`), f("Diffs", `[]`), f("Diffs", `{}`),
		f("maxNum", `null`), f("words", `null`), f("den", `null`),
		f("fitMinM", `null`), f("fitMinM", `0`), f("fitMinM", `"16"`),
		// Strings.
		d(`null`), d(`""`), d(`5`), d(`"plain ascii"`),
		d(`"\u003e\u0026\/\b\f\n\r\t\"\\\u00e9\u2028 é ✓ end"`),
		d(`"\u003C\u00E9"`), d(`"\ud83d\ude00"`), d(`"\ud800"`), d(`"\udc00\ud800"`), d(`"\ud800x"`),
		d(`"\u00"`), d(`"\u00"}`), d(`"\uZZZZ"`), d(`"\u+041"`), d(`"\x"`), d(`"\`),
		d("\"\xff\xfe\""), d("\"\xe2\x82\""), d("\"\xed\xa0\x80\""), d("\"\x01\""), d("\"\x7f\""), d("\"tab\there\""),
		d(`"unterminated`),
		f("array", `"\u0041"`), f("array", `"é"`), f("array", `7`), f("array", `null`),
		// Other values and trailing bytes.
		[]byte(``), []byte(` `), []byte(`[]`), []byte(`3`), []byte(`"plan"`), []byte(`true`), []byte(`{"schema":2}`),
		join(fitted, []byte("}")), join(fitted, []byte(" x")), join(fitted, fitted),
	}
	for cut := 0; cut < len(declined); cut += truncStride {
		out = append(out, declined[:cut])
	}
	return out
}

// corpusPlans picks the mutation bases: the smallest fitted plan with a
// change fit, and the plan with a fit diagnostic.
func corpusPlans(tb testing.TB) (all [][]byte, fitted, declined []byte) {
	tb.Helper()
	for _, sp := range storedPlans(tb) {
		all = append(all, sp.payload)
		if bytes.Contains(sp.payload, []byte(`"chgFits":[null,{`)) && (fitted == nil || len(sp.payload) < len(fitted)) {
			fitted = sp.payload
		}
		if bytes.Contains(sp.payload, []byte(`"fitErr":"`)) {
			declined = sp.payload
		}
	}
	if fitted == nil || declined == nil {
		tb.Fatal("the stored plans lack a fitted plan with a change fit or a plan with a fit diagnostic")
	}
	return all, fitted, declined
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkReadMatchesReflect reads data through json.Unmarshal and through
// UnmarshalJSON called directly, into a zero plan and into a used one, and
// fails unless each result and error text is encoding/json's own.
func checkReadMatchesReflect(t *testing.T, data []byte) {
	t.Helper()
	used := func() core.FrozenPlan { return core.FrozenPlan{Schema: 9, FitErr: "left over"} }
	for _, start := range []func() core.FrozenPlan{func() core.FrozenPlan { return core.FrozenPlan{} }, used} {
		want := start()
		wantErr := core.ReflectUnmarshal(data, &want)
		viaJSON, direct := start(), start()
		for _, got := range []struct {
			how string
			fp  *core.FrozenPlan
			err error
		}{
			{"json.Unmarshal", &viaJSON, json.Unmarshal(data, &viaJSON)},
			{"UnmarshalJSON", &direct, direct.UnmarshalJSON(data)},
		} {
			if errText(got.err) != errText(wantErr) {
				t.Fatalf("%s of %q into %+v:\n error %v\n encoding/json: %v", got.how, data, start(), got.err, wantErr)
			}
			if !reflect.DeepEqual(*got.fp, want) {
				t.Fatalf("%s of %q into %+v:\n read %+v\n encoding/json: %+v", got.how, data, start(), *got.fp, want)
			}
		}
	}
}

// TestPlanReadMatchesReflect: every stored payload and every mutation of
// one reads to the plan, or fails with the error text, of encoding/json;
// and every payload PlanPayload writes is read by the canonical reader,
// not the fallback.
func TestPlanReadMatchesReflect(t *testing.T) {
	all, fitted, declined := corpusPlans(t)
	for _, data := range append(all, mutatedPlans(t, fitted, declined, 1)...) {
		checkReadMatchesReflect(t, data)
	}
	for _, sp := range storedPlans(t) {
		if !core.ReadPlan(sp.payload, new(core.FrozenPlan)) {
			t.Errorf("%s: the stored payload took the fallback: %s", sp.name, sp.payload)
		}
	}
	if !strings.Contains(string(declined), `\u003c`) {
		t.Errorf("the fit diagnostic is stored without the escape json.Marshal writes: %s", declined)
	}
}

func FuzzPlanRead(f *testing.F) {
	all, fitted, declined := corpusPlans(f)
	for _, data := range append(all, mutatedPlans(f, fitted, declined, 16)...) {
		f.Add(data)
	}
	f.Fuzz(checkReadMatchesReflect)
}
