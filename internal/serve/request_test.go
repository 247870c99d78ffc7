package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

var (
	payloadsOnce sync.Once
	payloads     map[string][]byte
	payloadsErr  error
)

// storedPayload is the payload GET /plan serves for prog at (m, n): the
// bytes PlanPayload writes. The few the request corpus needs are built
// once per test binary.
func storedPayload(tb testing.TB, prog string, m, n int) []byte {
	tb.Helper()
	payloadsOnce.Do(func() {
		payloads = map[string][]byte{}
		for _, pc := range []struct {
			prog string
			m, n int
		}{{"jacobi", 16, 4}, {"sor", 16, 4}, {"gauss", 16, 4}, {"matmul", 16, 4}, {"gauss", 32, 16}} {
			p, _ := ir.Builtin(pc.prog)
			c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": pc.m}, pc.n)
			pe, fitErr, _, err := sweep.PlanFor(c, pc.m, sweep.Options{})
			if err == nil {
				payloads[fmt.Sprintf("%s %d %d", pc.prog, pc.m, pc.n)], err = sweep.PlanPayload(pe, fitErr)
			}
			if err != nil {
				payloadsErr = fmt.Errorf("%s m=%d n=%d: %w", pc.prog, pc.m, pc.n, err)
				return
			}
		}
	})
	if payloadsErr != nil {
		tb.Fatal(payloadsErr)
	}
	payload, ok := payloads[fmt.Sprintf("%s %d %d", prog, m, n)]
	if !ok {
		tb.Fatalf("no stored payload for %s m=%d n=%d", prog, m, n)
	}
	return payload
}

// requestBodies is the corpus of write-route bodies: every body of the
// install and compile tables in server_test.go; the bodies json.Marshal
// writes for every builtin, with and without a plan; and those bodies
// with their keys reordered, upper-cased or repeated, with whitespace,
// escaped strings, long, signed and fractional numbers, a null plan,
// trailing bytes, and past the size limit.
func requestBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var out []string
	for _, tc := range malformedInstalls(tb, storedPayload(tb, "jacobi", 16, 4)) {
		out = append(out, tc.body)
	}
	gauss := storedPayload(tb, "gauss", 32, 16)
	for _, tc := range poisonedPlans(tb, gauss) {
		out = append(out,
			fmt.Sprintf(`{"prog":"gauss","m":32,"n":16,"plan":%s}`, tc.plan),
			fmt.Sprintf(`{"prog":"gauss","m":32,"n":16,"plan":%s}`, reorderPlan(tb, tc.plan)))
	}
	for _, tc := range badCompiles(tb) {
		out = append(out, tc.body)
	}
	out = append(out, trailingBodies...)
	out = append(out, `{"prog":"jacobi","m":-1,"n":4}`)

	install := func(prog string, m, n int, plan []byte) string {
		raw, err := json.Marshal(InstallRequest{CompileRequest{Prog: prog, M: m, N: n}, plan})
		if err != nil {
			tb.Fatal(err)
		}
		return string(raw)
	}
	for _, prog := range []string{"jacobi", "sor", "gauss", "matmul"} {
		compile, err := json.Marshal(CompileRequest{Prog: prog, M: 16, N: 4})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, string(compile), install(prog, 16, 4, storedPayload(tb, prog, 16, 4)))
	}
	plan := string(storedPayload(tb, "sor", 16, 4))
	canonical := install("sor", 16, 4, []byte(plan))
	// edit replaces the first old in the canonical install body by new.
	edit := func(old, new string) string {
		if !strings.Contains(canonical, old) {
			tb.Fatalf("no %s in %s", old, canonical)
		}
		return strings.Replace(canonical, old, new, 1)
	}
	head := `{"prog":"sor","m":16,"n":4`
	out = append(out,
		// Key order, case and repetition.
		`{"m":16,"n":4,"prog":"sor","plan":`+plan+`}`,
		`{"prog":"sor","n":4,"m":16,"plan":`+plan+`}`,
		`{"plan":`+plan+`,"prog":"sor","m":16,"n":4}`,
		edit(`"prog"`, `"PROG"`), edit(`"m":`, `"M":`), edit(`"plan"`, `"Plan"`),
		edit(`{"prog":"sor"`, `{"prog":"jacobi","prog":"sor"`),
		edit(`,"m":16`, `,"m":16,"m":16`), edit(`,"n":4`, `,"n":8,"n":4`),
		head+`,"plan":`+plan+`,"plan":`+plan+`}`,
		head+`,"plan":`+plan+`,"prog":"gauss"}`,
		head+`,"source":"","plan":`+plan+`}`,
		// Whitespace.
		` `+canonical, canonical+` `, canonical+"\n", canonical+"\t\r\n ",
		edit(`"prog":`, `"prog" : `), edit(`"plan":`, `"plan": `),
		edit(`,"n":4`, `, "n":4`), strings.TrimSuffix(canonical, "}")+" }",
		// Strings.
		edit(`"sor"`, `"\u0073or"`), edit(`"sor"`, `"so\r"`), edit(`"sor"`, `"s\"or"`),
		edit(`"sor"`, `"sör"`), edit(`"sor"`, "\"s\xffr\""), edit(`"sor"`, "\"s\tr\""),
		edit(`"sor"`, `""`), edit(`"sor"`, `"sor`), edit(`"sor"`, `sor`), edit(`"sor"`, `null`),
		edit(`"prog"`, `"pr\u006fg"`),
		// Numbers.
		edit(`"m":16`, `"m":99999999999999999999`), edit(`"m":16`, `"m":999999999999999999`),
		edit(`"m":16`, `"m":9223372036854775807`), edit(`"m":16`, `"m":9223372036854775808`),
		edit(`"m":16`, `"m":-16`), edit(`"n":4`, `"n":-4`), edit(`"m":16`, `"m":-0`),
		edit(`"m":16`, `"m":016`), edit(`"m":16`, `"m":0`), edit(`"m":16`, `"m":16.0`),
		edit(`"m":16`, `"m":1.6e1`), edit(`"m":16`, `"m":"16"`), edit(`"m":16`, `"m":+16`),
		edit(`"n":4`, `"n":4.5`), edit(`"n":4`, `"n":null`), edit(`"m":16`, `"m":`),
		// Plans.
		head+`,"plan":null}`, head+`,"plan":}`, head+`,"plan":{}}`, head+`,"plan":[]}`,
		head+`,"plan":"`+plan+`"}`, head+`,"plan":`+plan+`}}`, head+`,"plan":`+plan,
		head+`,"plan":`+plan+`,"x":1}`, head+`,"plan":`+strings.TrimSuffix(plan, "}")+`}`,
		head+`,"plan":`+plan[:len(plan)/2]+`}`, head+`,"plan":`+plan+plan+`}`,
		// Trailing bytes and other values.
		canonical+`x`, canonical+`}`, canonical+canonical, canonical+`null`,
		``, ` `, `{}`, `[]`, `null`, `"x"`, `{"prog":"sor"}`, `{"m":16,"n":4}`,
		head, head+`,`, head+`}`, head+`,}`,
		// Past the size limit: a canonical envelope, and a plan followed by
		// whitespace.
		`{"prog":"`+strings.Repeat("s", maxBodyKB<<10)+`","m":16,"n":4}`,
		strings.TrimSuffix(canonical, "}")+strings.Repeat(" ", maxBodyKB<<10)+`}`,
	)
	bodies := make([][]byte, len(out))
	for i, body := range out {
		bodies[i] = []byte(body)
	}
	return bodies
}

// checkRequestRead reads body as both write routes do and as
// encoding/json does — decodeRequest on the stream, then the plan's
// UnmarshalJSON — and fails unless the two agree on the status, the
// error body, the decoded request and the plan or its error text. The
// reader runs twice, with the body's length known and unknown.
func checkRequestRead(t *testing.T, body []byte) {
	t.Helper()
	for _, install := range []bool{false, true} {
		var want InstallRequest
		var into any = &want.CompileRequest
		if install {
			into = &want
		}
		wantRec := httptest.NewRecorder()
		wantOK := decodeRequest(wantRec, io.NopCloser(bytes.NewReader(body)), into)
		for _, length := range []int64{int64(len(body)), -1} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			r.ContentLength = length
			rec := httptest.NewRecorder()
			var got request
			ok := readRequest(rec, r, &got, install)
			if ok != wantOK || rec.Code != wantRec.Code || rec.Body.String() != wantRec.Body.String() {
				t.Fatalf("install=%t length=%d %.300q:\n read %t %d %s\n encoding/json %t %d %s",
					install, length, body, ok, rec.Code, rec.Body, wantOK, wantRec.Code, wantRec.Body)
			}
			if !ok {
				continue
			}
			if got.CompileRequest != want.CompileRequest || !bytes.Equal(got.Plan, want.Plan) {
				t.Fatalf("install=%t length=%d %.300q:\n read %+v plan %.100q\n encoding/json %+v plan %.100q",
					install, length, body, got.CompileRequest, got.Plan, want.CompileRequest, want.Plan)
			}
			if len(want.Plan) == 0 {
				continue
			}
			var wantPlan core.FrozenPlan
			wantErr := wantPlan.UnmarshalJSON(want.Plan)
			gotPlan, gotErr := got.frozenPlan()
			if errText(gotErr) != errText(wantErr) || gotErr == nil && !reflect.DeepEqual(*gotPlan, wantPlan) {
				t.Fatalf("install=%t length=%d %.300q:\n plan error %v\n encoding/json: %v", install, length, body, gotErr, wantErr)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestRequestReadMatchesDecoder: on every body of the corpus the reader
// answers what encoding/json answers, and the bodies json.Marshal writes
// are read by the envelope, not decoded.
func TestRequestReadMatchesDecoder(t *testing.T) {
	for _, body := range requestBodies(t) {
		checkRequestRead(t, body)
	}
	for _, prog := range []string{"jacobi", "sor", "gauss", "matmul"} {
		plan := storedPayload(t, prog, 16, 4)
		for _, tc := range []struct {
			req     any
			install bool
		}{
			{CompileRequest{Prog: prog, M: 16, N: 4}, false},
			{InstallRequest{CompileRequest{Prog: prog, M: 16, N: 4}, plan}, true},
		} {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			var req request
			if !readEnvelope(body, &req, tc.install) || tc.install != req.planRead {
				t.Errorf("%s: the envelope declined %.200s", prog, body)
			}
		}
	}
}

func FuzzRequestRead(f *testing.F) {
	for _, body := range requestBodies(f) {
		f.Add(body)
	}
	f.Fuzz(checkRequestRead)
}
