// Reading a write route's body. Almost every POST /compile and POST /plan
// body is the bytes json.Marshal writes for the request —
// {"prog":"…","m":…,"n":…} and, on an install, a stored plan after
// "plan": — and an install's plan is most of its body. readRequest reads
// that byte form in one pass, the plan through core.ReadPlan, and hands
// every other body, and any body whose plan ReadPlan declines, to
// encoding/json: the accepted language, every error text, the 400/422
// split and the size limit are encoding/json's. This file knows the
// envelope only; the plan's byte form is core's.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"

	"dmcc/internal/core"
)

// request is a write route's body as the handler uses it: what
// encoding/json decodes from it, and the plan an install carries.
type request struct {
	InstallRequest // Plan stays empty on POST /compile
	plan           core.FrozenPlan
	planRead       bool // plan holds Plan's reading
}

// frozenPlan reads the plan the request carries; an install that reached
// it through readRequest's envelope read it there.
func (req *request) frozenPlan() (*core.FrozenPlan, error) {
	if !req.planRead {
		if err := req.plan.UnmarshalJSON(req.Plan); err != nil {
			return nil, err
		}
	}
	return &req.plan, nil
}

// readRequest reads the body of POST /plan (install) or POST /compile into
// req, or answers 400 and reports false. The body is buffered whole, up to
// the size limit, and read as the envelope; what that read declines is
// decoded by encoding/json from the buffered bytes and the rest of the
// stream, exactly as it would have been from the stream alone.
func readRequest(w http.ResponseWriter, r *http.Request, req *request, install bool) bool {
	const limit = maxBodyKB << 10
	hint := int64(0)
	if 0 < r.ContentLength && r.ContentLength <= limit {
		hint = r.ContentLength
	}
	// MinRead of slack so the read that finds EOF does not grow the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1))
	if err == nil && buf.Len() <= limit && readEnvelope(buf.Bytes(), req, install) {
		return true
	}
	body := io.NopCloser(io.MultiReader(buf, r.Body))
	if install {
		return decodeRequest(w, body, &req.InstallRequest)
	}
	return decodeRequest(w, body, &req.CompileRequest)
}

// decodeRequest decodes a compile-shaped body with encoding/json.
func decodeRequest(w http.ResponseWriter, body io.ReadCloser, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyKB<<10))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad request body: trailing data after the JSON value")
		return false
	}
	return true
}

// readEnvelope reads json.Marshal's rendering of a CompileRequest naming a
// builtin, or with install of an InstallRequest, into req and reports
// whether b was that rendering; req is written only if it was. A plan
// must be one ReadPlan reads. The program name is plain ASCII with no
// escapes and the sizes canonical decimals that fit an int, so what is
// read is what encoding/json decodes.
func readEnvelope(b []byte, req *request, install bool) bool {
	e := envelope{b: b}
	e.lit(`{"prog":"`)
	start := e.i
	for e.i < len(b) && b[e.i] >= 0x20 && b[e.i] < utf8.RuneSelf && b[e.i] != '"' && b[e.i] != '\\' {
		e.i++
	}
	prog := b[start:e.i]
	e.lit(`","m":`)
	m := e.size()
	e.lit(`,"n":`)
	n := e.size()
	var plan []byte
	if install && e.key(`,"plan":`) && len(b) > e.i {
		plan = b[e.i : len(b)-1]
		e.i = len(b) - 1
	}
	e.lit("}")
	if e.bad || e.i != len(b) {
		return false
	}
	if plan != nil && !core.ReadPlan(plan, &req.plan) {
		return false
	}
	req.Prog, req.M, req.N = string(prog), m, n
	req.Plan, req.planRead = plan, plan != nil
	return true
}

// envelope is readEnvelope's cursor; bad is sticky.
type envelope struct {
	b   []byte
	i   int
	bad bool
}

// key consumes the literal s if it comes next.
func (e *envelope) key(s string) bool {
	if e.bad || len(e.b)-e.i < len(s) || string(e.b[e.i:e.i+len(s)]) != s {
		return false
	}
	e.i += len(s)
	return true
}

// lit consumes the literal s, which must come next.
func (e *envelope) lit(s string) {
	if !e.key(s) {
		e.bad = true
	}
}

// sizeDigits is the longest decimal every value of which fits an int.
const sizeDigits = 9 + 9*(strconv.IntSize/64)

// size reads a non-negative canonical decimal of at most sizeDigits
// digits, which fits an int and reaches far past MaxM and MaxN
// (validateBinding checks those next). Anything longer, or signed, is
// left to encoding/json.
func (e *envelope) size() int {
	if e.bad {
		return 0
	}
	start, v := e.i, 0
	for e.i < len(e.b) && '0' <= e.b[e.i] && e.b[e.i] <= '9' && e.i-start < sizeDigits {
		v = v*10 + int(e.b[e.i]-'0')
		e.i++
	}
	if n := e.i - start; n == 0 || n > 1 && e.b[start] == '0' {
		e.bad = true
	}
	return v
}
