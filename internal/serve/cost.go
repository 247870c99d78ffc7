// The GET /cost read path. A fitted price is a few hundred nanoseconds of
// arithmetic, so the handler around it does no work a request does not
// need: costQuery reads the two parameters in one pass over the raw query,
// without building url.Values, and writeCost writes the reply's byte form
// without reflection. Both answer exactly what url.ParseQuery and
// encoding/json's Encoder answer.
package serve

import (
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// costQuery is url.ParseQuery(raw)'s Get("key") and Get("m"). A pair
// needing no unescaping is sliced out of raw, so a plain query allocates
// nothing.
func costQuery(raw string) (key, m string) {
	var haveKey, haveM bool
	for raw != "" && !(haveKey && haveM) {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		// ParseQuery skips an empty pair, one with a semicolon and one
		// that does not unescape.
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, ok := queryUnescape(k)
		switch {
		case !ok:
		case k == "key" && !haveKey:
			key, haveKey = queryUnescape(v)
		case k == "m" && !haveM:
			m, haveM = queryUnescape(v)
		}
	}
	return key, m
}

// queryUnescape is url.QueryUnescape, without a copy when s has nothing
// to unescape; ok is false where it errs.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// appendJSON appends the bytes encoding/json's Encoder writes for rep,
// the trailing newline included, and reports whether it could: a NaN or
// an infinite float has no JSON form.
func (rep *CostReport) appendJSON(b []byte) ([]byte, bool) {
	for _, f := range [...]float64{rep.Exec, rep.Redist, rep.LoopCarried, rep.Total} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, false
		}
	}
	b = strconv.AppendInt(append(b, `{"m":`...), int64(rep.M), 10)
	b = appendFloat(append(b, `,"exec":`...), rep.Exec)
	b = appendFloat(append(b, `,"redist":`...), rep.Redist)
	b = appendFloat(append(b, `,"loopCarried":`...), rep.LoopCarried)
	b = appendFloat(append(b, `,"total":`...), rep.Total)
	b = strconv.AppendInt(append(b, `,"evalNs":`...), rep.EvalNs, 10)
	return append(b, "}\n"...), true
}

// appendFloat is encoding/json's form of a finite float64: like %g, but
// with exponents only below 1e-6 and from 1e21, unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-09 becomes e-9
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// replies are writeCost's reply buffers: the bytes escape through Write,
// so a buffer on the stack would be allocated per reply.
var replies = sync.Pool{New: func() any { return new([160]byte) }}

// writeCost writes rep as writeJSON would, the 500 of a float without a
// JSON form included.
func writeCost(w http.ResponseWriter, rep CostReport) {
	buf := replies.Get().(*[160]byte)
	defer replies.Put(buf)
	b, ok := rep.appendJSON(buf[:0])
	if !ok {
		writeJSON(w, rep)
		return
	}
	w.Header()["Content-Type"] = jsonType
	w.Write(b)
}
