// Reading a stored plan back. A plan payload is always the bytes
// json.Marshal writes for a FrozenPlan — a few hundred fitted polynomials
// behind a small envelope — and every warm POST /compile, plan install
// and prewarm reads one. UnmarshalJSON reads exactly that byte form in
// one pass, integers read digit by digit and the fits carved from a few
// shared chunks, and hands every other input to the reflective decoder,
// so the language accepted and every error text are encoding/json's.
// This is the only code that knows the byte form; the writer is
// encoding/json's, driven by the struct tags in freeze.go.
package core

import (
	"encoding/json"
	"reflect"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"dmcc/internal/cost"
)

// UnmarshalJSON decodes a FrozenPlan. Callers holding a stored payload
// call it directly rather than through json.Unmarshal, which would scan
// the whole payload for validity before handing it over: the canonical
// reader accepts only well-formed JSON, and the fallback checks the rest.
// A plan that is not the zero value also takes the fallback, which merges
// into it the way encoding/json does.
func (fp *FrozenPlan) UnmarshalJSON(data []byte) error {
	if reflect.ValueOf(fp).Elem().IsZero() && ReadPlan(data, fp) {
		return nil
	}
	type plan = FrozenPlan
	type FrozenPlan plan // this struct without this method; the name keeps json's error texts
	return json.Unmarshal(data, (*FrozenPlan)(fp))
}

// ReadPlan reads json.Marshal's rendering of a FrozenPlan into fp and
// reports whether data was that rendering; fp is written only if it was.
// It is UnmarshalJSON's canonical reader without the fallback, for a
// caller that falls back through encoding/json itself: what it reads is
// what encoding/json reads from the same bytes.
func ReadPlan(data []byte, fp *FrozenPlan) bool {
	// The chunks are sized from the payload: the builtin kernels' plans
	// spend 11-32 bytes on a difference and 45-130 on a piece, so they are
	// seldom outgrown.
	r := planReader{
		b:      data,
		diffs:  make([]int64, 0, len(data)/11),
		pieces: make([]cost.Poly, 0, len(data)/44),
	}
	var out FrozenPlan
	r.lit(`{"schema":`)
	out.Schema = int(r.integer(strconv.IntSize))
	r.lit(`,"baseM":`)
	out.BaseM = int(r.integer(strconv.IntSize))
	r.lit(`,"minimumCost":`)
	out.MinimumCost = r.float()
	r.lit(`,"wholeCost":`)
	out.WholeCost = r.float()
	r.lit(`,"loopCarried":`)
	out.LoopCarried = r.float()
	r.lit(`,"segments":`)
	out.Segments = list(&r, r.segment)
	if r.key(`,"execFits":`) {
		out.ExecFits = list(&r, r.counts)
	}
	if r.key(`,"lcFits":`) {
		out.LCFits = list(&r, r.counts)
	}
	if r.key(`,"chgFits":`) {
		out.ChgFits = list(&r, r.loads)
	}
	if r.key(`,"fitMinM":`) {
		out.FitMinM = int(r.integer(strconv.IntSize))
	}
	if r.key(`,"fitErr":`) {
		out.FitErr = r.str()
	}
	r.lit("}")
	if r.bad || r.i != len(r.b) {
		return false
	}
	*fp = out
	return true
}

// planReader is the cursor of ReadPlan: fields in declaration order under
// their tags (the fits' polynomials under their Go names), omitempty
// fields absent or present, no whitespace, integers in canonical decimal.
// bad is sticky; once set the input is not that rendering, and whatever
// was read is discarded.
type planReader struct {
	b   []byte
	i   int
	bad bool
	// The fits' pieces and difference vectors are carved from these: a
	// plan has hundreds of each, and two shared allocations replace one
	// each. Carved slices are capped at their length, so nothing appended
	// to one reaches its neighbour.
	diffs  []int64
	pieces []cost.Poly
}

// lit consumes the literal s, which must come next.
func (r *planReader) lit(s string) {
	if !r.key(s) {
		r.bad = true
	}
}

// key consumes the literal s if it comes next: an omitempty field.
func (r *planReader) key(s string) bool {
	if r.bad || len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// next consumes the byte c if it comes next.
func (r *planReader) next(c byte) bool {
	if r.bad || r.i >= len(r.b) || r.b[r.i] != c {
		return false
	}
	r.i++
	return true
}

func (r *planReader) null() bool { return r.key("null") }

// array reads null (reporting false) or an array, calling elem at each
// element.
func (r *planReader) array(elem func()) bool {
	if r.null() {
		return false
	}
	r.lit("[")
	if r.next(']') {
		return true
	}
	for !r.bad {
		elem()
		if !r.next(',') {
			break
		}
	}
	r.lit("]")
	return true
}

// list reads null (nil) or an array of what elem reads; an empty array is
// an empty slice, not nil, as encoding/json decodes it.
func list[T any](r *planReader, elem func() T) (out []T) {
	if r.array(func() { out = append(out, elem()) }) && out == nil {
		out = []T{}
	}
	return out
}

// integer reads -?(0|[1-9][0-9]*) that fits a signed integer of the given
// width. A fraction or an exponent, which encoding/json refuses for an
// integer field in its own words, fails the literal that must follow.
func (r *planReader) integer(bits uint) int64 {
	if r.bad {
		return 0
	}
	b, tok := r.b, r.i
	neg := tok < len(b) && b[tok] == '-'
	start := tok
	if neg {
		start++
	}
	i, u := start, uint64(0)
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0') // exact up to 19 digits, checked below
	}
	r.i = i
	if n := i - start; n == 0 || n > 1 && b[start] == '0' {
		r.bad = true
		return 0
	} else if limit := uint64(1)<<(bits-1) - 1; n > 18 || u > limit {
		// Near or past the limit: let strconv decide.
		v, err := strconv.ParseInt(string(b[tok:i]), 10, int(bits))
		r.bad = err != nil
		return v
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// digits consumes [0-9]* and reports how many it consumed.
func (r *planReader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// float reads a JSON number that fits a float64; the plan's few floats
// (three costs and two per segment) go through strconv.
func (r *planReader) float() float64 {
	if r.bad {
		return 0
	}
	start := r.i
	r.next('-')
	if n := r.digits(); n == 0 || n > 1 && r.b[r.i-n] == '0' {
		r.bad = true
		return 0
	}
	if r.next('.') && r.digits() == 0 {
		r.bad = true
		return 0
	}
	if r.next('e') || r.next('E') {
		if !r.next('+') {
			r.next('-')
		}
		if r.digits() == 0 {
			r.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.i]), 64)
	if err != nil {
		r.bad = true // out of range: encoding/json's error
	}
	return f
}

func (r *planReader) bool() bool {
	if r.key("true") {
		return true
	}
	r.lit("false")
	return false
}

// str reads a JSON string. json.Marshal escapes quotes, backslashes,
// control characters and <, >, & (a fit diagnostic's "degree <= 3" is
// stored as "degree \u003c= 3"); raw bytes must be valid UTF-8, and a
// surrogate escape takes the fallback, which pairs or replaces it.
func (r *planReader) str() string {
	r.lit(`"`)
	if r.bad {
		return ""
	}
	start := r.i
	for r.i < len(r.b) && r.b[r.i] != '"' && r.b[r.i] != '\\' && r.b[r.i] >= 0x20 && r.b[r.i] < utf8.RuneSelf {
		r.i++
	}
	if r.next('"') {
		return string(r.b[start : r.i-1])
	}
	buf := append([]byte(nil), r.b[start:r.i]...)
	for !r.bad && r.i < len(r.b) {
		c := r.b[r.i]
		switch {
		case c == '"':
			r.i++
			return string(buf)
		case c < 0x20:
			r.bad = true
		case c == '\\':
			buf = r.escape(buf)
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			r.i++
		default:
			rn, size := utf8.DecodeRune(r.b[r.i:])
			if rn == utf8.RuneError && size == 1 {
				r.bad = true // encoding/json would substitute U+FFFD
				break
			}
			buf = append(buf, r.b[r.i:r.i+size]...)
			r.i += size
		}
	}
	r.bad = true
	return ""
}

// escape appends the character of the escape sequence at the cursor.
func (r *planReader) escape(buf []byte) []byte {
	if len(r.b)-r.i < 2 {
		r.bad = true
		return buf
	}
	c := r.b[r.i+1]
	r.i += 2
	switch c {
	case '"', '\\', '/':
		return append(buf, c)
	case 'b':
		return append(buf, '\b')
	case 'f':
		return append(buf, '\f')
	case 'n':
		return append(buf, '\n')
	case 'r':
		return append(buf, '\r')
	case 't':
		return append(buf, '\t')
	case 'u':
		if len(r.b)-r.i >= 4 {
			if v, err := strconv.ParseUint(string(r.b[r.i:r.i+4]), 16, 16); err == nil && !utf16.IsSurrogate(rune(v)) {
				r.i += 4
				return utf8.AppendRune(buf, rune(v))
			}
		}
	}
	r.bad = true
	return buf
}

func (r *planReader) segment() FrozenSegment {
	var s FrozenSegment
	r.lit(`{"start":`)
	s.Start = int(r.integer(strconv.IntSize))
	r.lit(`,"len":`)
	s.Len = int(r.integer(strconv.IntSize))
	r.lit(`,"shape":[`)
	s.Shape[0] = int(r.integer(strconv.IntSize))
	r.lit(`,`)
	s.Shape[1] = int(r.integer(strconv.IntSize))
	r.lit(`],"cyclic":`)
	s.Cyclic = r.bool()
	r.lit(`,"assign":`)
	s.Assign = list(r, r.assign)
	r.lit(`,"m":`)
	s.M = r.float()
	r.lit(`,"changeIn":`)
	s.Change = r.float()
	r.lit("}")
	return s
}

func (r *planReader) assign() FrozenAssign {
	var a FrozenAssign
	r.lit(`{"array":`)
	a.Array = r.str()
	r.lit(`,"dim":`)
	a.Dim = int(r.integer(strconv.IntSize))
	r.lit(`,"subset":`)
	a.Subset = int(r.integer(strconv.IntSize))
	r.lit("}")
	return a
}

// counts reads one nest's fits; the counts and their six polynomials are
// one allocation.
func (r *planReader) counts() *cost.SymbolicCounts {
	if r.null() {
		return nil
	}
	blk := new(struct {
		sc cost.SymbolicCounts
		pp [6]cost.PiecewisePoly
	})
	sc := &blk.sc
	r.lit(`{"TotalFlops":`)
	sc.TotalFlops = r.poly(&blk.pp[0])
	r.lit(`,"MaxProcFlops":`)
	sc.MaxProcFlops = r.poly(&blk.pp[1])
	r.lit(`,"RemoteWords":`)
	sc.RemoteWords = r.poly(&blk.pp[2])
	r.lit(`,"ReduceWords":`)
	sc.ReduceWords = r.poly(&blk.pp[3])
	r.lit(`,"MaxProcIn":`)
	sc.MaxProcIn = r.poly(&blk.pp[4])
	r.lit(`,"MaxProcOut":`)
	sc.MaxProcOut = r.poly(&blk.pp[5])
	r.lit("}")
	return sc
}

// loads reads one scheme change's fits, one allocation with its two
// polynomials.
func (r *planReader) loads() *cost.SymbolicLoads {
	if r.null() {
		return nil
	}
	blk := new(struct {
		sl cost.SymbolicLoads
		pp [2]cost.PiecewisePoly
	})
	sl := &blk.sl
	r.lit(`{"maxNum":`)
	sl.MaxNum = r.poly(&blk.pp[0])
	r.lit(`,"words":`)
	sl.Words = r.poly(&blk.pp[1])
	r.lit(`,"den":`)
	sl.Den = r.integer(64)
	r.lit("}")
	return sl
}

// poly reads one fitted polynomial into pp, or null (nil). Its pieces and
// their differences are appended to the reader's chunks and carved off
// when complete; an append that outgrows a chunk moves the rest of the
// reader onto a new one, and what was carved before stays where it is.
func (r *planReader) poly(pp *cost.PiecewisePoly) *cost.PiecewisePoly {
	if r.null() {
		return nil
	}
	r.lit(`{"Period":`)
	pp.Period = int(r.integer(strconv.IntSize))
	r.lit(`,"MinM":`)
	pp.MinM = int(r.integer(strconv.IntSize))
	r.lit(`,"Pieces":`)
	first := len(r.pieces)
	if r.array(r.piece) {
		pp.Pieces = r.pieces[first:len(r.pieces):len(r.pieces)]
	}
	r.lit("}")
	return pp
}

func (r *planReader) piece() {
	var p cost.Poly
	r.lit(`{"M0":`)
	p.M0 = int(r.integer(strconv.IntSize))
	r.lit(`,"Step":`)
	p.Step = int(r.integer(strconv.IntSize))
	r.lit(`,"Diffs":`)
	if !r.null() {
		// array, unrolled: this is the innermost loop of the read.
		first := len(r.diffs)
		r.lit("[")
		if !r.next(']') {
			for {
				r.diffs = append(r.diffs, r.integer(64))
				if !r.next(',') {
					break
				}
			}
			r.lit("]")
		}
		p.Diffs = r.diffs[first:len(r.diffs):len(r.diffs)]
	}
	r.lit("}")
	r.pieces = append(r.pieces, p)
}
