package keyspace

import (
	"math"
	"strconv"
	"strings"
)

// Matcher is a query compiled against a Space: each term's exact filter
// with its case folding, bound parsing and dimension dispatch resolved
// once, so a data node can test every element it scans without redoing
// that work. It is immutable and safe for concurrent use. Space.Matches
// and every Dimension.Matches run the same compiled terms, so there is one
// matching semantics.
type Matcher struct {
	terms []termMatch
}

// Compile compiles q for Match. A query with more terms than the space has
// dimensions matches nothing, as in Matches.
func (s *Space) Compile(q Query) Matcher {
	if len(q) > len(s.dims) {
		return Matcher{terms: []termMatch{{op: opNone}}}
	}
	m := Matcher{terms: make([]termMatch, len(q))}
	for i, t := range q {
		m.terms[i] = s.dims[i].compile(t)
	}
	return m
}

// Match reports whether an element with the given values satisfies the
// compiled query. Values shorter than the query read as empty strings.
//
//lint:allocfree
func (m *Matcher) Match(values []string) bool {
	for i := range m.terms {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		if !m.terms[i].match(v) {
			return false
		}
	}
	return true
}

// matchOp selects a compiled term's filter.
type matchOp uint8

const (
	opNone       matchOp = iota // nothing matches: an unparsable operand, or a kind the dimension does not define
	opAny                       // every value (word wildcard)
	opWordExact                 // case-folded equality with s
	opWordPrefix                // case-folded prefix s
	opWordRange                 // base-37 word value within [lo, hi]
	opNumExact                  // numeric value == flo
	opNumRange                  // numeric value within [flo, fhi] (also the numeric wildcard)
	opEnum                      // category index within [lo, hi] whose name starts with s
)

// termMatch is one term compiled against its dimension.
type termMatch struct {
	op       matchOp
	s        string         // lowercased exact word or prefix; enum name prefix
	lo, hi   uint64         // word value bounds, or enum category index bounds
	flo, fhi float64        // numeric bounds; open ends are ±Inf
	slots    int            // word digit slots
	cats     []string       // enum categories, in axis order
	index    map[string]int // enum category -> index
}

func (t *termMatch) match(v string) bool {
	switch t.op {
	case opAny:
		return true
	case opWordExact:
		v = foldInput(v, len(v))
		return len(v) == len(t.s) && equalLowerASCII(v, t.s)
	case opWordPrefix:
		v = foldInput(v, min(len(v), len(t.s)))
		return len(v) >= len(t.s) && equalLowerASCII(v[:len(t.s)], t.s)
	case opWordRange:
		v = foldInput(v, min(len(v), t.slots))
		w, bad := wordDigits(v, t.slots, 0)
		return bad < 0 && w >= t.lo && w <= t.hi
	case opNumExact, opNumRange:
		//lint:allow-allocfree strconv allocates only the error of a malformed value
		x, err := strconv.ParseFloat(trimSpace(v), 64)
		if err != nil {
			return false
		}
		if t.op == opNumExact {
			return x == t.flo
		}
		return !(x < t.flo) && !(x > t.fhi)
	case opEnum:
		i, ok := t.index[foldCategory(v)]
		if !ok || uint64(i) < t.lo || uint64(i) > t.hi {
			return false
		}
		c := t.cats[i]
		return len(c) >= len(t.s) && c[:len(t.s)] == t.s
	}
	return false
}

// foldInput returns v ready for ASCII case-insensitive comparison over its
// first n bytes: v itself when those bytes are ASCII (strings.ToLower then
// maps them byte for byte), else strings.ToLower(v), which may change
// lengths — U+212A KELVIN SIGN lowercases to "k".
func foldInput(v string, n int) string {
	for i := 0; i < n; i++ {
		if v[i] >= 0x80 {
			//lint:allow-allocfree non-ASCII input only; stored words are ASCII
			return strings.ToLower(v)
		}
	}
	return v
}

// equalLowerASCII reports whether a, with ASCII upper case folded, equals
// the already-lowercased lower. Both have the same length.
func equalLowerASCII(a, lower string) bool {
	for i := 0; i < len(a); i++ {
		c := a[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// trimSpace is strings.TrimSpace without the call when v has no ASCII
// space at either end and is ASCII (so no Unicode space either).
func trimSpace(v string) string {
	if len(v) == 0 || isASCIISpace(v[0]) || isASCIISpace(v[len(v)-1]) || !isASCII(v) {
		//lint:allow-allocfree strings.TrimSpace slices its argument
		return strings.TrimSpace(v)
	}
	return v
}

// foldCategory is the enum lookup key of v, strings.ToLower of
// strings.TrimSpace, without either call for an already canonical value.
func foldCategory(v string) string {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c >= 0x80 || ('A' <= c && c <= 'Z') {
			//lint:allow-allocfree non-canonical category spelling only
			return strings.ToLower(strings.TrimSpace(v))
		}
	}
	return trimSpace(v)
}

func isASCII(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] >= 0x80 {
			return false
		}
	}
	return true
}

func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// wordDigits reads up to slots leading characters of w as a base-37
// integer, padding the remaining slots with pad (0 for the smallest word
// with prefix w, wordRadix-1 for the largest). bad is the index of the
// first read character outside [a-zA-Z0-9], or -1.
func wordDigits(w string, slots int, pad uint64) (v uint64, bad int) {
	n := min(len(w), slots)
	for i := 0; i < n; i++ {
		dig, ok := wordDigit(w[i])
		if !ok {
			return 0, i
		}
		v = v*wordRadix + dig
	}
	for i := n; i < slots; i++ {
		v = v*wordRadix + pad
	}
	return v, -1
}

func (d WordDim) compile(t Term) termMatch {
	switch t.Kind {
	case KindWildcard:
		return termMatch{op: opAny}
	case KindExact:
		return termMatch{op: opWordExact, s: strings.ToLower(t.Value)}
	case KindPrefix:
		return termMatch{op: opWordPrefix, s: strings.ToLower(t.Value)}
	case KindRange:
		// Compare in encoding order (base-37 digit sequences truncated to
		// the axis resolution) so the exact filter agrees with Interval: a
		// word matches iff its coordinate falls inside the range's
		// coordinate interval.
		m := termMatch{op: opWordRange, slots: d.slots, hi: math.MaxUint64}
		bad := -1
		if t.Lo != "" {
			if m.lo, bad = wordDigits(t.Lo, d.slots, 0); bad >= 0 {
				return termMatch{op: opNone}
			}
		}
		if t.Hi != "" {
			if m.hi, bad = wordDigits(t.Hi, d.slots, wordRadix-1); bad >= 0 {
				return termMatch{op: opNone}
			}
		}
		return m
	}
	return termMatch{op: opNone}
}

func (d NumericDim) compile(t Term) termMatch {
	m := termMatch{op: opNumRange, flo: math.Inf(-1), fhi: math.Inf(1)}
	var err error
	switch t.Kind {
	case KindWildcard:
		return m // any value that parses
	case KindExact:
		m.op = opNumExact
		m.flo, err = strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	case KindRange:
		if t.Lo != "" {
			m.flo, err = strconv.ParseFloat(t.Lo, 64)
		}
		if err == nil && t.Hi != "" {
			m.fhi, err = strconv.ParseFloat(t.Hi, 64)
		}
	default:
		return termMatch{op: opNone} // prefix terms are not defined on numbers
	}
	if err != nil {
		return termMatch{op: opNone}
	}
	return m
}

func (d EnumDim) compile(t Term) termMatch {
	m := termMatch{op: opEnum, cats: d.values, index: d.index, hi: uint64(len(d.values) - 1)}
	switch t.Kind {
	case KindWildcard:
	case KindExact:
		i, ok := d.category(t.Value)
		if !ok {
			return termMatch{op: opNone}
		}
		m.lo, m.hi = uint64(i), uint64(i)
	case KindPrefix:
		m.s = strings.ToLower(t.Value)
	case KindRange:
		if t.Lo != "" {
			i, ok := d.category(t.Lo)
			if !ok {
				return termMatch{op: opNone}
			}
			m.lo = uint64(i)
		}
		if t.Hi != "" {
			i, ok := d.category(t.Hi)
			if !ok {
				return termMatch{op: opNone}
			}
			m.hi = uint64(i)
		}
	default:
		return termMatch{op: opNone}
	}
	return m
}
