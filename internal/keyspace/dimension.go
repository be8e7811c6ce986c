package keyspace

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"squid/internal/sfc"
)

// Dimension encodes the values of one axis of the keyword space into
// coordinates in [0, 2^Bits) and translates query terms into coordinate
// intervals. Implementations must be immutable values safe for concurrent
// use. The interface is sealed — WordDim, NumericDim and EnumDim are its
// implementations — because each compiles its terms into the shared
// Matcher representation.
type Dimension interface {
	// Name labels the axis ("keyword", "memory", ...).
	Name() string
	// Bits returns the coordinate width; must equal the curve's Bits.
	Bits() int
	// Encode maps a value to its coordinate.
	Encode(value string) (uint64, error)
	// Interval returns the coordinate interval containing every value the
	// term can match. It may over-approximate (include coordinates of values
	// that do not match); Matches provides the exact filter.
	Interval(t Term) (sfc.Interval, error)
	// Matches reports whether a concrete value satisfies the term exactly.
	Matches(t Term, value string) bool

	// compile resolves the term's exact filter once (see Matcher); Matches
	// is compile followed by one match.
	compile(t Term) termMatch
}

// wordRadix is the base of the lexicographic word encoding: digit 0 is the
// end-of-string sentinel (so shorter words sort before their extensions),
// digits 1-26 are 'a'-'z' and 27-36 are '0'-'9'.
const wordRadix = 37

// WordDim encodes words lexicographically, the paper's "keywords viewed as
// base-n numbers". A word over [a-z0-9] (case folded) is read as a base-37
// number with a fixed number of digit slots — as many as fit in the axis
// width — then scaled to spread over the whole coordinate range. Longer
// words are truncated to the slot count; they still match exactly because
// data nodes re-filter against the stored strings.
type WordDim struct {
	name  string
	bits  int
	slots int    // digit slots: max s with 37^s <= 2^bits
	max   uint64 // 37^slots
}

// NewWordDim returns a lexicographic word dimension of the given coordinate
// width (1..63 bits).
func NewWordDim(name string, bitWidth int) (WordDim, error) {
	if bitWidth < 1 || bitWidth > 63 {
		return WordDim{}, fmt.Errorf("keyspace: word dimension width must be 1..63 bits, got %d", bitWidth)
	}
	slots := 0
	max := uint64(1)
	for max <= (uint64(1)<<bitWidth)/wordRadix {
		max *= wordRadix
		slots++
	}
	if slots == 0 {
		// Axis narrower than one base-37 digit: still usable, one slot that
		// only partially discriminates; clamp handled by scale().
		slots, max = 1, wordRadix
	}
	return WordDim{name: name, bits: bitWidth, slots: slots, max: max}, nil
}

// MustWordDim is NewWordDim that panics on error.
func MustWordDim(name string, bitWidth int) WordDim {
	d, err := NewWordDim(name, bitWidth)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the axis label.
func (d WordDim) Name() string { return d.name }

// Bits returns the coordinate width.
func (d WordDim) Bits() int { return d.bits }

// Slots returns how many leading characters of a word the axis
// discriminates.
func (d WordDim) Slots() int { return d.slots }

func wordDigit(c byte) (uint64, bool) {
	switch {
	case c >= 'a' && c <= 'z':
		return uint64(c-'a') + 1, true
	case c >= 'A' && c <= 'Z':
		return uint64(c-'A') + 1, true
	case c >= '0' && c <= '9':
		return uint64(c-'0') + 27, true
	default:
		return 0, false
	}
}

// value reads up to slots leading characters of w as a base-37 integer,
// padding short words with the 0 sentinel (low end) — so value(w) is the
// smallest value of any word with prefix w.
func (d WordDim) value(w string) (uint64, error) {
	return d.digits(w, 0)
}

// valueHigh is like value but pads with the largest digit: the largest value
// of any word with prefix w.
func (d WordDim) valueHigh(w string) (uint64, error) {
	return d.digits(w, wordRadix-1)
}

func (d WordDim) digits(w string, pad uint64) (uint64, error) {
	v, bad := wordDigits(w, d.slots, pad)
	if bad >= 0 {
		return 0, fmt.Errorf("keyspace: %s: unsupported character %q in %q (want [a-z0-9])", d.name, w[bad], w)
	}
	return v, nil
}

// scale spreads a base-37 value over the axis: floor(v * 2^bits / 37^slots).
// Strictly monotonic and injective because 2^bits >= 37^slots.
func (d WordDim) scale(v uint64) uint64 {
	if v >= d.max {
		v = d.max - 1
	}
	hi, lo := bits.Mul64(v, uint64(1)<<d.bits)
	q, _ := bits.Div64(hi, lo, d.max)
	return q
}

// Encode maps a word to its coordinate.
func (d WordDim) Encode(value string) (uint64, error) {
	v, err := d.value(value)
	if err != nil {
		return 0, err
	}
	return d.scale(v), nil
}

// Interval translates a term into the coordinate interval covering all its
// possible matches.
func (d WordDim) Interval(t Term) (sfc.Interval, error) {
	full := sfc.Interval{Lo: 0, Hi: (uint64(1) << d.bits) - 1}
	switch t.Kind {
	case KindWildcard:
		return full, nil
	case KindExact:
		// Words beyond the slot count share the coordinate of their
		// truncation, so the exact interval is the truncation's prefix span
		// when the word overflows the slots, else the single coordinate.
		if len(t.Value) > d.slots {
			return d.prefixInterval(t.Value[:d.slots])
		}
		v, err := d.value(t.Value)
		if err != nil {
			return sfc.Interval{}, err
		}
		c := d.scale(v)
		return sfc.Interval{Lo: c, Hi: c}, nil
	case KindPrefix:
		if t.Value == "" {
			return full, nil
		}
		return d.prefixInterval(t.Value)
	case KindRange:
		lo, hi := uint64(0), full.Hi
		if t.Lo != "" {
			v, err := d.value(t.Lo)
			if err != nil {
				return sfc.Interval{}, err
			}
			lo = d.scale(v)
		}
		if t.Hi != "" {
			v, err := d.valueHigh(t.Hi)
			if err != nil {
				return sfc.Interval{}, err
			}
			hi = d.scale(v)
		}
		return sfc.Interval{Lo: lo, Hi: hi}, nil
	}
	return sfc.Interval{}, fmt.Errorf("keyspace: unknown term kind %d", t.Kind)
}

func (d WordDim) prefixInterval(p string) (sfc.Interval, error) {
	lo, err := d.value(p)
	if err != nil {
		return sfc.Interval{}, err
	}
	hi, err := d.valueHigh(p)
	if err != nil {
		return sfc.Interval{}, err
	}
	return sfc.Interval{Lo: d.scale(lo), Hi: d.scale(hi)}, nil
}

// Matches applies the term exactly to a concrete word (case-insensitive).
// Range terms compare in encoding order, so a word matches iff its
// coordinate falls inside the range's coordinate interval.
func (d WordDim) Matches(t Term, value string) bool {
	m := d.compile(t)
	return m.match(value)
}

// NumericDim encodes a numeric attribute (memory, CPU frequency, bandwidth,
// cost, ...) linearly between configured bounds, so numeric range queries
// become contiguous coordinate intervals — the mechanism the paper proposes
// for resource discovery in computational grids.
type NumericDim struct {
	name     string
	bits     int
	min, max float64
}

// NewNumericDim returns a linear numeric dimension over [min, max].
func NewNumericDim(name string, bitWidth int, min, max float64) (NumericDim, error) {
	if bitWidth < 1 || bitWidth > 63 {
		return NumericDim{}, fmt.Errorf("keyspace: numeric dimension width must be 1..63 bits, got %d", bitWidth)
	}
	if !(min < max) || math.IsNaN(min) || math.IsNaN(max) || math.IsInf(min, 0) || math.IsInf(max, 0) {
		return NumericDim{}, fmt.Errorf("keyspace: numeric dimension needs finite min < max, got [%v, %v]", min, max)
	}
	return NumericDim{name: name, bits: bitWidth, min: min, max: max}, nil
}

// MustNumericDim is NewNumericDim that panics on error.
func MustNumericDim(name string, bitWidth int, min, max float64) NumericDim {
	d, err := NewNumericDim(name, bitWidth, min, max)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the axis label.
func (d NumericDim) Name() string { return d.name }

// Bits returns the coordinate width.
func (d NumericDim) Bits() int { return d.bits }

// Bounds returns the configured [min, max] value range.
func (d NumericDim) Bounds() (min, max float64) { return d.min, d.max }

// Encode maps a numeric value (decimal string) to its coordinate; values
// outside [min, max] clamp to the boundary.
func (d NumericDim) Encode(value string) (uint64, error) {
	x, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil {
		return 0, fmt.Errorf("keyspace: %s: %q is not numeric: %v", d.name, value, err)
	}
	return d.coord(x), nil
}

func (d NumericDim) coord(x float64) uint64 {
	if x <= d.min {
		return 0
	}
	top := (uint64(1) << d.bits) - 1
	if x >= d.max {
		return top
	}
	frac := (x - d.min) / (d.max - d.min)
	c := uint64(frac * float64(top))
	if c > top {
		c = top
	}
	return c
}

// Interval translates a term into the coordinate interval covering its
// matches.
func (d NumericDim) Interval(t Term) (sfc.Interval, error) {
	full := sfc.Interval{Lo: 0, Hi: (uint64(1) << d.bits) - 1}
	switch t.Kind {
	case KindWildcard:
		return full, nil
	case KindExact:
		c, err := d.Encode(t.Value)
		if err != nil {
			return sfc.Interval{}, err
		}
		return sfc.Interval{Lo: c, Hi: c}, nil
	case KindPrefix:
		return sfc.Interval{}, fmt.Errorf("keyspace: %s: prefix terms are not defined on numeric dimensions", d.name)
	case KindRange:
		lo, hi := uint64(0), full.Hi
		if t.Lo != "" {
			c, err := d.Encode(t.Lo)
			if err != nil {
				return sfc.Interval{}, err
			}
			lo = c
		}
		if t.Hi != "" {
			c, err := d.Encode(t.Hi)
			if err != nil {
				return sfc.Interval{}, err
			}
			hi = c
		}
		if lo > hi {
			return sfc.Interval{}, fmt.Errorf("keyspace: %s: empty range %s", d.name, t)
		}
		return sfc.Interval{Lo: lo, Hi: hi}, nil
	}
	return sfc.Interval{}, fmt.Errorf("keyspace: unknown term kind %d", t.Kind)
}

// Matches applies the term exactly to a concrete numeric value.
func (d NumericDim) Matches(t Term, value string) bool {
	m := d.compile(t)
	return m.match(value)
}

var (
	_ Dimension = WordDim{}
	_ Dimension = NumericDim{}
)
