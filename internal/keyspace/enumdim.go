package keyspace

import (
	"fmt"
	"math/bits"
	"strings"

	"squid/internal/sfc"
)

// EnumDim encodes a categorical attribute with a fixed, ordered set of
// values — the paper's resource-discovery examples include attributes like
// operating-system type. Each category owns an equal contiguous slice of
// the axis, so exact matches are single slices and (by category order)
// range terms are contiguous too.
type EnumDim struct {
	name   string
	bits   int
	values []string
	index  map[string]int
	slice  uint64 // coordinates per category
}

// NewEnumDim returns a categorical dimension over the given ordered
// values (case-insensitive, at most 2^bitWidth categories).
func NewEnumDim(name string, bitWidth int, values []string) (EnumDim, error) {
	if bitWidth < 1 || bitWidth > 63 {
		return EnumDim{}, fmt.Errorf("keyspace: enum dimension width must be 1..63 bits, got %d", bitWidth)
	}
	if len(values) == 0 {
		return EnumDim{}, fmt.Errorf("keyspace: enum dimension %s needs at least one value", name)
	}
	if bits.Len(uint(len(values)-1)) > bitWidth {
		return EnumDim{}, fmt.Errorf("keyspace: %d categories exceed a %d-bit axis", len(values), bitWidth)
	}
	d := EnumDim{
		name:   name,
		bits:   bitWidth,
		values: make([]string, len(values)),
		index:  make(map[string]int, len(values)),
		slice:  (uint64(1) << bitWidth) / uint64(len(values)),
	}
	for i, v := range values {
		v = strings.ToLower(strings.TrimSpace(v))
		if v == "" {
			return EnumDim{}, fmt.Errorf("keyspace: enum dimension %s has an empty value", name)
		}
		if _, dup := d.index[v]; dup {
			return EnumDim{}, fmt.Errorf("keyspace: enum dimension %s has duplicate value %q", name, v)
		}
		d.values[i] = v
		d.index[v] = i
	}
	return d, nil
}

// MustEnumDim is NewEnumDim that panics on error.
func MustEnumDim(name string, bitWidth int, values []string) EnumDim {
	d, err := NewEnumDim(name, bitWidth, values)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the axis label.
func (d EnumDim) Name() string { return d.name }

// Bits returns the coordinate width.
func (d EnumDim) Bits() int { return d.bits }

// Values returns the category order.
func (d EnumDim) Values() []string { return append([]string(nil), d.values...) }

// category returns the index of the category v names (case-insensitive,
// surrounding space ignored).
func (d EnumDim) category(v string) (int, bool) {
	i, ok := d.index[strings.ToLower(strings.TrimSpace(v))]
	return i, ok
}

func (d EnumDim) lookup(v string) (int, error) {
	i, ok := d.category(v)
	if !ok {
		return 0, fmt.Errorf("keyspace: %s: unknown category %q (want one of %v)", d.name, v, d.values)
	}
	return i, nil
}

// Encode maps a category to the start of its axis slice.
func (d EnumDim) Encode(value string) (uint64, error) {
	i, err := d.lookup(value)
	if err != nil {
		return 0, err
	}
	return uint64(i) * d.slice, nil
}

// categorySpan is the coordinate interval owned by category i.
func (d EnumDim) categorySpan(i int) sfc.Interval {
	lo := uint64(i) * d.slice
	hi := lo + d.slice - 1
	if i == len(d.values)-1 {
		hi = (uint64(1) << d.bits) - 1 // last category absorbs the remainder
	}
	return sfc.Interval{Lo: lo, Hi: hi}
}

// Interval translates a term into its coordinate interval. Prefix terms
// match categories by name prefix; because categories are contiguous only
// in declaration order, a prefix that matches non-adjacent categories
// over-approximates to the covering interval (Matches filters exactly).
func (d EnumDim) Interval(t Term) (sfc.Interval, error) {
	full := sfc.Interval{Lo: 0, Hi: (uint64(1) << d.bits) - 1}
	switch t.Kind {
	case KindWildcard:
		return full, nil
	case KindExact:
		i, err := d.lookup(t.Value)
		if err != nil {
			return sfc.Interval{}, err
		}
		return d.categorySpan(i), nil
	case KindPrefix:
		lo, hi := -1, -1
		p := strings.ToLower(t.Value)
		for i, v := range d.values {
			if strings.HasPrefix(v, p) {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if lo < 0 {
			return sfc.Interval{}, fmt.Errorf("keyspace: %s: no category matches prefix %q", d.name, t.Value)
		}
		return sfc.Interval{Lo: d.categorySpan(lo).Lo, Hi: d.categorySpan(hi).Hi}, nil
	case KindRange:
		lo, hi := 0, len(d.values)-1
		if t.Lo != "" {
			i, err := d.lookup(t.Lo)
			if err != nil {
				return sfc.Interval{}, err
			}
			lo = i
		}
		if t.Hi != "" {
			i, err := d.lookup(t.Hi)
			if err != nil {
				return sfc.Interval{}, err
			}
			hi = i
		}
		if lo > hi {
			return sfc.Interval{}, fmt.Errorf("keyspace: %s: empty category range %s", d.name, t)
		}
		return sfc.Interval{Lo: d.categorySpan(lo).Lo, Hi: d.categorySpan(hi).Hi}, nil
	}
	return sfc.Interval{}, fmt.Errorf("keyspace: unknown term kind %d", t.Kind)
}

// Matches applies the term exactly to a category value.
func (d EnumDim) Matches(t Term, value string) bool {
	m := d.compile(t)
	return m.match(value)
}

var _ Dimension = EnumDim{}
