package keyspace

import (
	"strconv"
	"strings"
	"testing"

	"squid/internal/sfc"
)

// The reference matchers below are the per-call filters the compiled
// Matcher replaced, kept verbatim as the oracle its equivalence is
// checked against: they lowercase, re-parse and dispatch per element.

func refWordMatches(d WordDim, t Term, value string) bool {
	v := strings.ToLower(value)
	switch t.Kind {
	case KindWildcard:
		return true
	case KindExact:
		return v == strings.ToLower(t.Value)
	case KindPrefix:
		return strings.HasPrefix(v, strings.ToLower(t.Value))
	case KindRange:
		w, err := d.value(v)
		if err != nil {
			return false
		}
		if t.Lo != "" {
			lo, err := d.value(t.Lo)
			if err != nil || w < lo {
				return false
			}
		}
		if t.Hi != "" {
			hi, err := d.valueHigh(t.Hi)
			if err != nil || w > hi {
				return false
			}
		}
		return true
	}
	return false
}

func refNumericMatches(t Term, value string) bool {
	x, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil {
		return false
	}
	switch t.Kind {
	case KindWildcard:
		return true
	case KindExact:
		y, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
		return err == nil && x == y
	case KindRange:
		if t.Lo != "" {
			lo, err := strconv.ParseFloat(t.Lo, 64)
			if err != nil || x < lo {
				return false
			}
		}
		if t.Hi != "" {
			hi, err := strconv.ParseFloat(t.Hi, 64)
			if err != nil || x > hi {
				return false
			}
		}
		return true
	}
	return false
}

func refEnumMatches(d EnumDim, t Term, value string) bool {
	i, err := d.lookup(value)
	if err != nil {
		return false
	}
	switch t.Kind {
	case KindWildcard:
		return true
	case KindExact:
		j, err := d.lookup(t.Value)
		return err == nil && i == j
	case KindPrefix:
		return strings.HasPrefix(d.values[i], strings.ToLower(t.Value))
	case KindRange:
		if t.Lo != "" {
			j, err := d.lookup(t.Lo)
			if err != nil || i < j {
				return false
			}
		}
		if t.Hi != "" {
			j, err := d.lookup(t.Hi)
			if err != nil || i > j {
				return false
			}
		}
		return true
	}
	return false
}

func refDimMatches(d Dimension, t Term, value string) bool {
	switch d := d.(type) {
	case WordDim:
		return refWordMatches(d, t, value)
	case NumericDim:
		return refNumericMatches(t, value)
	case EnumDim:
		return refEnumMatches(d, t, value)
	}
	panic("unknown dimension type")
}

func refSpaceMatches(s *Space, q Query, values []string) bool {
	if len(q) > len(s.dims) {
		return false
	}
	for i, t := range q {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		if !refDimMatches(s.dims[i], t, v) {
			return false
		}
	}
	return true
}

// matchSpace mixes the three dimension kinds; the word axis is narrow
// enough (3 slots) that range truncation is exercised.
func matchSpace(t testing.TB) *Space {
	curve, err := sfc.NewHilbert(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(curve,
		MustWordDim("kw", 16),
		MustNumericDim("mem", 16, 0, 4096),
		MustEnumDim("os", 16, []string{"linux", "Solaris", "aix", "linux-rt", "kelvin"}))
}

// termFrom builds a term of the given kind from fuzzer strings.
func termFrom(kind uint8, a, b string) Term {
	switch kind % 5 {
	case 0:
		return Wildcard()
	case 1:
		return Exact(a)
	case 2:
		return Prefix(a)
	case 3:
		return Range(a, b)
	default:
		return Term{Kind: TermKind(7), Value: a} // unknown kind
	}
}

// FuzzMatcherEquivalence checks the compiled matcher, Space.Matches and
// each Dimension.Matches against the reference per-call filters over word,
// numeric and enum dimensions: mixed case, non-ASCII input (U+212A KELVIN
// SIGN lowercases to "k"), short value lists and over-long queries.
func FuzzMatcherEquivalence(f *testing.F) {
	f.Add(uint8(1), "Comp", "", uint8(0), "256", "", uint8(0), "linux", "", "computer", "512", "LINUX", uint8(3))
	f.Add(uint8(2), "\u212Aey", "", uint8(3), "1e2", "2e3", uint8(2), "\u212A", "", "KEYS", " 300 ", " Kelvin ", uint8(3))
	f.Add(uint8(3), "a", "\u212Azz", uint8(1), " 7 ", "", uint8(3), "aix", "linux-rt", "\u212Aelvin", "7", "AIX", uint8(2))
	f.Add(uint8(3), "ab", "abz9", uint8(3), "", "NaN", uint8(1), "solaris", "", "ab\u0130", "NaN", "solaris", uint8(1))
	f.Add(uint8(1), "\u0130", "", uint8(2), "1", "", uint8(4), "x", "", "i\u0307", "-0", " linux", uint8(4))
	f.Add(uint8(3), "Z", "", uint8(3), "-inf", "+Inf", uint8(3), "", "aix", "zzzz", "inf", "os", uint8(0))
	s := matchSpace(f)
	f.Fuzz(func(t *testing.T, k0 uint8, a0, b0 string, k1 uint8, a1, b1 string, k2 uint8, a2, b2 string,
		v0, v1, v2 string, nvals uint8) {
		q := Query{termFrom(k0, a0, b0), termFrom(k1, a1, b1), termFrom(k2, a2, b2)}
		values := []string{v0, v1, v2}[:int(nvals)%4]
		for n := 0; n <= len(q); n++ {
			qn := q[:n]
			mn := s.Compile(qn)
			want := refSpaceMatches(s, qn, values)
			if got := mn.Match(values); got != want {
				t.Fatalf("Compile(%v).Match(%q) = %v, reference %v", qn, values, got, want)
			}
			if got := s.Matches(qn, values); got != want {
				t.Fatalf("Matches(%v, %q) = %v, reference %v", qn, values, got, want)
			}
		}
		for i, v := range []string{v0, v1, v2} {
			d := s.Dimension(i)
			if got, want := d.Matches(q[i], v), refDimMatches(d, q[i], v); got != want {
				t.Fatalf("%s.Matches(%v, %q) = %v, reference %v", d.Name(), q[i], v, got, want)
			}
		}
		long := append(q, Wildcard())
		lm := s.Compile(long)
		if s.Matches(long, values) || lm.Match(values) {
			t.Fatalf("query %v longer than the space matched", long)
		}
	})
}

func TestMatcherKelvinSign(t *testing.T) {
	d := MustWordDim("kw", 20)
	for _, c := range []struct {
		term  Term
		value string
		want  bool
	}{
		{Exact("key"), "\u212Aey", true},
		{Exact("\u212Aey"), "KEY", true},
		{Prefix("k"), "\u212Aelvin", true},
		{Prefix("\u212A"), "kelvin", true},
		{Range("k", "k"), "\u212Aelvin", true},
		{Range("j", "j"), "\u212Aelvin", false},
		{Range("\u212A", ""), "kelvin", false}, // bounds are not folded: U+212A is no word digit
	} {
		if got := d.Matches(c.term, c.value); got != c.want {
			t.Errorf("Matches(%v, %q) = %v, want %v", c.term, c.value, got, c.want)
		}
		if ref := refWordMatches(d, c.term, c.value); ref != c.want {
			t.Errorf("reference Matches(%v, %q) = %v, want %v", c.term, c.value, ref, c.want)
		}
	}
}

func TestMatcherMatchAllocFree(t *testing.T) {
	s := matchSpace(t)
	m := s.Compile(MustParse("(comp*, 256-1024, linux-aix)"))
	values := []string{"Computer", "512", "linux"}
	if !m.Match(values) {
		t.Fatal("expected a match")
	}
	if a := testing.AllocsPerRun(100, func() { m.Match(values) }); a != 0 {
		t.Errorf("Match: %v allocs/op, want 0", a)
	}
}
