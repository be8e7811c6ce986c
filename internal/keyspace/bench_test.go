package keyspace

import (
	"testing"
)

// BenchmarkWordEncode measures word→coordinate encoding.
func BenchmarkWordEncode(b *testing.B) {
	d := MustWordDim("kw", 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Encode("computer"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceIndex measures tuple→curve-index encoding (the publish
// hot path).
func BenchmarkSpaceIndex(b *testing.B) {
	s, err := NewWordSpace(2, 32)
	if err != nil {
		b.Fatal(err)
	}
	vals := []string{"computer", "network"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Index(vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceRegion measures query→region translation (the query hot
// path).
func BenchmarkSpaceRegion(b *testing.B) {
	s, err := NewWordSpace(3, 21)
	if err != nil {
		b.Fatal(err)
	}
	q := MustParse("(comp*, net*, *)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Region(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceMatches measures the exact final filter.
func BenchmarkSpaceMatches(b *testing.B) {
	s, err := NewWordSpace(2, 32)
	if err != nil {
		b.Fatal(err)
	}
	q := MustParse("(comp*, net*)")
	vals := []string{"computer", "network"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Matches(q, vals) {
			b.Fatal("should match")
		}
	}
}

// BenchmarkMatcherMatch measures the same filter compiled once, as data
// nodes run it over every scanned element.
func BenchmarkMatcherMatch(b *testing.B) {
	s, err := NewWordSpace(2, 32)
	if err != nil {
		b.Fatal(err)
	}
	m := s.Compile(MustParse("(comp*, net*)"))
	vals := []string{"computer", "network"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.Match(vals) {
			b.Fatal("should match")
		}
	}
}
