package keyspace

import (
	"fmt"

	"squid/internal/sfc"
)

// Space is a d-dimensional keyword space tied to a space-filling curve: the
// "locality preserving mapping" of the paper's architecture (component 1 of
// Section 3). It is immutable and safe for concurrent use.
type Space struct {
	curve sfc.Curve
	dims  []Dimension
}

// New builds a Space from a curve and one Dimension per curve axis. Every
// dimension's Bits must equal the curve's Bits.
func New(curve sfc.Curve, dims ...Dimension) (*Space, error) {
	if len(dims) != curve.Dims() {
		return nil, fmt.Errorf("keyspace: curve has %d dims, got %d dimension codecs", curve.Dims(), len(dims))
	}
	for i, d := range dims {
		if d.Bits() != curve.Bits() {
			return nil, fmt.Errorf("keyspace: dimension %d (%s) is %d bits, curve axes are %d bits",
				i, d.Name(), d.Bits(), curve.Bits())
		}
	}
	s := &Space{curve: curve, dims: append([]Dimension(nil), dims...)}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(curve sfc.Curve, dims ...Dimension) *Space {
	s, err := New(curve, dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewWordSpace returns the common storage-system configuration: d word
// dimensions over a Hilbert curve with the given bits per axis (paper
// Section 4.1 uses d = 2 and 3).
func NewWordSpace(d, bitsPerAxis int) (*Space, error) {
	curve, err := sfc.NewHilbert(d, bitsPerAxis)
	if err != nil {
		return nil, err
	}
	dims := make([]Dimension, d)
	for i := range dims {
		wd, err := NewWordDim(fmt.Sprintf("keyword%d", i), bitsPerAxis)
		if err != nil {
			return nil, err
		}
		dims[i] = wd
	}
	return New(curve, dims...)
}

// Curve returns the space-filling curve the space is built on.
func (s *Space) Curve() sfc.Curve { return s.curve }

// Dims returns the dimensionality.
func (s *Space) Dims() int { return len(s.dims) }

// Dimension returns the codec of axis i.
func (s *Space) Dimension(i int) Dimension { return s.dims[i] }

// IndexBits returns the number of significant bits in curve indices; the
// overlay's identifier space must be at least this wide.
func (s *Space) IndexBits() int { return s.curve.IndexBits() }

// Point encodes a data element's values (one per dimension) into cube
// coordinates. Missing trailing values encode as the empty string.
func (s *Space) Point(values []string) ([]uint64, error) {
	if len(values) > len(s.dims) {
		return nil, fmt.Errorf("keyspace: %d values for a %d-dimensional space", len(values), len(s.dims))
	}
	pt := make([]uint64, len(s.dims))
	for i, d := range s.dims {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		c, err := d.Encode(v)
		if err != nil {
			return nil, err
		}
		pt[i] = c
	}
	return pt, nil
}

// Index maps a data element's values to its curve index — the element's DHT
// key.
func (s *Space) Index(values []string) (uint64, error) {
	pt, err := s.Point(values)
	if err != nil {
		return 0, err
	}
	return s.curve.Encode(pt), nil
}

// Region translates a query into the coordinate region its matches occupy.
// Queries shorter than the dimensionality are padded with wildcards; longer
// queries are an error.
func (s *Space) Region(q Query) (sfc.Region, error) {
	if len(q) > len(s.dims) {
		return nil, fmt.Errorf("keyspace: query %s has %d terms for a %d-dimensional space", q, len(q), len(s.dims))
	}
	raw := make([][]sfc.Interval, len(s.dims))
	for i, d := range s.dims {
		t := Wildcard()
		if i < len(q) {
			t = q[i]
		}
		iv, err := d.Interval(t)
		if err != nil {
			return nil, err
		}
		raw[i] = []sfc.Interval{iv}
	}
	return sfc.NewRegion(raw), nil
}

// Matches applies the query exactly to a data element's values — the final
// filter run by data nodes so coordinate truncation never causes false
// positives. Values shorter than the query are treated as empty strings.
// It runs the same compiled terms as Compile; callers testing many elements
// against one query should compile it once.
func (s *Space) Matches(q Query, values []string) bool {
	if len(q) > len(s.dims) {
		return false
	}
	for i, t := range q {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		m := s.dims[i].compile(t)
		if !m.match(v) {
			return false
		}
	}
	return true
}
