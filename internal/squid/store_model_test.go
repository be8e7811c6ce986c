package squid

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
)

// storeModel is the map-based reference the parallel-array Store is
// checked against: buckets in insertion order, plus the dirty key set.
type storeModel struct {
	space   chord.Space
	buckets map[uint64][]Element
	dirty   map[uint64]bool
}

func (m *storeModel) add(key uint64, e Element, unique bool) bool {
	if unique && indexOf(m.buckets[key], e) >= 0 {
		return false
	}
	m.buckets[key] = append(m.buckets[key], e)
	m.dirty[key] = true
	return true
}

func (m *storeModel) remove(key uint64, e Element) bool {
	i := indexOf(m.buckets[key], e)
	if i < 0 {
		return false
	}
	m.buckets[key] = slices.Delete(slices.Clone(m.buckets[key]), i, i+1)
	if len(m.buckets[key]) == 0 {
		delete(m.buckets, key)
	}
	m.dirty[key] = true
	return true
}

func (m *storeModel) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(m.buckets))
	for k := range m.buckets {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

type scanned struct {
	key uint64
	e   Element
}

func (m *storeModel) scan(span sfc.Interval) []scanned {
	var out []scanned
	for _, k := range m.sortedKeys() {
		if k >= span.Lo && k <= span.Hi {
			for _, e := range m.buckets[k] {
				out = append(out, scanned{k, e})
			}
		}
	}
	return out
}

// TestStoreMatchesMapModel drives the store and the map model through the
// same random mix of Add, AddUnique, AddBatch(Unique), Remove,
// HandoverOut, TakeDirty and a WriteTo/ReadFrom round trip, comparing
// every observable after each step.
func TestStoreMatchesMapModel(t *testing.T) {
	space := chord.Space{Bits: 8}
	ks := keyspace.MustNew(sfc.MustHilbert(2, 4), keyspace.MustWordDim("a", 4), keyspace.MustWordDim("b", 4))
	words := []string{"computer", "network", "grid", "Comp", "net"}
	r := rand.New(rand.NewSource(7))
	elem := func() Element {
		return Element{Values: []string{words[r.Intn(len(words))], words[r.Intn(len(words))]}, Data: words[r.Intn(3)]}
	}
	key := func() uint64 { return uint64(r.Intn(48)) }
	items := func() []chord.Item {
		out := make([]chord.Item, r.Intn(5))
		for i := range out {
			b := make([]Element, r.Intn(3))
			for j := range b {
				b[j] = elem()
			}
			out[i] = chord.Item{Key: chord.ID(key()), Value: b}
		}
		if r.Intn(4) == 0 {
			out = append(out, chord.Item{Key: chord.ID(key()), Value: "not elements"})
		}
		return out
	}

	s := NewStore(space)
	s.TrackDirty()
	m := &storeModel{space: space, buckets: map[uint64][]Element{}, dirty: map[uint64]bool{}}
	for step := 0; step < 3000; step++ {
		op := r.Intn(10)
		switch op {
		case 0, 1:
			k, e := key(), elem()
			s.Add(k, e)
			m.add(k, e, false)
		case 2:
			k, e := key(), elem()
			if got, want := s.AddUnique(k, e), m.add(k, e, true); got != want {
				t.Fatalf("step %d: AddUnique = %v, model %v", step, got, want)
			}
		case 3, 4:
			batch := items()
			unique := op == 4
			want := 0
			for _, it := range batch {
				if b, ok := it.Value.([]Element); ok {
					for _, e := range b {
						if m.add(uint64(it.Key), e, unique) {
							want++
						}
					}
				}
			}
			if unique {
				if got := s.AddBatchUnique(batch); got != want {
					t.Fatalf("step %d: AddBatchUnique added %d, model %d", step, got, want)
				}
			} else {
				s.AddBatch(batch)
			}
		case 5, 6:
			k, e := key(), elem()
			if b := m.buckets[k]; len(b) > 0 && r.Intn(2) == 0 {
				e = b[r.Intn(len(b))]
			}
			if got, want := s.Remove(k, e), m.remove(k, e); got != want {
				t.Fatalf("step %d: Remove = %v, model %v", step, got, want)
			}
		case 7:
			if r.Intn(4) != 0 {
				break
			}
			a, b := chord.ID(key()), chord.ID(key())
			var want []chord.Item
			for _, k := range m.sortedKeys() {
				if space.Between(chord.ID(k), a, b) {
					want = append(want, chord.Item{Key: chord.ID(k), Value: m.buckets[k]})
					delete(m.buckets, k)
				}
			}
			if got := s.HandoverOut(a, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: HandoverOut(%d, %d) = %v, model %v", step, a, b, got, want)
			}
		case 8:
			var want []uint64
			for _, k := range m.sortedKeys() {
				if m.dirty[k] {
					want = append(want, k)
				}
			}
			m.dirty = map[uint64]bool{}
			if got := s.TakeDirty(nil); !slices.Equal(got, want) {
				t.Fatalf("step %d: TakeDirty = %v, model %v", step, got, want)
			}
		case 9:
			if r.Intn(8) != 0 {
				break
			}
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			s = NewStore(space)
			s.TrackDirty()
			if _, err := s.ReadFrom(&buf); err != nil {
				t.Fatalf("step %d: ReadFrom: %v", step, err)
			}
			m.dirty = map[uint64]bool{}
			for k := range m.buckets {
				m.dirty[k] = true
			}
		}

		// Observables.
		wantKeys := m.sortedKeys()
		if s.Keys() != len(wantKeys) {
			t.Fatalf("step %d: Keys = %d, model %d", step, s.Keys(), len(wantKeys))
		}
		n := 0
		for _, b := range m.buckets {
			n += len(b)
		}
		if s.Elements() != n {
			t.Fatalf("step %d: Elements = %d, model %d", step, s.Elements(), n)
		}
		lo, hi := key(), key()
		if lo > hi {
			lo, hi = hi, lo
		}
		span := sfc.Interval{Lo: lo, Hi: hi}
		var got []scanned
		s.ScanSpan(span, func(k uint64, e Element) { got = append(got, scanned{k, e}) })
		want := m.scan(span)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: ScanSpan(%v) = %v, model %v", step, span, got, want)
		}
		q := keyspace.Query{keyspace.Prefix(words[r.Intn(len(words))][:2])}
		match := ks.Compile(q)
		var wantMatches []Element
		for _, x := range want {
			if ks.Matches(q, x.e.Values) {
				wantMatches = append(wantMatches, x.e)
			}
		}
		if gotMatches := s.AppendMatches(nil, span, &match); !reflect.DeepEqual(gotMatches, wantMatches) {
			t.Fatalf("step %d: AppendMatches(%v, %v) = %v, model %v", step, span, q, gotMatches, wantMatches)
		}
		k := key()
		if got := s.At(k); !reflect.DeepEqual(got, m.buckets[k]) {
			t.Fatalf("step %d: At(%d) = %v, model %v", step, k, got, m.buckets[k])
		}
		probe := []uint64{key(), key(), key()}
		var wantSnap []chord.Item
		for _, k := range probe {
			if b, ok := m.buckets[k]; ok {
				wantSnap = append(wantSnap, chord.Item{Key: chord.ID(k), Value: b})
			}
		}
		if got := s.SnapshotKeys(probe); !reflect.DeepEqual(got, append([]chord.Item{}, wantSnap...)) {
			t.Fatalf("step %d: SnapshotKeys(%v) = %v, model %v", step, probe, got, wantSnap)
		}
		if med, ok := s.MedianKey(); ok != (len(wantKeys) > 0) || (ok && med != wantKeys[len(wantKeys)/2]) {
			t.Fatalf("step %d: MedianKey = %d, %v; keys %v", step, med, ok, wantKeys)
		}
	}
}
