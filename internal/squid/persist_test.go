package squid

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"squid/internal/chord"
	"squid/internal/sfc"
)

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	s.Add(100, Element{Values: []string{"a", "b"}, Data: "one"})
	s.Add(100, Element{Values: []string{"a", "b"}, Data: "two"})
	s.Add(7, Element{Values: []string{"x"}, Data: "three"})
	s.Add(60000, Element{Values: []string{"z", "z"}, Data: "four"})

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(chord.Space{Bits: 16})
	restored.Add(999, Element{Data: "stale"}) // must be replaced, not merged
	if _, err := restored.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Keys() != 3 || restored.Elements() != 4 {
		t.Fatalf("restored %d keys / %d elements", restored.Keys(), restored.Elements())
	}
	if len(restored.At(999)) != 0 {
		t.Error("load must replace prior contents")
	}
	if got := restored.At(100); len(got) != 2 || got[0].Data != "one" {
		t.Errorf("bucket 100 = %v", got)
	}
	// Scan order intact.
	var keys []uint64
	restored.ScanSpan(sfc.Interval{Lo: 0, Hi: 1<<16 - 1}, func(k uint64, _ Element) {
		if len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
	})
	want := []uint64{7, 100, 60000}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan order %v", keys)
		}
	}
}

func TestStoreLoadRejectsGarbage(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	if _, err := s.ReadFrom(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := s.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
}

func TestStoreSaveLoadEmpty(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewStore(chord.Space{Bits: 16})
	if _, err := r.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Keys() != 0 {
		t.Errorf("empty round trip has %d keys", r.Keys())
	}
}

// TestStoreLoadRejectsCorruptImage checks that ReadFrom adopts only images
// already in the store's layout — keys strictly ascending, no bucket
// empty — and leaves the store untouched when it rejects one.
func TestStoreLoadRejectsCorruptImage(t *testing.T) {
	a := []Element{{Values: []string{"a"}, Data: "one"}}
	b := []Element{{Values: []string{"b"}, Data: "two"}}
	for _, c := range []struct {
		name string
		img  storeImage
	}{
		{"unsorted keys", storeImage{Version: storeImageVersion, Keys: []uint64{9, 3}, Buckets: [][]Element{a, b}}},
		{"duplicate key", storeImage{Version: storeImageVersion, Keys: []uint64{3, 3}, Buckets: [][]Element{a, b}}},
		{"empty bucket", storeImage{Version: storeImageVersion, Keys: []uint64{3, 9}, Buckets: [][]Element{a, {}}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.img); err != nil {
			t.Fatal(err)
		}
		s := NewStore(chord.Space{Bits: 16})
		s.Add(100, Element{Data: "kept"})
		if _, err := s.ReadFrom(&buf); err == nil || !strings.Contains(err.Error(), "corrupt store image") {
			t.Errorf("%s: ReadFrom err = %v, want a corrupt-image error", c.name, err)
		}
		if s.Keys() != 1 || len(s.At(100)) != 1 {
			t.Errorf("%s: rejected image changed the store", c.name)
		}
	}
}
