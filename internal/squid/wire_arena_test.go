package squid

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"squid/internal/wire"
)

// arenaElements draws element lists that stress the block decode: empty
// and nil value lists, empty strings, non-ASCII values.
func arenaElements(r *rand.Rand, n int) []Element {
	words := []string{"", "computer", "network", "résumé", "Kelvin", "q", "a-long-keyword-for-padding"}
	out := make([]Element, n)
	for i := range out {
		if k := r.Intn(4); k > 0 {
			out[i].Values = make([]string, k)
			for j := range out[i].Values {
				out[i].Values[j] = words[r.Intn(len(words))]
			}
		}
		out[i].Data = words[r.Intn(len(words))]
	}
	return out
}

// decodeElementsEach is the per-string reference decode: every value and
// payload copied on its own.
func decodeElementsEach(d *wire.Decoder) []Element {
	n := d.Len(2)
	if n == 0 {
		return nil
	}
	out := make([]Element, n)
	for i := range out {
		out[i] = decodeElement(d)
	}
	return out
}

// TestDecodeElementsArena checks the block decode against the per-string
// decode: DeepEqual results and the same consumed length, for lists with
// trailing fields after them.
func TestDecodeElementsArena(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var e wire.Encoder
	for trial := 0; trial < 300; trial++ {
		els := arenaElements(r, r.Intn(12))
		e.Reset()
		encodeElements(&e, els)
		e.Uvarint(77) // a trailing field must be left for the caller
		buf := e.Bytes()

		want := wire.NewDecoder(buf)
		ref := decodeElementsEach(want)
		got := wire.NewDecoder(buf)
		block := decodeElements(got)
		if !reflect.DeepEqual(block, ref) {
			t.Fatalf("trial %d: block decode %q, per-string decode %q", trial, block, ref)
		}
		if got.Uvarint() != 77 || want.Uvarint() != 77 {
			t.Fatalf("trial %d: decoders stopped at different offsets", trial)
		}
		if err := got.Close(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestDecodeElementsArenaIsolation checks that elements sliced from one
// block stay independent: appending to one element's values must not
// overwrite the next element's.
func TestDecodeElementsArenaIsolation(t *testing.T) {
	var e wire.Encoder
	encodeElements(&e, []Element{
		{Values: []string{"a", "b"}, Data: "one"},
		{Values: []string{"c", "d"}, Data: "two"},
	})
	els := decodeElements(wire.NewDecoder(e.Bytes()))
	els[0].Values = append(els[0].Values, "x")
	if els[1].Values[0] != "c" {
		t.Fatalf("append to element 0 clobbered element 1: %q", els[1].Values)
	}
}

// TestDecodeElementsArenaCorrupt checks that truncated blocks and hostile
// counts fail the decode instead of allocating or slicing out of range.
func TestDecodeElementsArenaCorrupt(t *testing.T) {
	var e wire.Encoder
	encodeElements(&e, []Element{{Values: []string{"computer", "network"}, Data: "doc"}})
	full := e.Bytes()
	for cut := 1; cut < len(full); cut++ {
		d := wire.NewDecoder(full[:cut])
		if els := decodeElements(d); d.Err() == nil {
			t.Fatalf("truncated at %d/%d: decoded %q without error", cut, len(full), els)
		}
	}
	e.Reset()
	e.Uvarint(1 << 40) // element count far beyond the frame
	d := wire.NewDecoder(e.Bytes())
	if decodeElements(d); !errors.Is(d.Err(), wire.ErrCorrupt) {
		t.Fatalf("hostile element count: err = %v", d.Err())
	}
	e.Reset()
	e.Uvarint(1)
	e.Uvarint(1 << 40) // value count far beyond the frame
	d = wire.NewDecoder(e.Bytes())
	if decodeElements(d); !errors.Is(d.Err(), wire.ErrCorrupt) {
		t.Fatalf("hostile value count: err = %v", d.Err())
	}
}

// TestSubResultDecodeAllocs pins the block decode's allocation count: a
// 1,000-element SubResultMsg decodes in at most 4 allocations (element
// block, values, elements, and the message boxed as any) instead of four
// per element. wire.DecodeMessage adds one for its Decoder.
func TestSubResultDecodeAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	els := make([]Element, 1000)
	for i := range els {
		els[i] = Element{Values: []string{fmt.Sprintf("w%d", r.Intn(5000)), "network"}, Data: fmt.Sprintf("doc-%d", i)}
	}
	var e wire.Encoder
	if !wire.EncodeMessage(&e, SubResultMsg{QID: 9, Token: 3, Matches: els}) {
		t.Fatal("SubResultMsg has no binary codec")
	}
	frame := e.Bytes()
	d := wire.NewDecoder(frame)
	tag := d.Uvarint()
	codec := wire.ByTag(tag)
	var got any
	allocs := testing.AllocsPerRun(50, func() {
		d.Reset(frame)
		d.Uvarint()
		got = codec.Decode(d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if m := got.(SubResultMsg); !reflect.DeepEqual(m.Matches, els) {
		t.Fatal("decoded matches differ from the encoded ones")
	}
	if allocs > 4 {
		t.Errorf("SubResultMsg with 1000 elements: %v allocs/op on decode, want <= 4", allocs)
	}
}
