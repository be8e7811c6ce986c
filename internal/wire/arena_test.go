package wire

import (
	"errors"
	"testing"
)

// TestArenaStrings checks the arena primitives against String: a run
// walked with SkipString, copied once with ArenaFrom and re-read with
// ArenaString yields the same strings and ends at the same offset.
func TestArenaStrings(t *testing.T) {
	words := []string{"computer", "", "résumé", "net"}
	var e Encoder
	e.Uvarint(5)
	for _, w := range words {
		e.String(w)
	}
	e.U64(42)
	frame := e.Bytes()

	d := NewDecoder(frame)
	d.Uvarint()
	start := d.Offset()
	for range words {
		d.SkipString()
	}
	end := d.Offset()
	a := d.ArenaFrom(start)
	if d.Offset() != start {
		t.Fatalf("ArenaFrom left the decoder at %d, want %d", d.Offset(), start)
	}
	for _, w := range words {
		if got := d.ArenaString(a); got != w {
			t.Fatalf("ArenaString = %q, want %q", got, w)
		}
	}
	if d.Offset() != end || d.U64() != 42 {
		t.Fatalf("arena re-read ended at %d, want %d", d.Offset(), end)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaStringsCorrupt checks that the arena primitives fail like the
// copying ones: a truncated skip, and a string reaching past the arena's
// run, set the sticky error instead of slicing out of range.
func TestArenaStringsCorrupt(t *testing.T) {
	var e Encoder
	e.String("abc")
	e.String("defgh")
	frame := e.Bytes()

	d := NewDecoder(frame[:len(frame)-1])
	d.SkipString()
	d.SkipString()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("truncated SkipString: err = %v", d.Err())
	}

	// An arena holding only the first string cannot serve the second.
	d = NewDecoder(frame)
	d.SkipString()
	a := d.ArenaFrom(0)
	if got := d.ArenaString(a); got != "abc" {
		t.Fatalf("ArenaString = %q", got)
	}
	if got := d.ArenaString(a); got != "" || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("string past the arena: %q, err = %v", got, d.Err())
	}
}
