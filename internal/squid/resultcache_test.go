package squid

import (
	"fmt"
	"slices"
	"testing"

	"squid/internal/sfc"
)

// fifoOrder walks the cache's FIFO list from the oldest entry.
func (rc *resultCache) fifoOrder() []string {
	var keys []string
	for i := rc.head; i >= 0; i = rc.slots[i].next {
		keys = append(keys, rc.slots[i].key)
	}
	return keys
}

// TestResultCacheFIFO drives the cache through several wraps of its slot
// array, with invalidations in the middle of the FIFO, against a plain
// slice model of FIFO eviction: same live keys, same order, same hits.
func TestResultCacheFIFO(t *testing.T) {
	const size = 4
	rc := newResultCache(size)
	var model []string // live keys, oldest first
	spanOf := func(n int) []sfc.Interval { return []sfc.Interval{{Lo: uint64(10 * n), Hi: uint64(10*n + 5)}} }
	push := func(k string) {
		if len(model) >= size {
			model = model[1:]
		}
		model = append(model, k)
	}
	check := func(step string) {
		t.Helper()
		if got := rc.fifoOrder(); !slices.Equal(got, model) {
			t.Fatalf("%s: FIFO order %v, want %v", step, got, model)
		}
		if len(rc.byKey) != len(model) {
			t.Fatalf("%s: %d indexed keys, want %d", step, len(rc.byKey), len(model))
		}
		for _, k := range model {
			m, ok := rc.get(k)
			if !ok || len(m) != 1 || m[0].Data != k {
				t.Fatalf("%s: get(%s) = %v, %v", step, k, m, ok)
			}
		}
	}
	for n := 0; n < 6*size; n++ {
		k := fmt.Sprintf("q%d", n)
		rc.put(k, spanOf(n), []Element{{Data: k}})
		push(k)
		check("put " + k)
		if n%5 == 3 {
			// Invalidate an entry in the middle of the FIFO by a curve
			// index inside its span only.
			victim := len(model) / 2
			var m int
			fmt.Sscanf(model[victim], "q%d", &m)
			rc.invalidate(uint64(10*m + 2))
			model = slices.Delete(model, victim, victim+1)
			check(fmt.Sprintf("invalidate q%d", m))
		}
	}
	// A re-put keeps its FIFO position.
	rc.put(model[0], spanOf(0), []Element{{Data: model[0]}})
	check("re-put oldest")

	// An index outside every span invalidates nothing; one inside several
	// spans drops them all.
	rc.invalidate(1 << 40)
	check("invalidate miss")
	rc.put("wide", []sfc.Interval{{Lo: 0, Hi: 1 << 20}}, []Element{{Data: "wide"}})
	push("wide")
	check("put wide")
	var last int
	fmt.Sscanf(model[len(model)-2], "q%d", &last)
	rc.invalidate(uint64(10*last + 1))
	model = slices.DeleteFunc(model, func(k string) bool { return k == "wide" || k == fmt.Sprintf("q%d", last) })
	check("invalidate overlap")

	rc.clear()
	model = nil
	check("clear")
	rc.put("again", spanOf(1), []Element{{Data: "again"}})
	push("again")
	check("put after clear")
}
