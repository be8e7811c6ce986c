package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"squid/internal/keyspace"
	"squid/internal/squid"
)

// Elements carry their benchmark id as Data, so results are checked
// without retaining the matched elements themselves.
func makeElement(id int, values []string) squid.Element {
	return squid.Element{Values: values, Data: strconv.Itoa(id)}
}

// elemID parses an element's id back out of its Data.
func elemID(e squid.Element) int32 {
	n, err := strconv.Atoi(e.Data)
	if err != nil {
		return -1
	}
	return int32(n)
}

// oracle answers queries by brute force over the benchmark's own data:
// elements are indexed by their first-axis coordinate, every candidate
// inside a query's first-axis interval is checked against the other
// axes' intervals and then with the keyword space's exact filter.
type oracle struct {
	space  *keyspace.Space
	elems  []squid.Element // preloaded elements, by id
	coords [][]uint64      // per element: coordinate on each axis
	order  []int32         // ids sorted by first-axis coordinate
}

func newOracle(space *keyspace.Space, elems []squid.Element) (*oracle, error) {
	o := &oracle{space: space, elems: elems, coords: make([][]uint64, len(elems)), order: make([]int32, len(elems))}
	for i, e := range elems {
		pt, err := space.Point(e.Values)
		if err != nil {
			return nil, err
		}
		o.coords[i] = pt
		o.order[i] = int32(i)
	}
	sort.Slice(o.order, func(a, b int) bool { return o.coords[o.order[a]][0] < o.coords[o.order[b]][0] })
	return o, nil
}

// matches returns the sorted ids of every preloaded element matching q.
func (o *oracle) matches(q keyspace.Query) ([]int32, error) {
	dims := o.space.Dims()
	lo := make([]uint64, dims)
	hi := make([]uint64, dims)
	for d := 0; d < dims; d++ {
		t := keyspace.Wildcard()
		if d < len(q) {
			t = q[d]
		}
		iv, err := o.space.Dimension(d).Interval(t)
		if err != nil {
			return nil, err
		}
		lo[d], hi[d] = iv.Lo, iv.Hi
	}
	i := sort.Search(len(o.order), func(i int) bool { return o.coords[o.order[i]][0] >= lo[0] })
	var out []int32
	for ; i < len(o.order); i++ {
		id := o.order[i]
		c := o.coords[id]
		if c[0] > hi[0] {
			break
		}
		inside := true
		for d := 1; d < dims; d++ {
			if c[d] < lo[d] || c[d] > hi[d] {
				inside = false
				break
			}
		}
		if inside && o.space.Matches(q, o.elems[id].Values) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// answerAll computes the oracle for every query, on all CPUs.
func (o *oracle) answerAll(qs []keyspace.Query) ([][]int32, error) {
	out := make([][]int32, len(qs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				m, err := o.matches(qs[i])
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = m
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkResult compares one query's returned ids with the oracle. Every
// expected id must be present exactly once; an id beyond the expected set
// is allowed only if extraOK accepts it (elements published during the
// run). got is sorted in place.
func checkResult(want, got []int32, extraOK func(id int32) bool) error {
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	j := 0
	for i, id := range got {
		if i > 0 && got[i-1] == id {
			return fmt.Errorf("element %d returned twice", id)
		}
		if j < len(want) && want[j] < id {
			return fmt.Errorf("missing element %d", want[j])
		}
		if j < len(want) && want[j] == id {
			j++
			continue
		}
		if extraOK == nil || !extraOK(id) {
			return fmt.Errorf("unexpected element %d", id)
		}
	}
	if j < len(want) {
		return fmt.Errorf("missing element %d (%d of %d expected returned)", want[j], j, len(want))
	}
	return nil
}
