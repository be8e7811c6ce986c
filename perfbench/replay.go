package main

import (
	"sort"
	"time"

	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/squid"
	"squid/internal/wire"
)

// layout is a ring as the replays see it: peer identifiers in ring order
// and each peer's primary store.
type layout struct {
	space  *keyspace.Space
	ids    []uint64
	stores []*squid.Store
}

func ringLayout(r *ring) layout {
	l := layout{space: r.space}
	for _, p := range r.peers {
		l.ids = append(l.ids, uint64(p.node.Self().ID))
		l.stores = append(l.stores, p.eng.LocalStore())
	}
	return l
}

// leaf is a cluster resolved entirely inside one peer's arc.
type leaf struct {
	span  sfc.Interval
	owner int
}

// refine replays the engine's distributed refinement of one region: the
// initiator's coarse clusters (CoarseClustersInto with the engine's
// default 2^d breadth), then RefineStepInto on every cluster whose span
// crosses a peer boundary, until each cluster lies inside one arc. It
// appends the leaves to dst.
func (l layout) refine(dst []leaf, region sfc.Region, sc *sfc.Scratch, frontier []sfc.Refined) ([]leaf, []sfc.Refined) {
	curve := l.space.Curve()
	frontier = sfc.CoarseClustersInto(frontier[:0], curve, region, 1<<l.space.Dims(), sc)
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		span := x.Span(curve)
		// Inside one arc iff no peer identifier lies in [Lo, Hi).
		i := sort.Search(len(l.ids), func(i int) bool { return l.ids[i] >= span.Lo })
		if i == len(l.ids) || l.ids[i] >= span.Hi {
			dst = append(dst, leaf{span: span, owner: i % len(l.ids)})
			continue
		}
		frontier = sfc.RefineStepInto(frontier, curve, x.Cluster, region, sc)
	}
	return dst, frontier
}

// replayLayers times the query path's local layers on the run's queries:
// keyspace.Space.Region, the sfc refinement down to peer arcs, and
// Store.ScanSpan with the exact filter at each leaf's owner.
func replayLayers(rep *report, l layout, qs []keyspace.Query) {
	n := float64(max(len(qs), 1))
	const reps = 5

	regions := make([]sfc.Region, len(qs))
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		for i, q := range qs {
			r, err := l.space.Region(q)
			if err != nil {
				rep.fail("region of %s: %v", q, err)
				return
			}
			regions[i] = r
		}
	}
	rep.set("keyspace.region_us_per_query", float64(time.Since(t0).Microseconds())/(reps*n))

	var sc sfc.Scratch
	var frontier []sfc.Refined
	leaves := make([][]leaf, len(qs))
	t0 = time.Now()
	for k := 0; k < reps; k++ {
		for i, r := range regions {
			leaves[i], frontier = l.refine(leaves[i][:0], r, &sc, frontier)
		}
	}
	rep.set("sfc.refine_us_per_query", float64(time.Since(t0).Microseconds())/(reps*n))
	total := 0
	for _, ls := range leaves {
		total += len(ls)
	}
	rep.set("sfc.clusters_per_query", float64(total)/n)

	visited, matched := 0, 0
	t0 = time.Now()
	for i, q := range qs {
		for _, lf := range leaves[i] {
			l.stores[lf.owner].ScanSpan(lf.span, func(_ uint64, e squid.Element) {
				visited++
				if l.space.Matches(q, e.Values) {
					matched++
				}
			})
		}
	}
	rep.set("store.scan_us_per_query", float64(time.Since(t0).Microseconds())/n)
	rep.set("store.visited_per_match", ratio(float64(visited), float64(matched)))
}

// wireReplay encodes and decodes the sampled messages of each kind with
// the binary wire codec and reports mean frame-body size and per-message
// encode and decode time.
func wireReplay(rep *report, samples [8][]any) {
	const reps = 50
	var enc wire.Encoder
	for k, name := range deliverKinds {
		var bytes, encNS, decNS float64
		n := 0
		for _, msg := range samples[k] {
			enc.Reset()
			if !wire.EncodeMessage(&enc, msg) {
				continue
			}
			body := append([]byte(nil), enc.Bytes()...)
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				enc.Reset()
				wire.EncodeMessage(&enc, msg)
			}
			encNS += float64(time.Since(t0).Nanoseconds()) / reps
			t0 = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := wire.DecodeMessage(body); err != nil {
					rep.fail("wire decode of %s: %v", name, err)
					return
				}
			}
			decNS += float64(time.Since(t0).Nanoseconds()) / reps
			bytes += float64(len(body))
			n++
		}
		rep.set("wire.bytes_per_msg."+name, ratio(bytes, float64(n)))
		rep.set("wire.encode_ns."+name, ratio(encNS, float64(n)))
		rep.set("wire.decode_ns."+name, ratio(decNS, float64(n)))
	}
}
