package squid

import (
	"strconv"
	"strings"

	"squid/internal/keyspace"
	"squid/internal/sfc"
)

// resultCache is the engine's bounded popular-cluster result cache: the
// matches of leaf subtrees — cluster batches this node resolved entirely
// against its local store — keyed by (query, cluster set). Zipf keyword
// popularity concentrates queries on a handful of refined clusters, so a
// small cache absorbs the bulk of repeat refinement work: a hit answers the
// incoming ClusterQueryMsg immediately, skipping the scheduler, the Hilbert
// refinement walk, and the store scan.
//
// Only leaf subtrees are cached, deliberately: their matches depend on
// nothing but the local store's content inside the clusters' spans, so the
// dirty-key tracking the store already runs for delta replication (PR 2) is
// an exact invalidation signal. Subtrees with remote children aggregate
// other nodes' data, which local tracking cannot see — those are never
// cached, so a hit is always as fresh as the local store.
//
// Like all engine state the cache is confined to the node's delivery
// goroutine; eviction is FIFO (matching the probe cache's idiom), sized by
// Options.ResultCacheSize. Entries sit in a fixed slot array threaded into
// a FIFO list by slot index, so eviction and invalidation unlink one slot
// in O(1) and the key index never needs rewriting.
type resultCacheEntry struct {
	key        string
	spans      []sfc.Interval // curve spans covered, for dirty-key invalidation
	matches    []Element
	prev, next int // FIFO neighbours (slot indexes); -1 at the ends
}

type resultCache struct {
	max   int
	slots []resultCacheEntry //lint:confine delivery
	// free holds vacated slot indexes for reuse.
	free []int //lint:confine delivery
	// head is the oldest entry's slot, tail the newest's; -1 when empty.
	head, tail int //lint:confine delivery
	// byKey indexes live entries' slots by cache key.
	byKey map[string]int //lint:confine delivery
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, head: -1, tail: -1, byKey: make(map[string]int, max)}
}

// cacheKey fingerprints one incoming cluster batch: the canonical query
// text plus every cluster's prefix/level/complete triple. Identical repeat
// queries refine identically over a stable ring, so popular traffic
// collapses onto few keys.
func resultCacheKey(q keyspace.Query, cls []ClusterRef) string {
	var b strings.Builder
	b.WriteString(q.String())
	for _, c := range cls {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(c.Prefix, 16))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(c.Level))
		if c.Complete {
			b.WriteByte('!')
		}
	}
	return b.String()
}

// get returns the cached matches for key, if present.
func (rc *resultCache) get(key string) ([]Element, bool) {
	i, ok := rc.byKey[key]
	if !ok {
		return nil, false
	}
	return rc.slots[i].matches, true
}

// put stores a completed leaf subtree's matches, evicting FIFO beyond the
// configured size. A re-put under an existing key replaces it in place
// (same clusters re-resolved after an invalidation), keeping its FIFO
// position.
func (rc *resultCache) put(key string, spans []sfc.Interval, matches []Element) {
	if i, ok := rc.byKey[key]; ok {
		rc.slots[i].spans, rc.slots[i].matches = spans, matches
		return
	}
	if len(rc.byKey) >= rc.max {
		rc.unlink(rc.head)
	}
	var i int
	if n := len(rc.free); n > 0 {
		i, rc.free = rc.free[n-1], rc.free[:n-1]
	} else {
		i = len(rc.slots)
		rc.slots = append(rc.slots, resultCacheEntry{})
	}
	rc.slots[i] = resultCacheEntry{key: key, spans: spans, matches: matches, prev: rc.tail, next: -1}
	if rc.tail >= 0 {
		rc.slots[rc.tail].next = i
	} else {
		rc.head = i
	}
	rc.tail = i
	rc.byKey[key] = i
}

// unlink removes the entry in slot i and frees the slot.
func (rc *resultCache) unlink(i int) {
	e := &rc.slots[i]
	if e.prev >= 0 {
		rc.slots[e.prev].next = e.next
	} else {
		rc.head = e.next
	}
	if e.next >= 0 {
		rc.slots[e.next].prev = e.prev
	} else {
		rc.tail = e.prev
	}
	delete(rc.byKey, e.key)
	*e = resultCacheEntry{}
	rc.free = append(rc.free, i)
}

// invalidate drops every entry whose covered spans contain the mutated
// curve index — the cache-side consumer of the store's dirty-key signal.
func (rc *resultCache) invalidate(idx uint64) {
	for i := rc.head; i >= 0; {
		next := rc.slots[i].next
		for _, sp := range rc.slots[i].spans {
			if idx >= sp.Lo && idx <= sp.Hi {
				rc.unlink(i)
				break
			}
		}
		i = next
	}
}

// clear drops everything — the safe response to bulk ownership changes
// (handovers, replica promotion) whose touched key set is not enumerated.
func (rc *resultCache) clear() {
	clear(rc.slots) // release the cached matches
	rc.slots, rc.free = rc.slots[:0], rc.free[:0]
	rc.head, rc.tail = -1, -1
	clear(rc.byKey)
}
