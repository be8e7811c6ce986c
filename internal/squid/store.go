package squid

import (
	"cmp"
	"slices"
	"sync"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
)

// Element is one published data element: the tuple of keyword/attribute
// values that indexes it (one value per dimension of the keyword space) and
// an opaque payload (document name, resource URI, ...).
type Element struct {
	Values []string
	Data   string
}

// Store is a node's local fragment of the distributed index: elements
// keyed by their curve index, with ordered access for cluster span scans.
// Keys and their buckets live in two parallel sorted arrays — the layout
// the store image serializes — so a span scan is one binary search and a
// walk over contiguous memory.
//
// Mutations are confined to the node's delivery goroutine, like all engine
// state. Reads additionally happen on query-scheduler workers, so an
// internal RWMutex makes every read atomic with respect to concurrent
// mutation: a span scan sees either all or none of a handover, never half
// of one.
type Store struct {
	mu    sync.RWMutex
	space chord.Space
	// keys holds the stored curve indexes in ascending order; buckets[i]
	// holds the elements under keys[i] in insertion order and is never
	// empty.
	keys    []uint64    //lint:guarded-by mu
	buckets [][]Element //lint:guarded-by mu

	// dirty accumulates keys mutated since the last TakeDirty, for delta
	// replication pushes. nil unless TrackDirty was called: stores that are
	// never replicated (replica buffers, Replicas=0 deployments) skip the
	// bookkeeping entirely.
	dirty map[uint64]struct{} //lint:guarded-by mu
}

// NewStore returns an empty store over the given identifier space.
func NewStore(space chord.Space) *Store {
	return &Store{space: space}
}

// TrackDirty enables dirty-key tracking. Mutations from this point on are
// recorded and handed out by TakeDirty.
func (s *Store) TrackDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty == nil {
		s.dirty = make(map[uint64]struct{})
	}
}

//lint:holds s.mu
func (s *Store) markDirty(key uint64) {
	if s.dirty != nil {
		s.dirty[key] = struct{}{}
	}
}

// search returns the position of the first stored key >= key.
//
//lint:allocfree
//lint:holds s.mu
func (s *Store) search(key uint64) int {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the position of key and whether it is stored.
//
//lint:holds s.mu
func (s *Store) find(key uint64) (int, bool) {
	i := s.search(key)
	return i, i < len(s.keys) && s.keys[i] == key
}

// TakeDirty appends the tracked dirty keys to dst in ascending order and
// clears the tracking set. Keys whose items were since removed entirely are
// skipped (deletions are not delta-replicated; they age out on full pushes).
func (s *Store) TakeDirty(dst []uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := len(dst)
	for k := range s.dirty {
		if _, ok := s.find(k); ok {
			dst = append(dst, k)
		}
		delete(s.dirty, k)
	}
	slices.Sort(dst[base:])
	return dst
}

// SnapshotKeys copies the stored items under exactly the given keys (the
// delta counterpart of Snapshot). Keys with nothing stored are skipped.
func (s *Store) SnapshotKeys(keys []uint64) []chord.Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chord.Item, 0, len(keys))
	for _, k := range keys {
		if i, ok := s.find(k); ok {
			out = append(out, chord.Item{Key: chord.ID(k), Value: slices.Clone(s.buckets[i])})
		}
	}
	return out
}

// Add stores an element under its curve index. Multiple elements may share
// a key (distinct documents with the same keyword tuple, or tuples that
// truncate to the same coordinates).
func (s *Store) Add(key uint64, e Element) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(key, e)
}

//lint:holds s.mu
func (s *Store) addLocked(key uint64, e Element) {
	i, ok := s.find(key)
	if ok {
		s.buckets[i] = append(s.buckets[i], e)
	} else {
		s.keys = slices.Insert(s.keys, i, key)
		s.buckets = slices.Insert(s.buckets, i, []Element{e})
	}
	s.markDirty(key)
}

// Keys returns the number of distinct keys stored — the paper's load
// metric.
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keys)
}

// Elements returns the total number of stored elements.
func (s *Store) Elements() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, b := range s.buckets {
		n += len(b)
	}
	return n
}

// ScanSpan calls fn for every stored element whose key lies in the
// inclusive index interval, in key order. The read lock is held for the
// whole scan, so fn must not mutate the store; scheduler workers rely on
// the scan being atomic with respect to concurrent handovers.
func (s *Store) ScanSpan(span sfc.Interval, fn func(key uint64, e Element)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := s.search(span.Lo); i < len(s.keys) && s.keys[i] <= span.Hi; i++ {
		for _, e := range s.buckets[i] {
			fn(s.keys[i], e)
		}
	}
}

// AppendMatches appends to dst every element stored in the inclusive index
// interval that m accepts, in key order — ScanSpan with the query's exact
// filter applied in place. Like ScanSpan it is atomic with respect to
// concurrent mutation.
func (s *Store) AppendMatches(dst []Element, span sfc.Interval, m *keyspace.Matcher) []Element {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appendMatches(dst, span, m)
}

// appendMatches is AppendMatches' scan loop.
//
//lint:allocfree
//lint:holds s.mu
func (s *Store) appendMatches(dst []Element, span sfc.Interval, m *keyspace.Matcher) []Element {
	for i := s.search(span.Lo); i < len(s.keys) && s.keys[i] <= span.Hi; i++ {
		bucket := s.buckets[i]
		for j := range bucket {
			if m.Match(bucket[j].Values) {
				dst = append(dst, bucket[j])
			}
		}
	}
	return dst
}

// At returns the elements stored under exactly key. The returned slice is
// the live bucket: callers must not retain it across a mutation (all
// current callers run on the delivery goroutine and consume it in place).
func (s *Store) At(key uint64) []Element {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i, ok := s.find(key); ok {
		return s.buckets[i]
	}
	return nil
}

// Snapshot copies every stored item (for replication pushes).
func (s *Store) Snapshot() []chord.Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chord.Item, len(s.keys))
	for i, k := range s.keys {
		out[i] = chord.Item{Key: chord.ID(k), Value: slices.Clone(s.buckets[i])}
	}
	return out
}

// AddUnique stores the element unless an identical one (same values and
// payload) already exists under the key; reports whether it was added.
// Replication uses it so repeated pushes and promotions never duplicate.
func (s *Store) AddUnique(key uint64, e Element) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.find(key); ok && indexOf(s.buckets[i], e) >= 0 {
		return false
	}
	s.addLocked(key, e)
	return true
}

// indexOf returns the position of the first element of bucket identical to
// e (same values and payload), or -1.
func indexOf(bucket []Element, e Element) int {
	for i, have := range bucket {
		if have.Data == e.Data && slices.Equal(have.Values, e.Values) {
			return i
		}
	}
	return -1
}

// AddBatch bulk-loads items: elements under stored keys are appended to
// their buckets, and the elements under fresh keys are sorted once and
// merged into the key arrays in one pass, so loading n items costs
// O(n log n + existing) instead of the O(n·existing) of n Add calls.
// Non-element item values are skipped.
func (s *Store) AddBatch(items []chord.Item) {
	s.addBatch(items, false)
}

// AddBatchUnique is AddBatch with AddUnique's dedup semantics; it returns
// how many elements were actually added.
func (s *Store) AddBatchUnique(items []chord.Item) int {
	return s.addBatch(items, true)
}

// freshRef places one batch element bound for a key not yet stored: its
// key and its position in the batch.
type freshRef struct {
	key uint64
	pos int
}

func (s *Store) addBatch(items []chord.Item, unique bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	var fresh []freshRef
	var pending []Element
	for _, it := range items {
		bucket, ok := it.Value.([]Element)
		if !ok {
			continue
		}
		key := uint64(it.Key)
		i, stored := s.find(key)
		for _, e := range bucket {
			if !stored {
				fresh = append(fresh, freshRef{key, len(pending)})
				pending = append(pending, e)
				continue
			}
			if unique && indexOf(s.buckets[i], e) >= 0 {
				continue
			}
			s.buckets[i] = append(s.buckets[i], e)
			s.markDirty(key)
			added++
		}
	}
	if len(fresh) > 0 {
		added += s.mergeFresh(fresh, pending, unique)
	}
	return added
}

// mergeFresh merges batch elements under keys not yet stored into the key
// arrays: one sort by (key, batch position), so batch order survives
// within a key, then one merge pass. The fresh buckets share one backing
// array, each capped at its own length so that a later append to one
// reallocates instead of overwriting its neighbour. It returns how many
// elements were added.
//
//lint:holds s.mu
func (s *Store) mergeFresh(fresh []freshRef, pending []Element, unique bool) int {
	slices.SortFunc(fresh, func(a, b freshRef) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	n := len(s.keys)
	for i := range fresh {
		if i == 0 || fresh[i].key != fresh[i-1].key {
			n++
		}
	}
	keys := make([]uint64, 0, n)
	buckets := make([][]Element, 0, n)
	elems := make([]Element, 0, len(fresh))
	old := 0
	for lo := 0; lo < len(fresh); {
		key, start := fresh[lo].key, len(elems)
		hi := lo
		for ; hi < len(fresh) && fresh[hi].key == key; hi++ {
			e := pending[fresh[hi].pos]
			if unique && indexOf(elems[start:], e) >= 0 {
				continue
			}
			elems = append(elems, e)
		}
		for ; old < len(s.keys) && s.keys[old] < key; old++ {
			keys, buckets = append(keys, s.keys[old]), append(buckets, s.buckets[old])
		}
		keys, buckets = append(keys, key), append(buckets, elems[start:len(elems):len(elems)])
		s.markDirty(key)
		lo = hi
	}
	s.keys, s.buckets = append(keys, s.keys[old:]...), append(buckets, s.buckets[old:]...)
	return len(elems)
}

// Remove deletes the first stored element under key equal to e (same
// values and payload); reports whether anything was removed.
func (s *Store) Remove(key uint64, e Element) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(key)
	if !ok {
		return false
	}
	j := indexOf(s.buckets[i], e)
	if j < 0 {
		return false
	}
	if len(s.buckets[i]) == 1 {
		s.keys = slices.Delete(s.keys, i, i+1)
		s.buckets = slices.Delete(s.buckets, i, i+1)
	} else {
		s.buckets[i] = slices.Delete(s.buckets[i], j, j+1)
	}
	s.markDirty(key)
	return true
}

// MedianKey returns the median stored key — the split point the runtime
// load-balancing algorithms use to halve a node's arc. ok is false when
// the store is empty.
func (s *Store) MedianKey() (key uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.keys) == 0 {
		return 0, false
	}
	return s.keys[len(s.keys)/2], true
}

// HandoverOut removes and returns all items whose keys lie in the ring arc
// (a, b], for transfer to a new owner.
func (s *Store) HandoverOut(a, b chord.ID) []chord.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	var items []chord.Item
	kept := 0
	for i, k := range s.keys {
		if s.space.Between(chord.ID(k), a, b) {
			items = append(items, chord.Item{Key: chord.ID(k), Value: s.buckets[i]})
		} else {
			s.keys[kept], s.buckets[kept] = k, s.buckets[i]
			kept++
		}
	}
	clear(s.buckets[kept:])
	s.keys, s.buckets = s.keys[:kept], s.buckets[:kept]
	return items
}

// replaceWith adopts o's contents wholesale (restart reconciliation). The
// receiver's own lock stays in place — copying a Store by value would copy
// its RWMutex.
func (s *Store) replaceWith(o *Store) {
	s.mu.Lock()
	o.mu.Lock()
	s.keys, s.buckets, s.dirty = o.keys, o.buckets, o.dirty
	o.mu.Unlock()
	s.mu.Unlock()
}

// HandoverIn ingests items transferred from another node.
func (s *Store) HandoverIn(items []chord.Item) {
	s.AddBatch(items)
}
