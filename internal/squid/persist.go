package squid

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"squid/internal/chord"
	"squid/internal/sfc"
)

// storeImage is the serialized form of a Store.
type storeImage struct {
	Version int
	Keys    []uint64
	Buckets [][]Element
}

const storeImageVersion = 1

// WriteTo serializes the store (gob). Implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.mu.RLock()
	img := storeImage{Version: storeImageVersion, Keys: slices.Clone(s.keys), Buckets: slices.Clone(s.buckets)}
	s.mu.RUnlock()
	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(img); err != nil {
		return cw.n, fmt.Errorf("squid: store save: %w", err)
	}
	return cw.n, nil
}

// ReadFrom replaces the store's contents with a serialized image. The
// image's key and bucket arrays are adopted as they are, so they must
// already be in the store's layout: keys strictly ascending, no bucket
// empty. Any other image is rejected and the store left unchanged.
// Implements io.ReaderFrom.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	var img storeImage
	if err := gob.NewDecoder(cr).Decode(&img); err != nil {
		return cr.n, fmt.Errorf("squid: store load: %w", err)
	}
	if img.Version != storeImageVersion {
		return cr.n, fmt.Errorf("squid: store image version %d unsupported", img.Version)
	}
	if len(img.Keys) != len(img.Buckets) {
		return cr.n, fmt.Errorf("squid: corrupt store image: %d keys, %d buckets", len(img.Keys), len(img.Buckets))
	}
	for i, k := range img.Keys {
		if i > 0 && k <= img.Keys[i-1] {
			return cr.n, fmt.Errorf("squid: corrupt store image: key %d at position %d follows key %d", k, i, img.Keys[i-1])
		}
		if len(img.Buckets[i]) == 0 {
			return cr.n, fmt.Errorf("squid: corrupt store image: empty bucket under key %d", k)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys, s.buckets = img.Keys, img.Buckets
	for _, k := range s.keys {
		s.markDirty(k)
	}
	return cr.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// SaveState serializes the engine's primary store (replicas are soft state
// rebuilt by PushReplicas). squid-node uses it to survive restarts.
func (e *Engine) SaveState(w io.Writer) error {
	_, err := e.store.WriteTo(w)
	return err
}

// LoadState restores a saved store. Call before joining a ring; after the
// join completes, run ReconcileOwnership so items whose arc moved while
// the node was down are re-routed to their current owners.
func (e *Engine) LoadState(r io.Reader) error {
	_, err := e.store.ReadFrom(r)
	return err
}

// ReconcileOwnership re-publishes every stored item this node no longer
// owns (after a restart-and-rejoin, ownership may have shifted). Returns
// how many items were re-routed.
func (e *Engine) ReconcileOwnership() int {
	var stale []chord.Item
	e.store.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(key uint64, elem Element) {
		if !e.node.Owns(chord.ID(key)) {
			stale = append(stale, chord.Item{Key: chord.ID(key), Value: elem})
		}
	})
	for _, it := range stale {
		elem := it.Value.(Element)
		e.node.Route(it.Key, PublishMsg{Elem: elem}, 0)
	}
	// Drop the re-routed keys locally; arcs (pred, self] keep the rest.
	if len(stale) > 0 {
		keep := NewStore(e.store.space)
		e.store.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(key uint64, elem Element) {
			if e.node.Owns(chord.ID(key)) {
				keep.Add(key, elem)
			}
		})
		e.store.replaceWith(keep)
	}
	return len(stale)
}
