package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// ringIDSeed fixes the peers' ring identifiers. The ring layout is the
// deployment under test, not a workload input, so it does not follow
// --seed.
const ringIDSeed = 77

// stabilizeEvery is squid-node's default stabilization interval.
const stabilizeEvery = 2 * time.Second

// peer is one Squid node on a loopback TCP endpoint, configured as
// squid-node configures it.
type peer struct {
	node *chord.Node
	eng  *squid.Engine
	ep   *transport.TCPEndpoint
	tap  *tap // nil on untraced runs
}

// ring is a loopback-TCP Squid ring inside this process. Peers are sorted
// by ring identifier.
type ring struct {
	space *keyspace.Space
	reg   *telemetry.Registry
	peers []*peer

	stop chan struct{}
	wg   sync.WaitGroup
}

// newPeer starts one peer with squid-node's engine and chord options plus
// the popular-cluster result cache.
func newPeer(space *keyspace.Space, reg *telemetry.Registry, id uint64, traced bool) (*peer, error) {
	eng := squid.New(space,
		squid.WithSubtreeTimeout(5*time.Second),
		squid.WithQueryDeadline(60*time.Second),
		squid.WithTelemetry(reg),
		squid.WithTraces(telemetry.NewTraceStore(0)),
		squid.WithResultCache(resultCacheSize),
	)
	node := chord.NewNode(chord.Config{
		Space:      chord.Space{Bits: space.IndexBits()},
		RPCTimeout: 5 * time.Second,
		RPCRetries: 3,
		RPCBackoff: 100 * time.Millisecond,
		Telemetry:  reg,
	}, chord.ID(id), eng)
	eng.Attach(node)
	p := &peer{node: node, eng: eng}
	var h transport.Handler = node
	if traced {
		p.tap = &tap{next: node}
		h = p.tap
	}
	ep, err := transport.ListenTCP("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	ep.Instrument(reg)
	node.Start(ep)
	p.ep = ep
	return p, nil
}

// resultCacheSize is the per-peer WithResultCache bound, the size the
// repository's streaming benchmark uses.
const resultCacheSize = 1024

// invokeWait runs fn on p's delivery goroutine and waits for it.
func invokeWait(p *peer, fn func()) error {
	done := make(chan struct{})
	if err := p.node.Invoke(func() { fn(); close(done) }); err != nil {
		return err
	}
	<-done
	return nil
}

// buildRing starts n peers, joins them through the protocol, stabilizes
// until every successor, predecessor and finger is exact, and preloads
// elems at their owners. It then starts squid-node's periodic
// stabilization. Everything here is the set-up the benchmark times.
func buildRing(space *keyspace.Space, n int, elems []squid.Element, traced bool) (*ring, error) {
	r := &ring{space: space, reg: telemetry.NewRegistry(time.Now), stop: make(chan struct{})}
	ids := sim.UniqueIDs(rand.New(rand.NewSource(ringIDSeed)), n, chord.Space{Bits: space.IndexBits()})
	for _, id := range ids {
		p, err := newPeer(space, r.reg, id, traced)
		if err != nil {
			r.close()
			return nil, err
		}
		r.peers = append(r.peers, p)
	}
	first := r.peers[0]
	if err := invokeWait(first, first.node.Create); err != nil {
		r.close()
		return nil, err
	}
	for i, p := range r.peers[1:] {
		if err := r.join(p, first, r.peers[:i+1]); err != nil {
			r.close()
			return nil, err
		}
	}
	sort.Slice(r.peers, func(i, j int) bool { return r.peers[i].node.Self().ID < r.peers[j].node.Self().ID })
	if err := r.settle(); err != nil {
		r.close()
		return nil, err
	}
	if err := r.preload(elems); err != nil {
		r.close()
		return nil, err
	}
	r.wg.Add(1)
	go r.stabilizeLoop()
	return r, nil
}

// join adds p to the ring through seed. A join that races the previous
// one's pointer updates fails its lookup; it is retried after a
// stabilization round of the members so far.
func (r *ring) join(p, seed *peer, members []*peer) error {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		done := make(chan error, 1)
		if ierr := p.node.Invoke(func() {
			p.node.Join(seed.ep.Addr(), func(err error) { done <- err })
		}); ierr != nil {
			return ierr
		}
		if err = <-done; err == nil {
			return nil
		}
		for _, m := range members {
			if ierr := invokeWait(m, func() { m.node.Stabilize() }); ierr != nil {
				return ierr
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("join: %w", err)
}

// settle runs stabilization rounds until the ring is exact.
func (r *ring) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		ok, err := r.exact()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("ring did not stabilize within 30s")
		}
		for _, p := range r.peers {
			if err := p.node.Invoke(func() {
				p.node.CheckPredecessor()
				p.node.Stabilize()
				if round%4 == 3 {
					p.node.RebuildFingers()
				}
			}); err != nil {
				return err
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exact reports whether every peer's predecessor, successor and fingers
// match the sorted membership.
func (r *ring) exact() (bool, error) {
	n := len(r.peers)
	space := chord.Space{Bits: r.space.IndexBits()}
	ok := true
	for i, p := range r.peers {
		var snap chord.Snapshot
		if err := invokeWait(p, func() { snap = p.node.Snapshot() }); err != nil {
			return false, err
		}
		if snap.Pred.Addr != r.peers[(i+n-1)%n].ep.Addr() || len(snap.Succs) == 0 || snap.Succs[0].Addr != r.peers[(i+1)%n].ep.Addr() {
			ok = false
			continue
		}
		for b, f := range snap.Fingers {
			if f.Addr != r.owner(uint64(space.Add(snap.Self.ID, uint64(1)<<uint(b)))).ep.Addr() {
				ok = false
				break
			}
		}
	}
	return ok, nil
}

// ownerIndex returns the index of the peer owning ring key k: its
// successor in identifier order.
func (r *ring) ownerIndex(k uint64) int {
	i := sort.Search(len(r.peers), func(i int) bool { return uint64(r.peers[i].node.Self().ID) >= k })
	return i % len(r.peers)
}

func (r *ring) owner(k uint64) *peer { return r.peers[r.ownerIndex(k)] }

// preload stores every element directly at its owner, as the simulators'
// Preload does.
func (r *ring) preload(elems []squid.Element) error {
	groups := make(map[*peer][]squid.Element)
	for _, e := range elems {
		idx, err := r.space.Index(e.Values)
		if err != nil {
			return err
		}
		p := r.owner(idx)
		groups[p] = append(groups[p], e)
	}
	for p, batch := range groups {
		var err error
		if ierr := invokeWait(p, func() { err = p.eng.StoreDirectBatch(batch) }); ierr != nil {
			return ierr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stabilizeLoop gives every peer squid-node's stabilization tick every
// stabilizeEvery, staggered across peers as independently started nodes
// would be.
func (r *ring) stabilizeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(stabilizeEvery / time.Duration(len(r.peers)))
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-r.stop:
			return
		case <-t.C:
			p := r.peers[i%len(r.peers)]
			_ = p.node.Invoke(func() { // a closed endpoint only ends the run early
				p.node.CheckPredecessor()
				p.node.Stabilize()
				p.node.FixFingers()
			})
		}
	}
}

// elements is the element count summed over every peer's primary store.
func (r *ring) elements() int {
	n := 0
	for _, p := range r.peers {
		n += p.eng.LocalStore().Elements()
	}
	return n
}

// close stops the stabilization loop and every endpoint.
func (r *ring) close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	for _, p := range r.peers {
		_ = p.ep.Close() // teardown: nothing reads the error
	}
}
