package squid

import (
	"sync"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
)

// scheduler runs the CPU-heavy half of query handling — Hilbert refinement
// and local store matching — on a bounded worker pool, so one expensive
// wildcard query no longer head-of-line-blocks every other message on the
// node's delivery goroutine.
//
// The concurrency contract (DESIGN.md §4g):
//
//   - Jobs are submitted only from the delivery goroutine, which captures
//     an immutable arcView of the node's owned arc at submit time. Workers
//     read only that snapshot, the Store (whose readers are lock-protected)
//     and the immutable keyword space — never live engine or node state.
//   - Results return to the delivery goroutine via node.Invoke; all
//     engine/subtree mutation stays confined there. Self-sends are exempt
//     from fault injection, so a completion can only be lost if the node
//     itself died — in which case finish() still runs, keeping the pending
//     count exact for the simulator's quiesce protocol.
//   - Admission control: at most cap jobs may be admitted-but-unfinished;
//     beyond that trySubmit refuses and the caller sheds the work with
//     ErrOverloaded instead of queueing without bound.
//
// A stale arcView is harmless for the same reason a stale probe-cache
// entry is: the store only holds keys the node owns, scans of handed-over
// spans find nothing, and clusters misclassified as remote are re-routed
// by the ring to the current owner, which re-probes authoritatively.
type scheduler struct {
	e       *Engine
	workers int
	cap     int

	mu       sync.Mutex
	jobsCond *sync.Cond   // signaled when queue gains a job (workers wait here)
	idleCond *sync.Cond   // broadcast when pending returns to zero (waitIdle)
	queue    []*refineJob //lint:guarded-by mu
	// pending counts admitted jobs whose completion has not yet run.
	pending int //lint:guarded-by mu
	// started flips when the workers are spawned (lazily, on first submit).
	started bool //lint:guarded-by mu
}

// refineJob carries one batch of clusters from the delivery goroutine to a
// worker, and its completion back.
type refineJob struct {
	qid      QueryID
	q        keyspace.Query
	region   sfc.Region
	clusters []sfc.Refined
	arc      arcView
	enqueued time.Time // registry clock; zero (and wait reads 0) in simulation
	complete func(matches []Element, remote []sfc.Refined, local int)
}

// arcView is the immutable snapshot of a node's owned arc a worker
// classifies clusters against; it mirrors chord.Node.Owns and
// Engine.ownedRunEnd exactly.
type arcView struct {
	node     chord.ID
	space    chord.Space
	self     uint64
	pred     uint64
	predZero bool
	maxIdx   uint64
}

func (a arcView) owns(key uint64) bool {
	if a.predZero {
		return true // transient sole-owner view, as in chord.Node.Owns
	}
	return a.space.Between(chord.ID(key), chord.ID(a.pred), chord.ID(a.self))
}

// runEnd returns the last index of the contiguous owned run containing lo
// (which must be owned): up to the node's identifier for the low/linear
// segment, or the top of the index space when lo lies in the wrap segment
// of an arc that crosses zero.
func (a arcView) runEnd(lo uint64) uint64 {
	if a.predZero {
		return a.maxIdx
	}
	if lo <= a.self {
		return a.self
	}
	return a.maxIdx
}

// arcView snapshots the node's current arc; delivery goroutine only.
func (e *Engine) arcView() arcView {
	maxIdx := ^uint64(0)
	if b := e.space.IndexBits(); b < 64 {
		maxIdx = (uint64(1) << b) - 1
	}
	pred := e.node.Pred()
	return arcView{
		node:     e.node.Self().ID,
		space:    e.node.Space(),
		self:     uint64(e.node.Self().ID),
		pred:     uint64(pred.ID),
		predZero: pred.IsZero(),
		maxIdx:   maxIdx,
	}
}

func newScheduler(e *Engine, workers, cap int) *scheduler {
	s := &scheduler{e: e, workers: workers, cap: cap}
	s.jobsCond = sync.NewCond(&s.mu)
	s.idleCond = sync.NewCond(&s.mu)
	return s
}

// trySubmit admits a job unless the in-flight cap is reached; it never
// blocks (the queue is a slice, not a bounded channel, so very large caps —
// the simulator runs effectively uncapped — cost nothing up front).
// Delivery goroutine only.
func (s *scheduler) trySubmit(j *refineJob) bool {
	s.mu.Lock()
	if s.pending >= s.cap {
		s.mu.Unlock()
		return false
	}
	s.pending++
	depth := s.pending
	s.queue = append(s.queue, j)
	if !s.started {
		s.started = true
		for i := 0; i < s.workers; i++ {
			go s.worker()
		}
	}
	s.jobsCond.Signal()
	s.mu.Unlock()
	s.e.met.schedDepth.Set(int64(depth))
	return true
}

// next blocks until a job is queued and pops it (FIFO: submission order is
// processing order, the scheduling fairness the tests pin).
func (s *scheduler) next() *refineJob {
	s.mu.Lock()
	for len(s.queue) == 0 {
		s.jobsCond.Wait()
	}
	j := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	s.mu.Unlock()
	return j
}

// finish retires one admitted job. It runs on the delivery goroutine for
// live nodes (inside the completion Invoke), or synchronously in the worker
// when the node is already detached — either way exactly once per job.
func (s *scheduler) finish() {
	s.mu.Lock()
	s.pending--
	depth := s.pending
	if s.pending == 0 {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
	s.e.met.schedDepth.Set(int64(depth))
}

// waitIdle blocks until no admitted job is outstanding. Used by the
// simulator's quiesce protocol; safe from any goroutine.
func (s *scheduler) waitIdle() {
	s.mu.Lock()
	for s.pending > 0 {
		s.idleCond.Wait()
	}
	s.mu.Unlock()
}

// depth returns the number of admitted-but-unfinished jobs.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// worker drains the job channel with its own refinement scratch (the
// per-worker counterpart of the engine's zero-alloc buffers).
func (s *scheduler) worker() {
	var scratch sfc.Scratch
	var frontier []sfc.Refined
	e := s.e
	for {
		j := s.next()
		e.met.schedWait.Observe(int64(e.opts.Telemetry.Since(j.enqueued)))
		var matches []Element
		var remote []sfc.Refined
		var local int
		matches, remote, local, frontier = refineClusters(
			e.store, e.space, j.arc, j.qid, j.clusters, j.q, j.region, &scratch, frontier)
		if err := e.node.Invoke(func() {
			j.complete(matches, remote, local)
			s.finish()
		}); err != nil {
			s.finish() // node detached: the query died with its node
		}
	}
}

// refineClusters is processClusters detached from live engine state: it
// resolves the locally owned parts of cls against store and collects the
// parts to forward, classifying ownership against the arc snapshot. It is
// pure with respect to the engine — safe on any goroutine — and returns
// the (reusable) frontier stack to its caller. See Engine.processClusters
// for the run-boundary rationale.
func refineClusters(store *Store, space *keyspace.Space, arc arcView, qid QueryID, cls []sfc.Refined, q keyspace.Query, region sfc.Region, scratch *sfc.Scratch, frontier []sfc.Refined) (matches []Element, remote []sfc.Refined, local int, frontierOut []sfc.Refined) {
	curve := space.Curve()
	match := space.Compile(q)
	frontier = frontier[:0]
	for _, c := range cls {
		if !arc.owns(c.Span(curve).Lo) {
			remote = append(remote, c)
			continue
		}
		local++
		frontier = append(frontier, c)
	}
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		span := x.Span(curve)
		if !arc.owns(span.Lo) {
			remote = append(remote, x)
			continue
		}
		if span.Hi <= arc.runEnd(span.Lo) {
			if debugScan != nil {
				debugScan(arc.node, qid, span)
			}
			// The store holds only keys this node owns; the final filter
			// applies the query's exact semantics (paper: only elements
			// matching all terms are returned).
			matches = store.AppendMatches(matches, span, &match)
			continue
		}
		// Starts inside the owned run but extends beyond it: refine (with
		// region pruning) and reclassify the children.
		frontier = sfc.RefineStepInto(frontier, curve, x.Cluster, region, scratch)
	}
	return matches, remote, local, frontier[:0]
}
