package squid

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// MetricsSink observes query processing for experiment accounting. The
// paper's per-query metrics (processing nodes, data nodes, matches) are
// produced by a sink shared across the simulated network; pass nil to
// disable. Implementations must be safe for concurrent use (engines of
// different nodes run in different goroutines).
type MetricsSink interface {
	// Processed records that a node processed clusters of query qid and
	// found the given number of matching elements there.
	Processed(qid QueryID, node chord.ID, clusters, matches int)
}

// Options tunes an Engine.
type Options struct {
	// DisableAggregation turns off the paper's second query optimization
	// (sibling clusters batched per owner via a probe handshake); each
	// remote cluster is then routed in its own message. For the ablation
	// benchmark.
	DisableAggregation bool
	// InitialClusters caps how many clusters the initiator computes
	// locally before dispatching (the first levels of the refinement
	// tree). Defaults to 2^d — one refinement step, as in the paper's
	// Fig. 7 root.
	InitialClusters int
	// ProbeCacheSize enables caching of owner-probe results at the query
	// root (0 disables): repeated queries over popular regions skip the
	// FindSuccessor handshake — the hot-spot mitigation the paper lists as
	// future work. Stale entries are harmless: a mis-directed batch is
	// re-dispatched by its receiver, which always probes authoritatively.
	ProbeCacheSize int
	// ResultCacheSize bounds the popular-cluster result cache (0 disables):
	// leaf subtrees — cluster batches resolved entirely against the local
	// store — are remembered by (query, cluster set), so Zipf-popular repeat
	// queries skip refinement and scanning. Entries are invalidated by the
	// store's dirty-key signal the moment a covered index mutates; see
	// resultcache.go for why only leaves are cached.
	ResultCacheSize int
	// Replicas is the number of successor copies kept of every stored
	// item (0 disables replication). With r replicas the system tolerates
	// up to r simultaneous adjacent-node failures without losing data,
	// provided PushReplicas runs between failures.
	Replicas int
	// Sink receives per-query processing metrics; may be nil.
	Sink MetricsSink
	// SubtreeTimeout arms a recovery deadline on every dispatched child
	// subtree of a query. A child that has neither replied nor acked
	// within the deadline is re-dispatched through ring routing, which
	// resolves to the *current* owner — after a crash that is the dead
	// node's successor, which holds promoted replicas when Replicas > 0.
	// 0 disables recovery tracking entirely (the simulator's quiesce-based
	// experiments rely on exact message counts).
	SubtreeTimeout time.Duration
	// SubtreeRetries caps re-dispatches per child subtree; once exhausted
	// the child is abandoned and the query degrades to an explicit partial
	// result. Defaults to 3 when SubtreeTimeout > 0.
	SubtreeRetries int
	// QueryDeadline bounds a whole query at its root: on expiry the
	// callback fires once with every match gathered so far and
	// Err = ErrPartialResult. 0 disables; queries then complete only via
	// subtree accounting.
	QueryDeadline time.Duration
	// Workers sizes the query scheduler's worker pool: the goroutines that
	// run Hilbert refinement and local matching off the delivery
	// goroutine, so an expensive wildcard query cannot head-of-line-block
	// the node's message processing. 0 picks a default (GOMAXPROCS,
	// clamped to [2, 8]); < 0 disables the pool and refines inline on the
	// delivery goroutine (the pre-scheduler serial behavior, kept as the
	// ablation baseline).
	Workers int
	// MaxInflight caps refinement jobs admitted but not yet completed on
	// this node. Beyond the cap the engine sheds: a root query fails fast
	// with ErrOverloaded, a remote subtree is refused with a QueryShedMsg
	// and retried by its dispatcher through the recovery path. 0 defaults
	// to max(64, 16*workers); ignored in serial mode.
	MaxInflight int
	// Telemetry receives the engine's metrics as per-node labeled children.
	// Nil gets a private clock-less registry so instrumentation has one
	// code path; share one registry across node and engine to scrape both.
	Telemetry *telemetry.Registry
	// Traces enables query tracing at this node: every query rooted here is
	// sampled, its refinement hops record spans that flow back up the query
	// tree, and the reassembled tree lands in the store on completion. Nil
	// disables sampling for queries rooted here (subtrees of queries rooted
	// at tracing peers are still recorded and shipped up).
	Traces *telemetry.TraceStore
	// Clock supplies the engine's recovery and deadline timers (subtree
	// re-dispatch, overall query deadline). Nil uses the runtime timers
	// (transport.RealClock); the discrete-event simulator injects its
	// virtual clock so recovery runs in virtual time.
	Clock transport.Clock
}

// ErrPartialResult marks a Result gathered under failures: some subtree of
// the query's refinement tree was lost and re-dispatch retries were
// exhausted (or the query deadline expired). Matches are still sound —
// every returned element matches the query — but the set may be missing
// elements held by unreachable nodes.
var ErrPartialResult = errors.New("squid: partial result: query subtree lost to failures")

// RecoverySink is an optional MetricsSink extension: sinks that implement
// it also receive fault-recovery events, correlated by query id.
type RecoverySink interface {
	// Redispatched records that a lost or overdue child subtree was sent
	// again through ring routing.
	Redispatched(qid QueryID)
	// Abandoned records that a child subtree exhausted its re-dispatches.
	Abandoned(qid QueryID)
	// Partial records that the query completed with an incomplete result.
	Partial(qid QueryID)
}

// Result is the outcome of a flexible query: every stored element matching
// the query, gathered from all data nodes.
type Result struct {
	QID     QueryID
	Query   keyspace.Query
	Matches []Element
	Err     error
}

// qidCounter issues process-wide unique query identifiers (results are
// correlated per initiating engine, but metrics need global uniqueness).
var qidCounter atomic.Uint64

func nextQID() QueryID { return QueryID(qidCounter.Add(1)) }

// Engine is the Squid application attached to one chord node. Like the
// node, its state is confined to the node's delivery goroutine: call
// Publish/Query from App upcalls or through node.Invoke.
type Engine struct {
	space    *keyspace.Space
	store    *Store
	replicas *Store
	node     *chord.Node
	opts     Options

	children map[uint64]*childCall //lint:confine delivery
	// roots tracks in-flight queries rooted here; inbound tracks in-flight
	// remote subtrees for cancel teardown.
	roots     map[QueryID]*subtree    //lint:confine delivery
	inbound   map[inboundKey]*subtree //lint:confine delivery
	nextToken uint64                  //lint:confine delivery
	arcCache  []cachedArc             //lint:confine delivery
	rcache    *resultCache            // nil unless Options.ResultCacheSize > 0
	met       engineMetrics
	spanSeq   uint64     //lint:confine delivery
	sched     *scheduler // nil in serial mode (Options.Workers < 0)

	// Per-engine refinement scratch. Engine state is confined to the
	// node's delivery goroutine, so the buffers are reused across queries:
	// the refinement inner loop of processClusters and the coarse
	// decomposition in Query allocate nothing in steady state.
	scratch  sfc.Scratch   //lint:confine delivery
	coarse   []sfc.Refined //lint:confine delivery
	frontier []sfc.Refined //lint:confine delivery

	// Delta-replication state: the keys mutated since the last push and
	// the fingerprint of the replica set the last full push went to.
	dirtyKeys      []uint64 //lint:confine delivery
	lastReplicaSet string   //lint:confine delivery
}

// subtree tracks one node's in-flight piece of a query's refinement tree:
// the matches found locally plus the results still expected from child
// messages. When complete, the aggregate flows to the parent (or, at the
// root, to the query's callback).
type subtree struct {
	qid         QueryID
	q           keyspace.Query
	parent      transport.Addr // empty at the query root
	parentToken uint64
	matches     []Element
	sent        int          // child messages dispatched
	kids        []*childCall // outstanding children, in dispatch order
	done        int          // child results received (or abandoned)
	dispatched  bool         // all child messages have been sent
	incomplete  bool         // some part of the subtree was lost to failures
	finished    bool         // result already delivered; ignore stragglers
	deadline    transport.Timer
	cb          func(Result)
	cancelErr   error         // context cancellation cause; overrides ErrPartialResult
	ctxStop     chan struct{} // closed on completion to release the context watcher

	// Streaming state. A streaming root carries its sink; matches flow out
	// through it as children report instead of accumulating in matches.
	// Non-root subtrees of a streaming query set streamUp and forward each
	// increment to the parent as a PartialResultMsg; forwarded counts the
	// matches already shipped that way so the terminal SubResultMsg carries
	// only the remainder.
	stream    streamSink // non-nil at a streaming root
	limit     int        // stop after this many delivered matches (0 = unlimited)
	afterPos  uint64     // cursor restriction: deliver only curve indices >= afterPos
	afterSkip int        // elements at afterPos already delivered (store order)
	hasPos    bool
	delivered int  // matches pushed to the stream so far
	streamUp  bool // non-root: forward increments to the parent
	forwarded int  // matches already shipped upstream in partials
	cutLo     uint64
	cutSkip   int  // elements at cutLo already delivered
	cutSet    bool // (cutLo, cutSkip) is the lowest coordinate never delivered

	// Ordered (paged) delivery state, used when limit > 0: arriving matches
	// buffer here and flow out in curve order once every lower span has
	// resolved, so the resume cursor advances strictly page over page.
	// runIdx/runCount track how many elements at the highest delivered
	// index went out, for the cursor's skip count. pending holds the
	// coarse clusters (curve-sorted) not yet dispatched: a limited root
	// sends only a window at a time, so clusters past the satisfied point
	// are never dispatched at all — the paper's browsing-query economy.
	buf      []bufferedMatch
	runIdx   uint64
	runCount int
	runSet   bool
	pending  []sfc.Refined

	// Result-cache fill state: set on remote subtrees when the cache is
	// enabled; a leaf completion stores its matches under cacheKey.
	cacheKey   string
	cacheSpans []sfc.Interval

	// Tracing state. spanID is 0 when the query is not sampled; when set,
	// this subtree records one span on completion (attached under ref's
	// parent) and accumulates its children's spans for the trip upward.
	spanID       uint64
	ref          telemetry.TraceRef
	kind         string // "root" or "cluster"
	prefix       uint64 // representative cluster (first of the batch)
	level        int
	clustersIn   int // clusters this subtree received
	localDone    int // clusters resolved against the local store
	localMatches int // matches found locally (st.matches also aggregates children)
	retries      int // re-dispatches this subtree performed on its children
	startNS      int64
	spans        []telemetry.Span
}

// childRef derives the trace context for a child subtree dispatched from
// st: sampled children attach under st's span one level deeper.
func (st *subtree) childRef() telemetry.TraceRef {
	if st.spanID == 0 {
		return telemetry.TraceRef{Mode: telemetry.TraceOff}
	}
	return telemetry.TraceRef{Parent: st.spanID, Depth: st.ref.Depth + 1, Mode: telemetry.TraceOn}
}

// childCall tracks one dispatched child subtree awaiting its SubResultMsg.
// Each child owns a token — replies and acks correlate to the child, so a
// lost child can be re-dispatched individually while the original, if it
// was merely slow, is harmlessly deduplicated (first reply wins, the
// second finds no pending call).
type childCall struct {
	st       *subtree
	token    uint64
	clusters []ClusterRef // re-dispatch payload; nil for exact lookups
	key      uint64       // curve index the re-dispatch routes to
	attempts int
	acked    bool
	timer    transport.Timer
}

// NewEngine creates an engine over the given keyword space from an Options
// struct.
//
// Deprecated: use New with functional options (FromOptions bridges an
// assembled Options struct). NewEngine is kept as a shim for existing
// callers and behaves identically.
func NewEngine(space *keyspace.Space, opts Options) *Engine {
	return newEngine(space, opts)
}

// newEngine is the shared constructor behind New and NewEngine. Attach the
// engine to its node before use:
//
//	eng := squid.New(space, squid.WithReplication(2))
//	node := chord.NewNode(chordCfg, id, eng)
//	eng.Attach(node)
func newEngine(space *keyspace.Space, opts Options) *Engine {
	if opts.InitialClusters <= 0 {
		opts.InitialClusters = 1 << space.Dims()
	}
	if opts.SubtreeTimeout > 0 && opts.SubtreeRetries <= 0 {
		opts.SubtreeRetries = 3
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry(nil)
	}
	if opts.Workers == 0 {
		opts.Workers = max(2, min(8, runtime.GOMAXPROCS(0)))
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = max(64, 16*opts.Workers)
	}
	if opts.Clock == nil {
		opts.Clock = transport.RealClock{}
	}
	e := &Engine{
		space:    space,
		store:    NewStore(chord.Space{Bits: space.IndexBits()}),
		replicas: NewStore(chord.Space{Bits: space.IndexBits()}),
		opts:     opts,
		children: make(map[uint64]*childCall),
		roots:    make(map[QueryID]*subtree),
		inbound:  make(map[inboundKey]*subtree),
	}
	if opts.Replicas > 0 || opts.ResultCacheSize > 0 {
		// Replication pushes deltas and the result cache invalidates by
		// mutated key: both consume the store's dirty tracking.
		e.store.TrackDirty()
	}
	if opts.ResultCacheSize > 0 {
		e.rcache = newResultCache(opts.ResultCacheSize)
	}
	return e
}

// inboundKey addresses one remote subtree this node is processing: the
// dispatcher plus the token it assigned. QueryCancelMsg carries the pair so
// teardown finds the subtree even after riding the ring through
// intermediate hops.
type inboundKey struct {
	from  transport.Addr
	token uint64
}

// noteMutation feeds the result cache the dirty-key signal for one mutated
// curve index: any cached leaf whose span covers it is now stale.
func (e *Engine) noteMutation(idx uint64) {
	if e.rcache != nil {
		e.rcache.invalidate(idx)
	}
}

// noteBulkMutation invalidates the whole result cache after a mutation
// whose touched keys are not enumerated (handover, replica promotion,
// batch preload).
func (e *Engine) noteBulkMutation() {
	if e.rcache != nil {
		e.rcache.clear()
	}
}

// Attach binds the engine to its ring node and resolves the engine's
// per-node metric children (the node identifier is the metric label).
func (e *Engine) Attach(n *chord.Node) {
	e.node = n
	e.met = newEngineMetrics(e.opts.Telemetry, uint64(n.Self().ID))
	if e.opts.Workers > 0 {
		e.sched = newScheduler(e, e.opts.Workers, e.opts.MaxInflight)
	}
}

// WaitIdle blocks until the engine's query scheduler has no admitted
// refinement job outstanding (serial engines are always idle). The
// simulator's quiesce protocol pairs it with transport quiescence; safe
// from any goroutine.
func (e *Engine) WaitIdle() {
	if e.sched != nil {
		e.sched.waitIdle()
	}
}

// SchedulerDepth returns the number of admitted-but-unfinished refinement
// jobs (0 in serial mode). Safe from any goroutine.
func (e *Engine) SchedulerDepth() int {
	if e.sched == nil {
		return 0
	}
	return e.sched.depth()
}

// newSpanID issues a span identifier unique across the query tree: a
// splitmix64-style mix of the node identifier and a per-engine sequence,
// deterministic under the simulator and allocation-free.
func (e *Engine) newSpanID() uint64 {
	e.spanSeq++
	x := uint64(e.node.Self().ID) ^ mix64(e.spanSeq)
	if id := mix64(x); id != 0 {
		return id
	}
	return 1
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nowNS reads the registry's injected clock as Unix nanoseconds; 0 under
// the simulator's nil clock, so span timing never perturbs determinism.
func (e *Engine) nowNS() int64 {
	t := e.opts.Telemetry.Now()
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// span builds this subtree's own completed span.
func (e *Engine) span(st *subtree) telemetry.Span {
	return telemetry.Span{
		QID:      st.qid,
		ID:       st.spanID,
		Parent:   st.ref.Parent,
		Depth:    st.ref.Depth,
		Node:     uint64(e.node.Self().ID),
		Addr:     string(e.node.Self().Addr),
		Kind:     st.kind,
		Prefix:   st.prefix,
		Level:    st.level,
		Clusters: st.clustersIn,
		Local:    st.localDone,
		Children: st.sent,
		Matches:  st.localMatches,
		Retries:  st.retries,
		StartNS:  st.startNS,
		EndNS:    e.nowNS(),
	}
}

// lostSpan marks a child subtree the dispatcher gave up on: the subtree
// never reported, so the dispatcher records a synthetic placeholder in its
// place (the node that should have answered is unknown by definition).
func (e *Engine) lostSpan(st *subtree, c *childCall) telemetry.Span {
	s := telemetry.Span{
		QID:       st.qid,
		ID:        e.newSpanID(),
		Parent:    st.spanID,
		Depth:     st.ref.Depth + 1,
		Kind:      "lost",
		Prefix:    c.key,
		Abandoned: true,
		StartNS:   e.nowNS(),
		EndNS:     e.nowNS(),
	}
	if len(c.clusters) > 0 {
		s.Prefix = c.clusters[0].Prefix
		s.Level = c.clusters[0].Level
		s.Clusters = len(c.clusters)
	}
	return s
}

// Node returns the ring node the engine is attached to.
func (e *Engine) Node() *chord.Node { return e.node }

// Space returns the engine's keyword space.
func (e *Engine) Space() *keyspace.Space { return e.space }

// LocalStore exposes the node's local index fragment (for inspection and
// oracle preloading by the simulator).
func (e *Engine) LocalStore() *Store { return e.store }

// ReplicaStore exposes the node's replica buffer (for inspection by tests
// and the simulator's consistency checks).
func (e *Engine) ReplicaStore() *Store { return e.replicas }

// Publish routes a data element to the node owning its curve index.
func (e *Engine) Publish(elem Element) error {
	idx, err := e.space.Index(elem.Values)
	if err != nil {
		return fmt.Errorf("squid: publish %v: %w", elem.Values, err)
	}
	e.node.Route(chord.ID(idx), PublishMsg{Elem: elem}, 0)
	return nil
}

// Unpublish removes a previously published element (matched by values and
// payload) from the system, including any replicas. Like Publish it is
// fire-and-forget: the removal is routed to the index owner, which fans it
// out to its replica holders.
func (e *Engine) Unpublish(elem Element) error {
	idx, err := e.space.Index(elem.Values)
	if err != nil {
		return fmt.Errorf("squid: unpublish %v: %w", elem.Values, err)
	}
	e.node.Route(chord.ID(idx), UnpublishMsg{Elem: elem}, 0)
	return nil
}

// StoreDirect inserts an element into the local store bypassing routing —
// the simulator's bulk-preload hook. The caller is responsible for having
// picked the owning node.
func (e *Engine) StoreDirect(elem Element) error {
	idx, err := e.space.Index(elem.Values)
	if err != nil {
		return err
	}
	e.store.Add(idx, elem)
	e.noteMutation(idx)
	e.syncKeys()
	return nil
}

// StoreDirectBatch bulk-loads elements into the local store bypassing
// routing, through the store's sorted-merge path — seeding n elements
// costs O(n log n) instead of the O(n²) of n StoreDirect calls.
func (e *Engine) StoreDirectBatch(elems []Element) error {
	items := make([]chord.Item, 0, len(elems))
	for _, elem := range elems {
		idx, err := e.space.Index(elem.Values)
		if err != nil {
			return err
		}
		items = append(items, chord.Item{Key: chord.ID(idx), Value: []Element{elem}})
	}
	e.store.AddBatch(items)
	e.noteBulkMutation()
	e.syncKeys()
	return nil
}

// Query resolves a flexible query and calls cb exactly once with the
// complete result set (all matching elements in the system). It returns
// the query's id for metrics correlation. Query is QueryCtx without
// cancellation; failures that QueryCtx returns synchronously (bad query,
// admission shed) are delivered through cb instead, preserving the
// call-back-exactly-once contract.
//
//lint:entry delivery
func (e *Engine) Query(q keyspace.Query, cb func(Result)) QueryID {
	qid, err := e.QueryCtx(context.Background(), q, cb)
	if err != nil {
		cb(Result{QID: qid, Query: q, Err: err})
	}
	return qid
}

// QueryCtx resolves a flexible query under a context. On success cb fires
// exactly once — from the node's delivery goroutine — with the complete
// result set. A non-nil error means the query was not started and cb will
// never fire: the query string was invalid, the context was already done,
// or the engine shed the query under admission control (errors.Is
// ErrOverloaded; the *OverloadError carries a retry-after hint).
//
// Context cancellation and deadline ride the QueryDeadline machinery: when
// ctx ends first, outstanding child subtrees are cancelled exactly as on a
// deadline expiry and cb fires once with every match gathered so far and
// Err = ctx's error. A ctx deadline therefore bounds the query even when
// it is shorter than the engine's configured QueryDeadline.
//
// Like all engine entry points, call it from App upcalls or through
// node.Invoke.
//
//lint:entry delivery
func (e *Engine) QueryCtx(ctx context.Context, q keyspace.Query, cb func(Result)) (QueryID, error) {
	qid := nextQID()
	e.met.queries.Inc()
	if err := ctx.Err(); err != nil {
		return qid, err
	}
	st := &subtree{qid: qid, q: q, cb: cb, kind: "root"}
	return qid, e.startRoot(ctx, q, st)
}

// startRoot starts a prepared root subtree — callback-delivering
// (QueryCtx) or streaming (QueryStream) — as the root of the distributed
// refinement. A non-nil error means nothing was started and the subtree's
// sink will never fire.
func (e *Engine) startRoot(ctx context.Context, q keyspace.Query, st *subtree) error {
	qid := st.qid
	region, err := e.space.Region(q)
	if err != nil {
		return err
	}
	if region.Empty() {
		st.dispatched = true
		e.sampleRoot(st)
		e.finishSubtree(st)
		return nil
	}

	// Exact queries identify one point: a plain DHT lookup (paper
	// Section 3.4.1).
	if pt, ok := region.IsPoint(); ok {
		idx := e.space.Curve().Encode(pt)
		if st.hasPos && idx < st.afterPos {
			// Resuming past the point: everything was already delivered.
			st.dispatched = true
			e.sampleRoot(st)
			e.finishSubtree(st)
			return nil
		}
		st.dispatched = true
		e.sampleRoot(st)
		e.roots[qid] = st
		e.startDeadline(st)
		e.watchCtx(ctx, st)
		tok := e.addChild(st, idx, nil)
		e.node.Route(chord.ID(idx), LookupMsg{
			QID: qid, Query: q, Key: idx, ReplyTo: e.node.Self().Addr, Token: tok,
			Trace: st.childRef(),
		}, uint64(qid))
		return nil
	}

	// Compute the first levels of the refinement tree locally, then act as
	// the root of the distributed refinement: process locally rooted
	// clusters here and dispatch the rest. The processing itself runs on
	// the scheduler (inline in serial mode); everything that mutates the
	// subtree happens back on the delivery goroutine.
	e.coarse = sfc.CoarseClustersInto(e.coarse[:0], e.space.Curve(), region, e.opts.InitialClusters, &e.scratch)
	coarse := e.coarse
	if st.hasPos {
		// Cursor resume: clusters whose whole span was already delivered are
		// skipped; the partially-delivered boundary cluster re-runs and the
		// match filter in rootDeliver drops its already-seen indices.
		kept := coarse[:0]
		for _, c := range coarse {
			if c.Span(e.space.Curve()).Hi >= st.afterPos {
				kept = append(kept, c)
			}
		}
		coarse = kept
		if len(coarse) == 0 {
			st.dispatched = true
			e.sampleRoot(st)
			e.finishSubtree(st)
			return nil
		}
	}
	cls := coarse
	if e.sched != nil {
		// The coarse buffer is reused by the next query; a pooled job needs
		// its own copy.
		cls = append([]sfc.Refined(nil), coarse...)
	}
	st.clustersIn = len(cls)
	e.sampleRoot(st)
	admitted := e.submitClusters(qid, cls, q, region, func(matches []Element, remote []sfc.Refined, local int) {
		if st.finished {
			return // cancelled while the refinement job was in flight
		}
		e.noteProcessed(qid, local, len(matches), e.opts.Sink != nil && local > 0)
		st.localDone = local
		st.localMatches = len(matches)
		if st.stream == nil {
			st.matches = matches
		} else {
			// The local matches are held until the dispatch round has
			// registered every child: a cancellation arriving before or
			// during their delivery can then name both the buffered matches
			// and the outstanding subtrees in the resume cursor, instead of
			// reporting a falsely exhausted stream before any child existed.
			e.bufferMatches(st, e.filterResumed(st, matches))
		}
		if st.stream != nil && st.limit > 0 && len(remote) > streamDispatchWindow {
			// Windowed dispatch: only the lowest clusters go out now; the
			// rest wait in pending and are never sent if the limit is
			// satisfied first. The pending tail is copied out of the
			// scheduler's reusable frontier buffer.
			curve := e.space.Curve()
			sort.Slice(remote, func(i, j int) bool {
				return remote[i].Span(curve).Lo < remote[j].Span(curve).Lo
			})
			st.pending = append([]sfc.Refined(nil), remote[streamDispatchWindow:]...)
			remote = remote[:streamDispatchWindow]
		}
		e.dispatchRemote(remote, q, qid, st, true, func() {
			st.dispatched = true
			if st.stream != nil && !st.finished {
				if st.limit > 0 {
					e.advanceOrdered(st)
				} else {
					e.drainBuffered(st)
				}
			}
			e.checkSubtree(st)
		})
	})
	if !admitted {
		e.met.shedRoot.Inc()
		return &OverloadError{RetryAfter: e.retryAfterHint()}
	}
	if st.finished {
		// Serial refinement completed inline (all clusters local, or a
		// streaming root satisfied its limit from the local scan): the
		// sink already fired; registering the root would leak it.
		return nil
	}
	e.roots[qid] = st
	e.startDeadline(st)
	e.watchCtx(ctx, st)
	return nil
}

// bufferedMatch is one match held back by a limited (ordered) stream until
// every lower curve span has resolved.
type bufferedMatch struct {
	el  Element
	idx uint64
}

// rootDeliver feeds one batch of arriving matches into a streaming root.
// The cursor restriction drops already-delivered coordinates first. An
// unlimited stream pushes the remainder straight out (completion order);
// a limited stream buffers it and advances the ordered frontier — which
// must happen even for an empty batch, because the arrival that carried it
// may have completed a child and unblocked buffered lower positions.
func (e *Engine) rootDeliver(st *subtree, batch []Element) {
	batch = e.filterResumed(st, batch)
	if st.limit > 0 {
		e.bufferMatches(st, batch)
		e.advanceOrdered(st)
		return
	}
	if len(batch) == 0 {
		return
	}
	st.delivered += len(batch)
	st.stream.pushBatch(st.qid, batch)
	e.met.streamBatches.Inc()
}

// bufferMatches appends already-filtered matches to the root's buffer with
// their curve coordinates.
func (e *Engine) bufferMatches(st *subtree, batch []Element) {
	for _, m := range batch {
		idx, err := e.space.Index(m.Values)
		if err != nil {
			idx = 0 // unindexable matches (none in practice) deliver first
		}
		st.buf = append(st.buf, bufferedMatch{el: m, idx: idx})
	}
}

// drainBuffered pushes everything an unlimited stream buffered before its
// dispatch round completed (the root's own local matches) as one batch.
func (e *Engine) drainBuffered(st *subtree) {
	if len(st.buf) == 0 {
		return
	}
	batch := make([]Element, len(st.buf))
	for i, b := range st.buf {
		batch[i] = b.el
	}
	st.buf = nil
	st.delivered += len(batch)
	st.stream.pushBatch(st.qid, batch)
	e.met.streamBatches.Inc()
}

// filterResumed drops the matches a resumed stream's earlier pages already
// delivered: everything below the cursor position, and — at the boundary
// position itself — the first afterSkip elements in batch order. Batch
// order is the owner's store order (one curve index is scanned by exactly
// one node, contiguously), which is what the cursor's skip count indexes.
func (e *Engine) filterResumed(st *subtree, batch []Element) []Element {
	if !st.hasPos || len(batch) == 0 {
		return batch
	}
	kept := batch[:0:0]
	rank := 0
	for _, m := range batch {
		idx, err := e.space.Index(m.Values)
		if err != nil {
			kept = append(kept, m)
			continue
		}
		if idx < st.afterPos {
			continue
		}
		if idx == st.afterPos {
			rank++
			if rank <= st.afterSkip {
				continue
			}
		}
		kept = append(kept, m)
	}
	return kept
}

// frontierOf returns the lowest curve position of st's outstanding work —
// dispatched children still in flight and pending clusters not yet
// dispatched. Buffered matches below it can no longer be preceded by
// anything unresolved.
func (e *Engine) frontierOf(st *subtree) (uint64, bool) {
	var lo uint64
	found := false
	for _, c := range st.kids {
		if !found || c.key < lo {
			lo, found = c.key, true
		}
	}
	if len(st.pending) > 0 {
		if p := st.pending[0].Span(e.space.Curve()).Lo; !found || p < lo {
			lo, found = p, true
		}
	}
	return lo, found
}

// skipFor computes the cursor skip count for a cut at curve position idx:
// the elements at idx this stream delivered (tracked by the run counter),
// plus the carry from the resume cursor when the page never got past its
// own boundary position.
func (st *subtree) skipFor(idx uint64) int {
	s := 0
	if st.runSet && st.runIdx == idx {
		s += st.runCount
	}
	if st.hasPos && idx == st.afterPos {
		s += st.afterSkip
	}
	return s
}

// advanceOrdered delivers the deliverable prefix of a limited stream's
// buffer: everything below the frontier of outstanding children, up to the
// limit. Runs after every arrival and after the dispatch round completes
// (delivery before then could precede a child not yet registered).
func (e *Engine) advanceOrdered(st *subtree) {
	if st.finished || !st.dispatched {
		return
	}
	frontier, bounded := e.frontierOf(st)
	sort.SliceStable(st.buf, func(i, j int) bool { return st.buf[i].idx < st.buf[j].idx })
	n := 0
	for n < len(st.buf) && (!bounded || st.buf[n].idx < frontier) {
		n++
	}
	if st.delivered+n > st.limit {
		n = st.limit - st.delivered
	}
	if n > 0 {
		batch := make([]Element, n)
		for i := range batch {
			batch[i] = st.buf[i].el
		}
		last := st.buf[n-1].idx
		cnt := 0
		for i := n - 1; i >= 0 && st.buf[i].idx == last; i-- {
			cnt++
		}
		if st.runSet && st.runIdx == last {
			st.runCount += cnt
		} else {
			st.runIdx, st.runCount, st.runSet = last, cnt, true
		}
		st.buf = st.buf[n:]
		st.delivered += n
		st.stream.pushBatch(st.qid, batch)
		e.met.streamBatches.Inc()
		if st.finished {
			return // consumer cancelled reentrantly from the callback
		}
	}
	if st.delivered >= st.limit {
		if len(st.buf) > 0 {
			st.noteCutSkip(st.buf[0].idx, st.skipFor(st.buf[0].idx))
		}
		e.completeEarly(st)
		return
	}
	e.refillWindow(st)
}

// streamDispatchWindow bounds how many clusters a limited stream keeps in
// flight: small enough that a satisfied limit leaves most of the curve
// undispatched (top-k queries usually resolve within the lowest spans),
// large enough to overlap some network latency.
const streamDispatchWindow = 2

// refillWindow dispatches the next pending clusters of a limited stream
// once the in-flight window has drained below its bound and the limit is
// still unmet. Clusters never dispatched this way are the top-k message
// saving: a full-drain query would have sent them all.
func (e *Engine) refillWindow(st *subtree) {
	if st.finished || !st.dispatched || len(st.pending) == 0 {
		return
	}
	out := len(st.kids)
	if out >= streamDispatchWindow {
		return
	}
	// If the matches already buffered below the first pending cluster cover
	// the rest of the limit, they will deliver as the outstanding children
	// complete — dispatching more clusters would be pure waste. With no
	// children outstanding advanceOrdered has already delivered everything
	// below the pending frontier, so avail is zero and refill proceeds.
	if need := st.limit - st.delivered; need > 0 {
		lo := st.pending[0].Span(e.space.Curve()).Lo
		avail := 0
		for _, b := range st.buf {
			if b.idx < lo {
				avail++
			}
		}
		if avail >= need {
			return
		}
	}
	n := min(streamDispatchWindow-out, len(st.pending))
	next := st.pending[:n]
	st.pending = st.pending[n:]
	st.dispatched = false
	e.dispatchRemote(next, st.q, st.qid, st, true, func() {
		st.dispatched = true
		if !st.finished {
			e.advanceOrdered(st)
		}
		e.checkSubtree(st)
	})
}

// dropPending folds a limited stream's never-dispatched clusters into the
// resume cursor and forgets them (the lowest comes first — pending is
// curve-sorted).
func (e *Engine) dropPending(st *subtree) {
	if len(st.pending) == 0 {
		return
	}
	st.noteCut(st.pending[0].Span(e.space.Curve()).Lo)
	st.pending = nil
}

// completeEarly finishes a streaming root whose limit was satisfied:
// outstanding children are torn down with QueryCancelMsg (so the tail of
// refinement messages is never sent) and the stream completes cleanly —
// early termination is a successful top-k result, not a partial one.
func (e *Engine) completeEarly(st *subtree) {
	if st.finished {
		return
	}
	e.dropPending(st)
	e.teardownChildren(st)
	st.dispatched = true
	e.finishSubtree(st)
}

// teardownChildren cancels every outstanding child of st in dispatch
// order, sending each a downstream QueryCancelMsg, and folds the children's
// curve positions into st's resume-cursor cut point.
func (e *Engine) teardownChildren(st *subtree) {
	kids := st.kids
	st.kids = nil
	for _, c := range kids {
		delete(e.children, c.token)
		if c.timer != nil {
			c.timer.Stop()
		}
		st.noteCut(c.key)
		e.sendCancel(st, c)
	}
}

// noteCut folds an undelivered curve position into the subtree's
// resume-cursor cut point (the minimum such position, skip 0: nothing at
// it was delivered this page).
func (st *subtree) noteCut(pos uint64) { st.noteCutSkip(pos, 0) }

// noteCutSkip folds an undelivered (position, skip) coordinate into the
// cut point, keeping the lexicographic minimum — the cursor must not point
// past any undelivered element, and over-covering only costs re-delivery.
func (st *subtree) noteCutSkip(pos uint64, skip int) {
	if !st.cutSet || pos < st.cutLo || (pos == st.cutLo && skip < st.cutSkip) {
		st.cutLo, st.cutSkip, st.cutSet = pos, skip, true
	}
}

// sendCancel routes a QueryCancelMsg to the current owner of a cancelled
// child's curve position.
func (e *Engine) sendCancel(st *subtree, c *childCall) {
	e.met.cancelsSent.Inc()
	e.node.Route(chord.ID(c.key), QueryCancelMsg{
		QID: st.qid, Token: c.token, ReplyTo: e.node.Self().Addr,
	}, uint64(st.qid))
}

// rootCursor derives a finished root's resume cursor: exhausted when every
// dispatched subtree delivered, else the lowest coordinate that was
// cancelled or never dispatched. The cut is clamped to the cursor this
// page resumed from — a boundary cluster's span can start below the resume
// position, and a cursor that regressed would re-deliver whole pages and
// stall paginated browsing.
func (st *subtree) rootCursor() Cursor {
	if !st.cutSet {
		return encodeCursor(st.q, 0, 0, true)
	}
	pos, skip := st.cutLo, st.cutSkip
	if st.hasPos && (pos < st.afterPos || (pos == st.afterPos && skip < st.afterSkip)) {
		pos, skip = st.afterPos, st.afterSkip
	}
	return encodeCursor(st.q, pos, skip, false)
}

// submitClusters hands one batch of clusters to the scheduler (or runs it
// inline in serial mode); complete always executes on the delivery
// goroutine. It reports false when the admission cap rejected the job —
// the caller sheds instead of queueing.
func (e *Engine) submitClusters(qid QueryID, cls []sfc.Refined, q keyspace.Query, region sfc.Region, complete func(matches []Element, remote []sfc.Refined, local int)) bool {
	if e.sched == nil {
		matches, remote, local := e.processClusters(qid, cls, q, region)
		complete(matches, remote, local)
		return true
	}
	return e.sched.trySubmit(&refineJob{
		qid: qid, q: q, region: region, clusters: cls,
		arc:      e.arcView(),
		enqueued: e.opts.Telemetry.Now(),
		complete: complete,
	})
}

// retryAfterHint derives the admission-control backoff hint from the
// current scheduler depth: deeper queues push retries further out.
func (e *Engine) retryAfterHint() time.Duration {
	depth := 0
	if e.sched != nil {
		depth = e.sched.depth()
	}
	hint := time.Duration(depth) * 2 * time.Millisecond
	return min(max(hint, 5*time.Millisecond), 250*time.Millisecond)
}

// watchCtx wires a root subtree to its context: when ctx ends before the
// query completes, the query is cancelled on the delivery goroutine with
// ctx's error as the cause. No goroutine is spawned for contexts that can
// never be cancelled.
func (e *Engine) watchCtx(ctx context.Context, st *subtree) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	stop := make(chan struct{})
	st.ctxStop = stop
	go func() {
		select {
		case <-ctx.Done():
			_ = e.node.Invoke(func() { e.cancelQuery(st, ctx.Err()) }) // node detached: the query died with its node
		case <-stop:
		}
	}()
}

// sampleRoot turns tracing on for a root subtree when this node collects
// traces.
func (e *Engine) sampleRoot(st *subtree) {
	if e.opts.Traces == nil {
		return
	}
	st.spanID = e.newSpanID()
	st.ref = telemetry.TraceRef{Mode: telemetry.TraceOn}
	st.startNS = e.nowNS()
}

// noteProcessed feeds the local processing counters and, when sink is set,
// the per-query metrics sink.
func (e *Engine) noteProcessed(qid QueryID, clusters, matches int, sink bool) {
	e.met.clustersDone.Add(uint64(clusters))
	e.met.matches.Add(uint64(matches))
	if sink {
		e.opts.Sink.Processed(qid, e.node.Self().ID, clusters, matches)
	}
}

// addChild registers one dispatched child of st under a fresh token and
// arms its recovery deadline. clusters is the re-dispatch payload (nil for
// an exact lookup of key).
func (e *Engine) addChild(st *subtree, key uint64, clusters []ClusterRef) uint64 {
	e.nextToken++
	c := &childCall{st: st, token: e.nextToken, key: key, clusters: clusters}
	e.children[c.token] = c
	st.kids = append(st.kids, c)
	st.sent++
	e.met.subtreesSent.Inc()
	e.armChild(c)
	return c.token
}

// dropChild unregisters a child whose dispatch failed before it left the
// node (it will be delivered some other way and re-registered).
func (e *Engine) dropChild(tok uint64) {
	c, ok := e.children[tok]
	if !ok {
		return
	}
	e.forgetChild(c)
	if c.timer != nil {
		c.timer.Stop()
	}
	c.st.sent--
}

// forgetChild unregisters a child that will not be waited on any more.
func (e *Engine) forgetChild(c *childCall) {
	delete(e.children, c.token)
	if i := slices.Index(c.st.kids, c); i >= 0 {
		c.st.kids = slices.Delete(c.st.kids, i, i+1)
	}
}

// armChild starts (or restarts) a child's recovery deadline.
func (e *Engine) armChild(c *childCall) {
	if e.opts.SubtreeTimeout <= 0 {
		return
	}
	tok := c.token
	c.timer = e.opts.Clock.AfterFunc(e.opts.SubtreeTimeout, func() {
		_ = e.node.Invoke(func() { e.childExpired(tok) }) // node detached: no children left to expire
	})
}

// childExpired handles a child subtree that missed its deadline: it is
// re-dispatched through ring routing (which resolves to the current owner,
// i.e. the next live successor after a crash), or abandoned once its
// retries are exhausted, degrading the query to an explicit partial
// result.
func (e *Engine) childExpired(tok uint64) {
	c, ok := e.children[tok]
	if !ok || c.st.finished {
		return
	}
	if c.attempts >= e.opts.SubtreeRetries {
		e.forgetChild(c)
		e.met.abandoned.Inc()
		if rs, ok := e.opts.Sink.(RecoverySink); ok {
			rs.Abandoned(c.st.qid)
		}
		if c.st.spanID != 0 {
			c.st.spans = append(c.st.spans, e.lostSpan(c.st, c))
		}
		c.st.incomplete = true
		c.st.done++
		e.checkSubtree(c.st)
		return
	}
	c.attempts++
	c.acked = false
	e.met.redispatches.Inc()
	if rs, ok := e.opts.Sink.(RecoverySink); ok {
		rs.Redispatched(c.st.qid)
	}
	st := c.st
	st.retries++
	if c.clusters == nil {
		e.node.Route(chord.ID(c.key), LookupMsg{
			QID: st.qid, Query: st.q, Key: c.key, ReplyTo: e.node.Self().Addr, Token: c.token,
			Trace: st.childRef(),
		}, uint64(st.qid))
	} else {
		e.node.Route(chord.ID(c.key), ClusterQueryMsg{
			QID: st.qid, Query: st.q, Clusters: c.clusters,
			ReplyTo: e.node.Self().Addr, Token: c.token, Ack: true,
			Trace: st.childRef(),
		}, uint64(st.qid))
	}
	e.armChild(c)
}

// handleAck marks a child as received by its target and grants it a fresh
// deadline window: the subtree is in progress, not lost.
func (e *Engine) handleAck(m QueryAckMsg) {
	c, ok := e.children[m.Token]
	if !ok {
		return
	}
	c.acked = true
	e.met.acks.Inc()
	if c.timer != nil {
		c.timer.Reset(e.opts.SubtreeTimeout)
	}
}

// startDeadline arms the overall query deadline on a root subtree.
func (e *Engine) startDeadline(st *subtree) {
	if e.opts.QueryDeadline <= 0 || st.parent != "" {
		return
	}
	st.deadline = e.opts.Clock.AfterFunc(e.opts.QueryDeadline, func() {
		_ = e.node.Invoke(func() { e.queryExpired(st) }) // node detached: the query died with its node
	})
}

// queryExpired force-completes a root subtree whose overall deadline
// passed: outstanding children are cancelled and the callback fires with
// whatever was gathered, marked partial.
func (e *Engine) queryExpired(st *subtree) {
	e.cancelQuery(st, nil)
}

// cancelQuery force-completes a root subtree before its children reported:
// outstanding children are cancelled and the callback fires with whatever
// was gathered. cause is the context's error for ctx-driven cancellation,
// or nil for a deadline expiry (the result then carries ErrPartialResult).
func (e *Engine) cancelQuery(st *subtree, cause error) {
	if st.finished {
		return
	}
	st.cancelErr = cause
	if st.stream != nil {
		// Streaming queries tear outstanding subtrees down actively: the
		// consumer walked away, so the refinement tail is cancelled instead
		// of left to finish into a void. Matches still buffered by an
		// ordered (limited) stream were found but never delivered — their
		// lowest coordinate feeds the resume cursor.
		if len(st.buf) > 0 {
			lo := st.buf[0].idx
			for _, b := range st.buf[1:] {
				if b.idx < lo {
					lo = b.idx
				}
			}
			st.noteCutSkip(lo, st.skipFor(lo))
		}
		e.dropPending(st)
		e.teardownChildren(st)
		st.incomplete = true
		st.dispatched = true
		e.finishSubtree(st)
		return
	}
	kids := st.kids
	st.kids = nil
	for _, c := range kids {
		delete(e.children, c.token)
		if c.timer != nil {
			c.timer.Stop()
		}
		// Cancelled children never reported: mark them lost in the trace
		// so the dump shows where the deadline cut the tree.
		if st.spanID != 0 {
			st.spans = append(st.spans, e.lostSpan(st, c))
		}
	}
	st.incomplete = true
	e.finishSubtree(st)
}

// checkSubtree completes a subtree whose children have all reported. A
// limited stream with pending (windowed) clusters is not complete — the
// refill path dispatches them when the window drains.
func (e *Engine) checkSubtree(st *subtree) {
	if st.finished || !st.dispatched || st.done < st.sent {
		return
	}
	if len(st.pending) > 0 {
		// The in-flight window drained with clusters still pending: refill
		// (a no-op when buffered matches already cover the limit).
		e.refillWindow(st)
		return
	}
	e.finishSubtree(st)
}

// finishSubtree delivers a subtree's aggregate exactly once: to the parent
// node, or — at the root — to the query callback, surfacing lost subtrees
// as ErrPartialResult rather than a silently short match set.
func (e *Engine) finishSubtree(st *subtree) {
	if st.finished {
		return
	}
	st.finished = true
	if st.deadline != nil {
		st.deadline.Stop()
	}
	if st.ctxStop != nil {
		close(st.ctxStop) // release the context watcher
		st.ctxStop = nil
	}
	if st.spanID != 0 {
		st.spans = append(st.spans, e.span(st))
	}
	if st.parent == "" {
		delete(e.roots, st.qid)
		var err error
		if st.incomplete {
			// A context cancellation is reported as its own cause; a plain
			// deadline or lost subtree degrades to ErrPartialResult. Both
			// count as partials — the match set is short either way.
			err = ErrPartialResult
			if st.cancelErr != nil {
				err = st.cancelErr
			}
			e.met.partials.Inc()
			if rs, ok := e.opts.Sink.(RecoverySink); ok {
				rs.Partial(st.qid)
			}
		}
		if st.spanID != 0 && e.opts.Traces != nil {
			e.opts.Traces.Add(telemetry.Trace{QID: st.qid, Partial: st.incomplete, Spans: st.spans})
		}
		if st.stream != nil {
			st.stream.finishStream(st.qid, err, st.rootCursor())
			return
		}
		if st.cb != nil {
			st.cb(Result{QID: st.qid, Query: st.q, Matches: st.matches, Err: err})
		}
		return
	}
	delete(e.inbound, inboundKey{from: st.parent, token: st.parentToken})
	if e.rcache != nil && st.cacheKey != "" {
		if st.sent == 0 && !st.incomplete {
			// A leaf subtree's matches depend only on the local store inside
			// its spans: remember them for the next popular repeat. This was
			// a cacheable lookup that missed.
			e.met.cacheMisses.Inc()
			e.rcache.put(st.cacheKey, st.cacheSpans, st.matches)
		} else {
			// Subtrees with remote children aggregate other nodes' data,
			// which local dirty-key tracking cannot invalidate — never
			// cacheable, so they count as bypasses, not misses.
			e.met.cacheBypass.Inc()
		}
	}
	tail := st.matches
	if st.forwarded > 0 && st.forwarded <= len(tail) {
		// Streaming subtrees already shipped this prefix as partials.
		tail = tail[st.forwarded:]
	}
	e.send(st.parent, SubResultMsg{
		QID: st.qid, Token: st.parentToken, Matches: tail, Incomplete: st.incomplete,
		Spans: st.spans,
	})
}

// debugScan, when set (tests only), observes every cluster scan.
var debugScan func(node chord.ID, qid QueryID, span sfc.Interval)

// debugDispatch, when set (tests only), observes every flushed dispatch round.
var debugDispatch func(node chord.ID, dests []transport.Addr, byDest map[transport.Addr][]pendingDispatch)

// processClusters resolves the locally owned parts of the given clusters
// and collects the parts that must be forwarded (pruned by the query
// region). It walks each cluster's refinement subtree: a subtree whose
// span lies entirely inside the node's contiguous owned run is scanned
// (exactly once — subtree spans are disjoint); a subtree rooted outside
// the arc is forwarded; a subtree that starts owned but extends past the
// owned run is refined one level and reclassified.
//
// The "owned run" subtlety matters for the node whose arc wraps the top of
// the index space: a low cluster may cover both its low segment and,
// higher up, its wrap segment. Scanning the full span would count the wrap
// segment now AND again when the refinement routes those subspans back —
// the run boundary keeps every key in exactly one scanned subtree.
//
// This is the serial (delivery-goroutine) entry: the actual walk lives in
// refineClusters, shared with the scheduler's workers, against a snapshot
// of the node's current arc. The per-engine scratch and frontier buffers
// keep the serial path allocation-free in steady state.
func (e *Engine) processClusters(qid QueryID, cls []sfc.Refined, q keyspace.Query, region sfc.Region) (matches []Element, remote []sfc.Refined, local int) {
	matches, remote, local, e.frontier = refineClusters(
		e.store, e.space, e.arcView(), qid, cls, q, region, &e.scratch, e.frontier)
	return matches, remote, local
}

// pendingDispatch is one resolved send of a dispatch round, buffered until
// the round flushes: the message plus its clusters (the blind-route
// fallback payload should the destination be dead at flush time).
type pendingDispatch struct {
	msg      ClusterQueryMsg
	clusters []sfc.Refined
}

// dispatchRemote forwards clusters rooted at other nodes, registering each
// dispatched message as a tracked child of st, and calls done once every
// child message has been sent. With aggregation enabled it probes the
// owner of the first (lowest) cluster, then ships every sibling owned by
// that node's arc as one message (the paper's second optimization);
// without it, each cluster is routed independently.
//
// Resolved sends are buffered per destination for the length of the round
// and flushed at its end: a destination that resolved more than once (the
// wrap-arc owner, whose low and wrap segments are separate runs of the
// sorted cluster list) receives all its messages as one BatchMsg instead of
// several transmissions. Single-message destinations get a plain
// ClusterQueryMsg, so the batching is invisible to peers that predate it.
//
// root marks dispatches from the query initiator: only there may the
// probe cache short-circuit the handshake. Receivers always probe, so a
// stale cache entry costs one extra forward and can never loop.
func (e *Engine) dispatchRemote(remote []sfc.Refined, q keyspace.Query, qid QueryID, st *subtree, root bool, done func()) {
	if len(remote) == 0 {
		done()
		return
	}
	curve := e.space.Curve()
	self := e.node.Self().Addr
	ack := e.opts.SubtreeTimeout > 0
	stream := st.stream != nil || st.streamUp
	// routeOne blind-routes a single cluster as its own tracked child. A
	// subtree that finished while dispatch was in flight (streaming root hit
	// its limit, remote subtree cancelled) dispatches nothing more — the
	// undelivered curve position feeds the resume cursor instead.
	routeOne := func(c sfc.Refined) {
		lo := c.Span(curve).Lo
		if st.finished {
			st.noteCut(lo)
			return
		}
		refs := toRefs([]sfc.Refined{c})
		tok := e.addChild(st, lo, refs)
		e.node.Route(chord.ID(lo), ClusterQueryMsg{
			QID: qid, Query: q, Clusters: refs, ReplyTo: self, Token: tok, Ack: ack, Stream: stream,
			Trace: st.childRef(),
		}, uint64(qid))
	}
	if e.opts.DisableAggregation {
		for _, c := range remote {
			routeOne(c)
		}
		done()
		return
	}

	// The round's send buffer, keyed by destination in first-touch order
	// (deterministic flush order for the simulator).
	var dests []transport.Addr
	byDest := make(map[transport.Addr][]pendingDispatch)
	enqueue := func(dest transport.Addr, msg ClusterQueryMsg, cls []sfc.Refined) {
		if _, ok := byDest[dest]; !ok {
			dests = append(dests, dest)
		}
		byDest[dest] = append(byDest[dest], pendingDispatch{msg: msg, clusters: cls})
	}
	flush := func() {
		if st.finished {
			// The subtree completed while probes were in flight (limit hit,
			// cancelled): the buffered children were already torn down —
			// drop the round instead of dispatching work nobody will read.
			for _, dest := range dests {
				for _, p := range byDest[dest] {
					e.dropChild(p.msg.Token)
					for _, c := range p.clusters {
						st.noteCut(c.Span(curve).Lo)
					}
				}
			}
			done()
			return
		}
		if debugDispatch != nil {
			debugDispatch(e.node.Self().ID, dests, byDest)
		}
		for _, dest := range dests {
			entries := byDest[dest]
			var ok bool
			if len(entries) == 1 {
				ok = e.send(dest, entries[0].msg)
			} else {
				b := BatchMsg{Queries: make([]ClusterQueryMsg, len(entries))}
				for i, p := range entries {
					b.Queries[i] = p.msg
				}
				if ok = e.send(dest, b); ok {
					e.met.batchesSent.Inc()
					e.met.batchedMsgs.Add(uint64(len(entries)))
				}
			}
			if !ok {
				// Destination died between probe and flush: untrack each
				// buffered child and blind-route its clusters through the
				// ring, which resolves to the current owner.
				e.cacheDrop(dest)
				for _, p := range entries {
					e.dropChild(p.msg.Token)
					for _, c := range p.clusters {
						routeOne(c)
					}
				}
			}
		}
		done()
	}

	sort.Slice(remote, func(i, j int) bool { return remote[i].Span(curve).Lo < remote[j].Span(curve).Lo })
	var step func(rem []sfc.Refined)
	step = func(rem []sfc.Refined) {
		if len(rem) == 0 || st.finished {
			// Finished mid-probe (limit satisfied by an earlier batch): the
			// sorted tail starts at rem[0], the lowest undispatched position.
			if len(rem) > 0 {
				st.noteCut(rem[0].Span(curve).Lo)
			}
			flush()
			return
		}
		head := chord.ID(rem[0].Span(curve).Lo)
		if root && e.opts.ProbeCacheSize > 0 {
			arc, ok := e.cacheLookup(head)
			if ok {
				e.met.probeHits.Inc()
				n := 1
				sp := e.node.Space()
				for n < len(rem) && sp.Between(chord.ID(rem[n].Span(curve).Lo), arc.pred.ID, arc.owner.ID) {
					n++
				}
				refs := toRefs(rem[:n])
				tok := e.addChild(st, uint64(head), refs)
				enqueue(arc.owner.Addr, ClusterQueryMsg{QID: qid, Query: q, Clusters: refs, ReplyTo: self, Token: tok, Ack: ack, Stream: stream, Trace: st.childRef()}, rem[:n])
				step(rem[n:])
				return
			}
			e.met.probeMisses.Inc()
		}
		e.node.FindSuccessor(head, uint64(qid), func(m chord.FoundMsg, err error) {
			if st.finished {
				// Finished while this probe was in flight.
				st.noteCut(rem[0].Span(curve).Lo)
				flush()
				return
			}
			if err != nil {
				// Ring unstable: fall back to blind routing for the head
				// cluster and keep going.
				routeOne(rem[0])
				step(rem[1:])
				return
			}
			e.cacheInsert(m.Pred, m.Owner)
			// Batch the run of siblings falling inside the owner's arc
			// (pred, owner]. The list is sorted, so the run is a prefix.
			n := 1
			if !m.Pred.IsZero() {
				sp := e.node.Space()
				for n < len(rem) && sp.Between(chord.ID(rem[n].Span(curve).Lo), m.Pred.ID, m.Owner.ID) {
					n++
				}
			}
			refs := toRefs(rem[:n])
			tok := e.addChild(st, uint64(chord.ID(rem[0].Span(curve).Lo)), refs)
			enqueue(m.Owner.Addr, ClusterQueryMsg{QID: qid, Query: q, Clusters: refs, ReplyTo: self, Token: tok, Ack: ack, Stream: stream, Trace: st.childRef()}, rem[:n])
			step(rem[n:])
		})
	}
	step(remote)
}

func (e *Engine) send(to transport.Addr, msg any) bool {
	return e.node.SendApp(to, msg)
}

// syncKeys refreshes the keys-held gauge after a store mutation. The Store
// itself is goroutine-confined, so the gauge (atomic) is the only store
// statistic a scrape goroutine may read.
func (e *Engine) syncKeys() {
	if e.met.keysHeld == nil {
		return // not attached yet (bulk preload before Attach)
	}
	e.met.keysHeld.Set(int64(e.store.Keys()))
}

// Deliver implements chord.App: application payloads routed to this node.
//
//lint:entry delivery
func (e *Engine) Deliver(from transport.Addr, key chord.ID, payload any) {
	switch m := payload.(type) {
	case PublishMsg:
		idx, err := e.space.Index(m.Elem.Values)
		if err != nil {
			return
		}
		e.store.Add(idx, m.Elem)
		e.noteMutation(idx)
		e.syncKeys()
		e.replicate([]chord.Item{{Key: chord.ID(idx), Value: []Element{m.Elem}}})
	case UnpublishMsg:
		e.handleUnpublish(m)
	case LookupMsg:
		e.handleLookup(m)
	case ClusterQueryMsg:
		e.handleClusterQuery(m)
	case BatchMsg:
		// Unpack in order: each entry is handled exactly as if it had
		// arrived as its own ClusterQueryMsg.
		for _, cq := range m.Queries {
			e.handleClusterQuery(cq)
		}
	case QueryAckMsg:
		e.handleAck(m)
	case QueryShedMsg:
		e.handleShed(m)
	case SubResultMsg:
		e.handleSubResult(m)
	case PartialResultMsg:
		e.handlePartialResult(m)
	case QueryCancelMsg:
		e.handleQueryCancel(m)
	case ReplicaMsg:
		e.handleReplica(m)
	case ClientPublishMsg:
		_ = e.Publish(m.Elem)
	case ClientUnpublishMsg:
		_ = e.Unpublish(m.Elem)
	case ClientQueryMsg:
		e.handleClientQuery(m)
	}
}

// handleUnpublish removes the element locally (from the primary store at
// the owner, from the replica store at replica holders) and, at the owner,
// fans the removal out to the successors that may hold replicas.
func (e *Engine) handleUnpublish(m UnpublishMsg) {
	idx, err := e.space.Index(m.Elem.Values)
	if err != nil {
		return
	}
	if m.Replica {
		e.replicas.Remove(idx, m.Elem)
		// The arc may have shifted since replication: clear a promoted copy
		// too so owner changes cannot resurrect the element.
		e.store.Remove(idx, m.Elem)
		e.noteMutation(idx)
		e.syncKeys()
		return
	}
	e.store.Remove(idx, m.Elem)
	e.noteMutation(idx)
	e.syncKeys()
	if e.opts.Replicas > 0 {
		fanned := 0
		for _, s := range e.node.SuccList() {
			if s.Addr == e.node.Self().Addr {
				continue
			}
			if e.send(s.Addr, UnpublishMsg{Elem: m.Elem, Replica: true}) {
				fanned++
				if fanned == e.opts.Replicas {
					break
				}
			}
		}
	}
}

// handleClientQuery serves a non-member client: parse, run the query as
// root — a Limit(k) stream when the client asked for top-k, so the tail of
// refinement is never dispatched — and ship the assembled result back.
func (e *Engine) handleClientQuery(m ClientQueryMsg) {
	q, err := keyspace.Parse(m.Query)
	if err != nil {
		e.send(m.ReplyTo, ClientResultMsg{Token: m.Token, Err: err.Error()})
		return
	}
	reply := func(qid QueryID, matches []Element, qerr error) {
		out := ClientResultMsg{Token: m.Token, QID: qid, Matches: matches}
		if qerr != nil {
			out.Err = qerr.Error()
		}
		e.send(m.ReplyTo, out)
	}
	if m.Limit > 0 {
		var got []Element
		_, err := e.QueryStreamFunc(context.Background(), q, func(ev StreamEvent) {
			if ev.Done {
				reply(ev.QID, got, ev.Err)
				return
			}
			got = append(got, ev.Matches...)
		}, Limit(m.Limit))
		if err != nil {
			reply(0, nil, err)
		}
		return
	}
	if _, err := e.QueryCtx(context.Background(), q, func(r Result) {
		reply(r.QID, r.Matches, r.Err)
	}); err != nil {
		reply(0, nil, err)
	}
}

func (e *Engine) handleLookup(m LookupMsg) {
	var matches []Element
	match := e.space.Compile(m.Query)
	for _, elem := range e.store.At(m.Key) {
		if match.Match(elem.Values) {
			matches = append(matches, elem)
		}
	}
	e.noteProcessed(m.QID, 1, len(matches), e.opts.Sink != nil)
	var spans []telemetry.Span
	if ref := m.Trace.OrRoot(); ref.Sampled() {
		now := e.nowNS()
		spans = []telemetry.Span{{
			QID: m.QID, ID: e.newSpanID(), Parent: ref.Parent, Depth: ref.Depth,
			Node: uint64(e.node.Self().ID), Addr: string(e.node.Self().Addr),
			Kind: "lookup", Prefix: m.Key, Clusters: 1, Local: 1,
			Matches: len(matches), StartNS: now, EndNS: now,
		}}
	}
	e.send(m.ReplyTo, SubResultMsg{QID: m.QID, Token: m.Token, Matches: matches, Spans: spans})
}

func (e *Engine) handleClusterQuery(m ClusterQueryMsg) {
	ref := m.Trace.OrRoot()
	region, err := e.space.Region(m.Query)
	if err != nil {
		e.send(m.ReplyTo, SubResultMsg{QID: m.QID, Token: m.Token})
		return
	}
	var cacheKey string
	if e.rcache != nil {
		cacheKey = resultCacheKey(m.Query, m.Clusters)
		if matches, ok := e.rcache.get(cacheKey); ok {
			// Popular-cluster hit: this exact batch previously resolved as a
			// leaf against a store that has not mutated under it since. Skip
			// refinement entirely and answer now — the result supersedes any
			// requested ack.
			e.met.cacheHits.Inc()
			e.send(m.ReplyTo, SubResultMsg{QID: m.QID, Token: m.Token, Matches: matches})
			return
		}
		// Not counted as a miss yet: whether this lookup was cacheable at
		// all is only known once the subtree completes (leaf vs inner) —
		// finishSubtree records it as a miss or a bypass.
	}
	st := &subtree{
		qid: m.QID, q: m.Query, parent: m.ReplyTo, parentToken: m.Token,
		kind: "cluster", clustersIn: len(m.Clusters),
		streamUp: m.Stream, cacheKey: cacheKey,
	}
	if cacheKey != "" {
		curve := e.space.Curve()
		st.cacheSpans = make([]sfc.Interval, len(m.Clusters))
		for i, c := range m.Clusters {
			st.cacheSpans[i] = sfc.Cluster{Prefix: c.Prefix, Level: c.Level}.Span(curve)
		}
	}
	if len(m.Clusters) > 0 {
		st.prefix = m.Clusters[0].Prefix
		st.level = m.Clusters[0].Level
	}
	if ref.Sampled() {
		st.spanID = e.newSpanID()
		st.ref = ref
		st.startNS = e.nowNS()
	}
	e.inbound[inboundKey{from: m.ReplyTo, token: m.Token}] = st
	admitted := e.submitClusters(m.QID, fromRefs(m.Clusters), m.Query, region, func(matches []Element, remote []sfc.Refined, local int) {
		if st.finished {
			return // cancelled while the refinement job was in flight
		}
		e.noteProcessed(m.QID, local, len(matches), e.opts.Sink != nil)
		st.matches = matches
		st.localDone = local
		st.localMatches = len(matches)
		if len(remote) == 0 {
			// Leaf of the query tree: finish immediately (records the span
			// and ships it with the result).
			st.dispatched = true
			e.finishSubtree(st)
			return
		}
		if st.streamUp && len(matches) > 0 && len(remote) > 0 {
			// Stream the local matches up right away: the initiator can act
			// on them (fill a page, satisfy a limit) while this subtree's
			// children are still refining. A leaf (no remote children)
			// completes immediately — its terminal SubResultMsg carries the
			// matches, so a separate partial would only double the traffic.
			e.forwardPartial(st, matches)
		}
		e.dispatchRemote(remote, m.Query, m.QID, st, false, func() {
			st.dispatched = true
			e.checkSubtree(st)
		})
	})
	if !admitted {
		// Shed before acking: confirming receipt of work we refuse would
		// suppress the dispatcher's recovery instead of engaging it.
		delete(e.inbound, inboundKey{from: m.ReplyTo, token: m.Token})
		e.met.shedRemote.Inc()
		e.send(m.ReplyTo, QueryShedMsg{QID: m.QID, Token: m.Token, RetryAfterMS: e.retryAfterHint().Milliseconds()})
		return
	}
	if m.Ack {
		e.send(m.ReplyTo, QueryAckMsg{QID: m.QID, Token: m.Token})
	}
}

// handleShed maps an admission-control refusal onto the recovery path: the
// refused child is re-dispatched after the shedder's backoff hint (counting
// against its retry budget), or — when no recovery machinery is armed —
// abandoned immediately so the query degrades to an explicit partial result
// instead of hanging on a reply that will never come.
func (e *Engine) handleShed(m QueryShedMsg) {
	c, ok := e.children[m.Token]
	if !ok || c.st.finished {
		return
	}
	e.met.shedChild.Inc()
	if c.timer == nil {
		// SubtreeTimeout == 0: the subtree cannot be retried.
		e.forgetChild(c)
		e.met.abandoned.Inc()
		if rs, ok := e.opts.Sink.(RecoverySink); ok {
			rs.Abandoned(c.st.qid)
		}
		if c.st.spanID != 0 {
			c.st.spans = append(c.st.spans, e.lostSpan(c.st, c))
		}
		c.st.incomplete = true
		c.st.done++
		e.checkSubtree(c.st)
		return
	}
	// Pull the child's recovery deadline forward to the hint: childExpired
	// then re-routes the subtree through the ring as for a lost child.
	c.acked = false
	retry := time.Duration(m.RetryAfterMS) * time.Millisecond
	retry = min(max(retry, 5*time.Millisecond), e.opts.SubtreeTimeout)
	c.timer.Reset(retry)
}

func (e *Engine) handleSubResult(m SubResultMsg) {
	c, ok := e.children[m.Token]
	if !ok {
		return // straggler: child already answered, abandoned, or expired
	}
	e.forgetChild(c)
	if c.timer != nil {
		c.timer.Stop()
	}
	st := c.st
	if st.finished {
		return
	}
	if st.spanID != 0 {
		st.spans = append(st.spans, m.Spans...)
	}
	if m.Incomplete {
		st.incomplete = true
	}
	st.done++
	if st.stream != nil {
		// Streaming root: the child's matches flow straight out (possibly
		// completing the query early); nothing accumulates in st.matches.
		e.rootDeliver(st, m.Matches)
		if st.finished {
			return
		}
	} else {
		last := st.dispatched && st.done >= st.sent
		if st.streamUp && len(m.Matches) > 0 && !last {
			// Relay the increment upward now — unless this report completes
			// the subtree, in which case the terminal SubResultMsg about to
			// go out carries it (matches stays a forwarded-prefix + tail).
			e.forwardPartial(st, m.Matches)
		}
		st.matches = append(st.matches, m.Matches...)
	}
	e.checkSubtree(st)
}

// forwardPartial ships one increment of a streaming subtree's matches to
// its parent and records it as forwarded, so the terminal SubResultMsg
// excludes it.
func (e *Engine) forwardPartial(st *subtree, batch []Element) {
	e.met.partialsSent.Inc()
	e.send(st.parent, PartialResultMsg{QID: st.qid, Token: st.parentToken, Matches: batch})
	st.forwarded += len(batch)
}

// handlePartialResult folds one streamed increment from a child subtree in:
// a streaming root delivers it to the consumer immediately, an inner
// streaming subtree relays it upward. Completion accounting is untouched —
// only the terminal SubResultMsg advances it.
func (e *Engine) handlePartialResult(m PartialResultMsg) {
	c, ok := e.children[m.Token]
	if !ok {
		return // straggler: child already answered, abandoned, or cancelled
	}
	st := c.st
	if st.finished || len(m.Matches) == 0 {
		return
	}
	if st.stream != nil {
		e.rootDeliver(st, m.Matches)
		return
	}
	if st.streamUp {
		e.forwardPartial(st, m.Matches)
	}
	st.matches = append(st.matches, m.Matches...)
}

// handleQueryCancel tears down the addressed remote subtree: it stops
// reporting (no SubResultMsg will be sent), any still-queued refinement
// completes into a no-op, and its own outstanding children are cancelled
// recursively. Unknown subtrees — already finished, never arrived, or torn
// down by an earlier cancel — are ignored; cancellation is best effort.
func (e *Engine) handleQueryCancel(m QueryCancelMsg) {
	key := inboundKey{from: m.ReplyTo, token: m.Token}
	st, ok := e.inbound[key]
	if !ok || st.finished {
		return
	}
	e.met.cancelsRecv.Inc()
	delete(e.inbound, key)
	st.finished = true
	e.teardownChildren(st)
}

// HandoverOut implements chord.App. When replication is enabled the
// departing items are retained locally as replicas (this node is now one
// of the new owner's successors).
//
//lint:entry delivery
func (e *Engine) HandoverOut(a, b chord.ID) []chord.Item {
	items := e.store.HandoverOut(a, b)
	if e.opts.Replicas > 0 {
		e.replicas.AddBatchUnique(items)
	}
	e.noteBulkMutation()
	e.syncKeys()
	return items
}

// HandoverIn implements chord.App.
//
//lint:entry delivery
func (e *Engine) HandoverIn(items []chord.Item) {
	e.store.HandoverIn(items)
	e.noteBulkMutation()
	e.syncKeys()
}

// Load implements chord.App: the number of stored keys.
func (e *Engine) Load() int { return e.store.Keys() }

var _ chord.App = (*Engine)(nil)
