package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/workload"
)

// overloadBursts is the number of bursts the overload phase is offered in.
const overloadBursts = 7

// dataSeed fixes the corpus: the vocabulary, the preloaded elements,
// zipf-rw's query pool and wide-scan's query sequence are the same on
// every run, like a benchmark dataset. --seed drives how they are used:
// zipf-rw's draws from the pool, the order wide-scan's queries are
// offered in, the published elements and the arrival times.
const dataSeed = 2003

// tcpSpec sizes one loopback-TCP workload.
type tcpSpec struct {
	name        string
	peers       int
	preload     int
	vocab       int
	nominalQPS  float64
	overloadQPS float64
	deadline    time.Duration
	window      time.Duration
	setupReps   int
	warmup      time.Duration
	// zipf-rw only: the Q1/Q2 pool replayed Zipf(1.0) and the share of
	// operations that publish a new element.
	pool       int
	writeShare float64
	// wide-scan only: distinct Q3 range queries.
	wide bool
	// maxLateP99 is the generator-health bound: a window whose arrivals
	// were injected later than this at the 99th percentile is invalid.
	maxLateP99 float64 // ms
}

// opStream generates a workload's operations from the seed.
type opStream struct {
	spec    tcpSpec
	rng     *rand.Rand
	gen     *workload.QueryGen
	pool    []keyspace.Query
	zipf    *rand.Zipf
	pubs    *workload.Sampler
	nextID  int
	seen    map[string]bool
	queries []keyspace.Query // distinct query table (oracle key = index)
	pubElem []squid.Element  // published elements, by id - preload
	pubAt   []time.Duration  // absolute submit offsets of publishes
}

func newOpStream(spec tcpSpec, vocab *workload.Vocabulary, seed int64) *opStream {
	s := &opStream{spec: spec, rng: rand.New(rand.NewSource(seed + 11)),
		gen: workload.NewQueryGen(vocab, dataSeed+2, 2), pubs: vocab.Sampler(seed + 13),
		nextID: spec.preload, seen: make(map[string]bool)}
	if !spec.wide {
		s.pool = workload.NewQueryGen(vocab, dataSeed+1, 2).Pool(spec.pool)
		s.queries = s.pool
		// Zipf(1.0) popularity over the pool, as workload.ZipfRepeats draws it.
		s.zipf = rand.NewZipf(s.rng, 1.01, 1, uint64(len(s.pool)-1))
	}
	return s
}

// next draws one operation; writes are allowed only when publish is true.
func (s *opStream) next(publish bool) op {
	if s.spec.wide {
		for {
			var q keyspace.Query
			if len(s.queries)%2 == 0 {
				q = s.gen.Q3Ranges()
			} else {
				q = s.gen.Q3Keyword()
			}
			if k := q.String(); !s.seen[k] {
				s.seen[k] = true
				s.queries = append(s.queries, q)
				return op{q: q, qi: len(s.queries) - 1}
			}
		}
	}
	if publish && s.rng.Float64() < s.spec.writeShare {
		e := makeElement(s.nextID, []string{s.pubs.Word(), s.pubs.Word()})
		s.nextID++
		s.pubElem = append(s.pubElem, e)
		return op{publish: true, elem: e}
	}
	qi := int(s.zipf.Uint64())
	return op{q: s.pool[qi], qi: qi}
}

// ops draws the next n operations. wide-scan's queries come from a fixed
// sequence of distinct queries; the seed shuffles each phase's share, so
// every run offers nearly the same query set in its own order.
func (s *opStream) ops(n int, publish bool) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next(publish)
	}
	if s.spec.wide {
		s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// runTCP runs one loopback-TCP workload: repeated timed set-ups, a
// warm-up, the nominal and overload phases, the oracle check and, when
// traced, the per-layer replays.
func runTCP(spec tcpSpec, seed int64, seconds float64, traced bool, o *options) (*report, error) {
	rep := newReport()
	space, err := keyspace.NewWordSpace(2, 32)
	if err != nil {
		return nil, err
	}
	vocab := workload.NewVocabulary(dataSeed, spec.vocab, 1.2)
	tuples := workload.KeyTuples(vocab, dataSeed, spec.preload, 2)
	elems := make([]squid.Element, len(tuples))
	for i, t := range tuples {
		elems[i] = makeElement(i, t)
	}

	// Arrival schedules and operations are drawn before anything runs.
	stream := newOpStream(spec, vocab, seed)
	total := time.Duration(seconds * float64(time.Second))
	nominalDur := (total * 75 / 100).Round(spec.window)
	if nominalDur < spec.window {
		nominalDur = spec.window
	}
	overloadDur := total - nominalDur
	if overloadDur < time.Second {
		overloadDur = time.Second
	}
	rng := rand.New(rand.NewSource(seed + 21))
	warmAt := arrivals(rng, spec.nominalQPS, spec.warmup)
	warmOps := stream.ops(len(warmAt), false)
	nomAt := arrivals(rng, spec.nominalQPS, nominalDur)
	nomOps := stream.ops(len(nomAt), true)
	// The overload phase is offered as bursts that each start from a
	// drained ring: in one long overload the delivery queues' FIFO backlog
	// outgrows any deadline, after which goodput swings with how long the
	// backlog takes to clear rather than with capacity.
	burstDur := overloadDur / overloadBursts
	var overAt [][]time.Duration
	var overOps [][]op
	for b := 0; b < overloadBursts; b++ {
		at := arrivals(rng, spec.overloadQPS, burstDur)
		overAt = append(overAt, at)
		overOps = append(overOps, stream.ops(len(at), false))
	}

	var setups []float64
	var r *ring
	for k := 0; k < spec.setupReps; k++ {
		runtime.GC() // every set-up starts from the same collected heap
		t0 := time.Now()
		r, err = buildRing(space, spec.peers, elems, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < spec.setupReps-1 {
			r.close()
		}
	}
	defer r.close()
	progress("%s: %d peers, %d elements, set-up %.3fs (median of %d)", spec.name, spec.peers, spec.preload, median(append([]float64(nil), setups...)), len(setups))

	runPhase(r, phaseSpec{dur: spec.warmup, deadline: spec.deadline, window: spec.warmup}, warmOps, warmAt)
	nom := runPhase(r, phaseSpec{dur: nominalDur, deadline: spec.deadline, window: spec.window, traced: traced}, nomOps, nomAt)
	for i := range nom.out {
		if nomOps[i].publish {
			stream.pubAt = append(stream.pubAt, nom.out[i].submitted)
		}
	}
	var over []*phaseResult
	for b := range overAt {
		over = append(over, runPhase(r, phaseSpec{dur: burstDur, deadline: spec.deadline, window: burstDur}, overOps[b], overAt[b]))
	}

	// Published elements are routed asynchronously: let the ring settle,
	// then the stores must hold exactly the preload plus every publish.
	wantElems := spec.preload + len(stream.pubElem)
	settleBy := time.Now().Add(10 * time.Second)
	for r.elements() != wantElems && time.Now().Before(settleBy) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.elements(); got != wantElems {
		rep.fail("element count after settling: %d, want %d (preload %d + publishes %d)", got, wantElems, spec.preload, len(stream.pubElem))
	}

	// Oracle, outside every timed region.
	orc, err := newOracle(space, elems)
	if err != nil {
		return nil, err
	}
	want, err := orc.answerAll(stream.queries)
	if err != nil {
		return nil, err
	}
	if o.corrupt {
		corruptOracle(want, nomOps)
	}
	checkPhase(nom, want, stream, space, true)
	var ot tally
	var goodput []float64
	for _, b := range over {
		checkPhase(b, want, stream, space, false)
		bt := b.tally()
		ot = ot.add(bt)
		goodput = append(goodput, float64(bt.ok)/b.okSpan().Seconds())
	}
	nt := nom.tally()
	for _, t := range []struct {
		name string
		t    tally
	}{{"nominal", nt}, {"overload", ot}} {
		progress("%s %s: %d queries, %d publishes: %d ok, %d shed, %d partial, %d deadline-missed, %d incomplete, %d wrong, %d other errors, %d failed publishes",
			spec.name, t.name, t.t.queries, t.t.publishes, t.t.ok, t.t.shed, t.t.partial, t.t.missed, t.t.incomplete, t.t.wrong, t.t.otherErrs, t.t.failedPublishes)
	}
	if nt.wrong+ot.wrong > 0 {
		rep.fail("%d wrong query results", nt.wrong+ot.wrong)
	}
	for i := range nom.out {
		if nom.out[i].wrong != nil {
			rep.fail("nominal query %d %s: %v", i, nomOps[i].q, nom.out[i].wrong)
			break
		}
	}
	rep.attempted = nt.ops()
	rep.failed = nt.failed()

	valid := windowValidity(nom, spec.maxLateP99)
	for w, ws := range nom.windows {
		late := append([]float64(nil), ws.late...)
		sort.Float64s(late)
		lat := nom.latencies(func(x int) bool { return x == w })
		progress("%s nominal window %d: %d arrivals, generator late p99 %.2fms max %.2fms, latency p50 %.2fms p99 %.2fms, cpu %.0fms, valid %v",
			spec.name, w, len(ws.late), quantile(late, 0.99), quantile(late, 1), quantile(lat, 0.5), quantile(lat, 0.99), ms(ws.cpu), valid[w])
	}
	nValid := 0
	for _, v := range valid {
		if v {
			nValid++
		}
	}
	if nValid*2 <= len(valid) {
		rep.invalid("generator fell behind in %d of %d nominal windows (p99 lateness bound %.1f ms)", len(valid)-nValid, len(valid), spec.maxLateP99)
	}

	if !traced {
		nomOpsN := float64(nt.ops())
		d := nom.after.sub(nom.before)
		rep.set("setup_s", median(setups))
		rep.set("goodput_qps", median(goodput))
		rep.set("cpu_ms_per_query", ms(nom.cpu)/nomOpsN)
		rep.set("msgs_per_query", d["squid_transport_tcp_frames_total"]/nomOpsN)
		rep.set("bytes_per_query", d["squid_transport_tcp_bytes_written_total"]/nomOpsN)
		rep.set("success_ratio", 1-ratio(float64(nt.failed()), nomOpsN))
		rep.set("peak_rss_mb", peakRSSMB())
		return rep, nil
	}

	tcpLayerMetrics(rep, r, nom, over[len(over)-1].after.sub(over[0].before), nt, ot, valid)
	sample := sampleQueries(nomOps, 400)
	replayLayers(rep, ringLayout(r), sample)
	wireReplay(rep, collectTaps(r).samples)
	if dir := o.outDir; dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", spec.name, seed))
		if err := writeSpans(path, r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			progress("spans written to %s", path)
		}
	}
	return rep, nil
}

// checkPhase runs the oracle over every query that completed without
// error and records failures in the outcome. Publishes happen only in the
// nominal phase; pubPhase says whether res is that phase, so a published
// element may appear only in results completed after its submission.
func checkPhase(res *phaseResult, want [][]int32, s *opStream, space *keyspace.Space, pubPhase bool) {
	for i := range res.out {
		o := &res.out[i]
		op := res.ops[i]
		if op.publish || o.err != nil {
			continue
		}
		doneAt := o.done
		extraOK := func(id int32) bool {
			k := int(id) - s.spec.preload
			if k < 0 || k >= len(s.pubElem) || k >= len(s.pubAt) {
				return false
			}
			return (!pubPhase || s.pubAt[k] <= doneAt) && space.Matches(op.q, s.pubElem[k].Values)
		}
		o.wrong = checkResult(want[op.qi], o.ids, extraOK)
	}
}

// corruptOracle removes one expected element from the oracle entry of the
// first measured query that has one (self-test: the check must then fail).
func corruptOracle(want [][]int32, ops []op) {
	for _, op := range ops {
		if w := want[op.qi]; !op.publish && len(w) > 0 {
			want[op.qi] = w[1:]
			return
		}
	}
}

// windowValidity marks the windows whose generator lateness stayed within
// bound at the 99th percentile.
func windowValidity(res *phaseResult, bound float64) []bool {
	out := make([]bool, len(res.windows))
	for i, w := range res.windows {
		late := append([]float64(nil), w.late...)
		sort.Float64s(late)
		out[i] = quantile(late, 0.99) <= bound
	}
	return out
}

// windowedLatency is the median over the selected windows of each
// window's p50 and p99 latency.
func windowedLatency(res *phaseResult, keep func(w int) bool) (p50, p99 float64) {
	var p50s, p99s []float64
	for w := range res.windows {
		if !keep(w) {
			continue
		}
		lat := res.latencies(func(x int) bool { return x == w })
		if len(lat) == 0 {
			continue
		}
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	return median(p50s), median(p99s)
}

// sampleQueries picks up to n queries spread evenly over the run's query
// sequence, so repeats count as often as they were issued.
func sampleQueries(ops []op, n int) []keyspace.Query {
	var qs []keyspace.Query
	for _, o := range ops {
		if !o.publish {
			qs = append(qs, o.q)
		}
	}
	if len(qs) <= n {
		return qs
	}
	out := make([]keyspace.Query, n)
	for i := range out {
		out[i] = qs[i*len(qs)/n]
	}
	return out
}

// tcpLayerMetrics derives the per-layer metrics of a traced TCP run from
// registry deltas, tap spans, runtime counters and generator timings.
func tcpLayerMetrics(rep *report, r *ring, nom *phaseResult, od counters, nt, ot tally, valid []bool) {
	d := nom.after.sub(nom.before)
	q := float64(nt.queries)
	rep.set("squid.clusters_processed_per_query", d["squid_engine_clusters_processed_total"]/q)
	rep.set("squid.subtrees_per_query", d["squid_engine_subtrees_dispatched_total"]/q)
	rep.set("squid.batched_share", ratio(d["squid_dispatch_batched_queries_total"], d["squid_engine_subtrees_dispatched_total"]))
	hits, misses := d["squid_result_cache_total|outcome=hit"], d["squid_result_cache_total|outcome=miss"]
	rep.set("squid.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("squid.sched_wait_us_mean", ratio(d["squid_sched_queue_wait_ns_sum"], d["squid_sched_queue_wait_ns_count"])/1e3)
	rep.set("squid.shed_ratio", ratio(od["squid_sched_shed_total|kind=root"], float64(ot.queries)))
	rep.set("squid.redispatches_per_query", d["squid_engine_recovery_total|event=redispatch"]/q)
	rep.set("squid.stream_cancels_per_query", d["squid_stream_cancels_total|dir=sent"]/q)

	// Delivery: busy share of the busiest peer over the traced windows.
	var tracedWall time.Duration
	busy := make([]int64, len(r.peers))
	for _, w := range nom.windows {
		if !w.traced || w.busyEnd == nil {
			continue
		}
		tracedWall += w.wall
		for i := range busy {
			busy[i] += w.busyEnd[i] - w.busy[i]
		}
	}
	var maxBusy int64
	for _, b := range busy {
		maxBusy = max(maxBusy, b)
	}
	rep.set("squid.deliver_busy_max_share", ratio(float64(maxBusy), float64(tracedWall)))
	ts := collectTaps(r)
	for k, name := range deliverKinds {
		rep.set("squid.deliver_us."+name, ts.deliverNS[k]/1e3)
	}

	rep.set("transport.frames_per_flush", ratio(d["squid_transport_tcp_frames_total"], d["squid_transport_tcp_flushes_total"]))
	rep.set("transport.send_latency_us_mean", ratio(d["squid_transport_tcp_send_latency_ns_sum"], d["squid_transport_tcp_send_latency_ns_count"])/1e3)
	rep.set("transport.send_errors", d["squid_transport_tcp_send_errors_total"])
	rep.set("transport.dials", nom.after["squid_transport_tcp_dials_total"])

	rep.set("chord.lookup_hops_mean", ratio(d["squid_chord_lookup_hops_sum"], d["squid_chord_lookup_hops_count"]))
	rep.set("chord.route_forwards_per_query", d["squid_chord_route_forwards_total"]/q)
	rep.set("chord.rpc_retries", d["squid_chord_rpc_retries_total"])
	rep.set("chord.rpc_failures", d["squid_chord_rpc_failures_total"])
	rep.set("chord.hard_violations", float64(hardViolations(r)))
	for _, name := range []string{"events", "events_per_s", "virtual_s", "msgs_dropped", "storm_wall_s", "replay_match"} {
		rep.set("dessim."+name, 0)
	}

	ops := float64(nt.ops())
	rep.set("runtime.allocs_per_query", float64(nom.rtB.allocs-nom.rtA.allocs)/ops)
	rep.set("runtime.gc_cpu_share", ratio(nom.rtB.gcCPU-nom.rtA.gcCPU, nom.rtB.cpu-nom.rtA.cpu))

	rep.set("harness.fail_ratio", ratio(float64(nt.failed()), ops))
	late := append([]float64(nil), nom.late...)
	sort.Float64s(late)
	rep.set("harness.gen_late_p99_ms", quantile(late, 0.99))
	rep.set("harness.gen_late_max_ms", quantile(late, 1))
	rep.set("harness.arrivals_due", float64(nom.due))
	rep.set("harness.arrivals_submitted", float64(nom.onTime))

	// Tracing overhead: traced windows against the untraced ones between
	// them, both valid.
	var cpuOn, cpuOff time.Duration
	for w, ws := range nom.windows {
		if !valid[w] {
			continue
		}
		if ws.traced {
			cpuOn += ws.cpu
		} else {
			cpuOff += ws.cpu
		}
	}
	isOn := func(w int) bool { return valid[w] && w < len(nom.windows) && nom.windows[w].traced }
	isOff := func(w int) bool { return valid[w] && w < len(nom.windows) && !nom.windows[w].traced }
	cpqOn := ms(cpuOn) / float64(max(nom.queriesIn(isOn), 1))
	cpqOff := ms(cpuOff) / float64(max(nom.queriesIn(isOff), 1))
	p50On, _ := windowedLatency(nom, isOn)
	p50Off, p99Off := windowedLatency(nom, isOff)
	rep.set("harness.query_p50_ms", p50Off)
	rep.set("harness.query_p99_ms", p99Off)
	rep.set("harness.trace_overhead_cpu_pct", 100*ratio(cpqOn-cpqOff, cpqOff))
	rep.set("harness.trace_overhead_p50_pct", 100*ratio(p50On-p50Off, p50Off))
}

// hardViolations checks the ring's global invariants once.
func hardViolations(r *ring) int {
	snaps := make([]chord.Snapshot, 0, len(r.peers))
	for _, p := range r.peers {
		var s chord.Snapshot
		if err := invokeWait(p, func() { s = p.node.Snapshot() }); err != nil {
			continue
		}
		snaps = append(snaps, s)
	}
	n := 0
	for _, v := range chord.CheckRing(chord.Space{Bits: r.space.IndexBits()}, snaps) {
		if !v.Transient() {
			n++
		}
	}
	return n
}
