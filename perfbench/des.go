package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/transport"
	"squid/internal/wire"
	"squid/internal/workload"
)

// desSpec sizes the discrete-event churn storm.
type desSpec struct {
	nodes   int
	queries int
	topK    int // Limit on every other probe (the measured storms run without)
	churn   int // joins and kills each
	probes  int // latency probes per storm
	netSeed int64
	// Each run measures the same storms: seeds stormSeed, stormSeed+1, ...
	stormSeed int64
	storms    int
	// replays are pinned storms whose event count and fingerprint are
	// checked on every run.
	replays []desReplay
}

// desReplay is one pinned storm and its recorded outcome.
type desReplay struct {
	name        string
	nodes       int
	topK        int
	seed        int64 // storm seed; the network is netSeed's
	events      uint64
	fingerprint uint64
}

// desStorm is one executed storm and what the benchmark saw of it.
type desStorm struct {
	setup      float64 // s: Build + Preload + ten checked stabilization rounds
	res        dessim.StormResult
	wall       time.Duration
	cpu        time.Duration
	virtual    time.Duration
	msgs       uint64
	bytes      uint64
	dropped    uint64
	hard       int
	probeLat   []float64 // virtual ms of probes that completed
	probesOK   int
	probesFail int
	counters   counters
	rtA, rtB   rtSample
	samples    [8][]any
	lay        layout
	probeQs    []keyspace.Query
}

// buildDES builds and settles a network exactly as the planet-scale
// harness does: 5-80 ms links with 0.5% drop, Zipf(1.2) preload of four
// keys per node, ten invariant-checked stabilization rounds.
func buildDES(nodes int, seed int64) (*dessim.Network, *workload.Vocabulary, error) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		return nil, nil, err
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: nodes,
		Space: space,
		Seed:  seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
			DropRate:   0.005,
		},
		Chord: chord.Config{
			RPCTimeout: 400 * time.Millisecond,
			RPCRetries: 3,
			RPCBackoff: 10 * time.Millisecond,
		},
		Engine: squid.Options{
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
		CheckInvariants: true,
	})
	if err != nil {
		return nil, nil, err
	}
	vocab := workload.NewVocabulary(seed+2, 2000, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 4*nodes, 2))); err != nil {
		return nil, nil, err
	}
	nw.StabilizeAll(10)
	return nw, vocab, nil
}

// runStorm builds the network of spec.netSeed and runs the storm of seed
// on it (the planet-scale harness's convention is seed = netSeed + 4),
// then the latency probes (none for the pinned replays). During the storm
// an observer counts every inter-node message and its wire-codec size.
func runStorm(spec desSpec, nodes int, seed, probeSeed int64, topK, probes int, sample bool) (*desStorm, error) {
	st := &desStorm{}
	t0 := time.Now()
	nw, vocab, err := buildDES(nodes, spec.netSeed)
	if err != nil {
		return nil, err
	}
	st.setup = time.Since(t0).Seconds()

	cfg := dessim.StormConfig{
		Seed: seed, Queries: spec.queries, Vocab: vocab, Dims: 2,
		Joins: spec.churn, Kills: spec.churn, StabilizeRounds: 10, TopK: topK,
	}
	var enc wire.Encoder
	seen := [8]int{}
	counting := true
	nw.Net.SetObserver(func(from, to transport.Addr, msg any) {
		nw.Metrics.Observe(from, to, msg)
		if !counting || from == to {
			return
		}
		st.msgs++
		enc.Reset()
		if wire.EncodeMessage(&enc, msg) {
			st.bytes += uint64(enc.Len()) + 4 // + the TCP frame header
		}
		if sample {
			if k, _ := classify(msg); k != kindOther {
				seen[k]++
				if seen[k]%sampleEvery == 1 && len(st.samples[k]) < samplesPerKind {
					st.samples[k] = append(st.samples[k], msg)
				}
			}
		}
	})
	before := scrape(nw.Telemetry)
	dropped0 := nw.Net.Stats().Dropped
	v0 := nw.Core.Elapsed()
	st.rtA = readRuntime()
	cpu0 := cpuTime()
	w0 := time.Now()
	st.res = nw.RunStorm(cfg)
	st.wall = time.Since(w0)
	st.cpu = cpuTime() - cpu0
	st.rtB = readRuntime()
	st.virtual = nw.Core.Elapsed() - v0
	st.dropped = nw.Net.Stats().Dropped - dropped0
	st.counters = scrape(nw.Telemetry).sub(before)
	counting = false
	if probes > 0 {
		st.probe(nw, vocab, nodes-spec.churn, probeSeed, probes, spec.topK)
	}
	for _, v := range nw.CheckRing() {
		if !v.Transient() {
			st.hard++
		}
	}
	st.hard += int(nw.RingViolations())
	st.lay = layout{space: nw.Space}
	for _, p := range nw.Peers {
		st.lay.ids = append(st.lay.ids, uint64(p.ID()))
		st.lay.stores = append(st.lay.stores, p.Engine.LocalStore())
	}
	return st, nil
}

// probeSpan is the virtual time the probes are spread over.
const probeSpan = time.Minute

// probe runs paper-mix queries on the network the storm left behind, still
// over its lossy links, and records their virtual-time latency. Every
// other probe streams with Limit(topK), exercising the top-k cancel path.
// Probes run after the storm so they cannot perturb its schedule.
func (st *desStorm) probe(nw *dessim.Network, vocab *workload.Vocabulary, peers int, seed int64, probes, topK int) {
	base := nw.Core.Elapsed()
	gen := workload.NewQueryGen(vocab, seed, 2)
	rng := rand.New(rand.NewSource(seed + 1))
	for j := 0; j < probes; j++ {
		q := stormMixQuery(gen, j)
		st.probeQs = append(st.probeQs, q)
		at := probeSpan * time.Duration(j) / time.Duration(probes)
		via := rng.Intn(min(peers, len(nw.Peers)))
		done := func(err error) {
			if err == nil {
				st.probesOK++
				st.probeLat = append(st.probeLat, ms(nw.Core.Elapsed()-base-at))
			}
		}
		if j%2 == 0 || topK == 0 {
			nw.StartQuery(at, via, q, func(r squid.Result) { done(r.Err) })
			continue
		}
		nw.Schedule(at, func() {
			p := nw.Peers[via]
			if err := p.Node.Invoke(func() {
				_, err := p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
					if ev.Done {
						done(ev.Err)
					}
				}, squid.Limit(topK))
				if err != nil {
					done(err)
				}
			}); err != nil {
				done(err)
			}
		})
	}
	nw.Run()
	st.probesFail = probes - st.probesOK
}

// stormMixQuery draws the i-th query of RunStorm's paper mix: Q1 and Q2
// lookups, Q3 keyword ranges and an occasional full range sweep.
func stormMixQuery(gen *workload.QueryGen, i int) keyspace.Query {
	switch i % 8 {
	case 0, 4:
		return gen.Q1()
	case 1, 3, 5:
		return gen.Q2()
	case 2, 6:
		return gen.Q3Keyword()
	default:
		return gen.Q3Ranges()
	}
}

// runDES runs the pinned replay storms, then the measured storms: a fixed
// amount of work rather than a time budget. The network and the storm
// schedules are the corpus, fixed like the TCP workloads' data, because
// one storm's cost depends heavily on its churn schedule. The measured
// storms run without top-k, the one storm path that is not replay-
// deterministic (see README.md), so their cost repeats exactly; seed
// drives the probes run after each storm, half of them top-k streams.
// Per-storm figures are reported as the median over the run's storms.
func runDES(spec desSpec, seed int64, traced bool) (*report, error) {
	rep := newReport()
	var setups []float64
	matched := 0.0
	var hard int
	for _, rp := range spec.replays {
		st, err := runStorm(spec, rp.nodes, rp.seed, 0, rp.topK, 0, false)
		if err != nil {
			return nil, err
		}
		verdict := "MISMATCH"
		if st.res.Steps == rp.events && st.res.Fingerprint == rp.fingerprint {
			verdict = "match"
			matched++
		}
		progress("des-churn replay %s (%d nodes, storm seed %d, TopK %d): %d events fp=%016x, reference %d events fp=%016x: %s",
			rp.name, rp.nodes, rp.seed, rp.topK, st.res.Steps, st.res.Fingerprint, rp.events, rp.fingerprint, verdict)
		checkStorm(rep, st)
		if rp.nodes == spec.nodes {
			setups = append(setups, st.setup)
		}
		hard += st.hard
	}

	var storms []*desStorm
	for k := 0; k < spec.storms; k++ {
		st, err := runStorm(spec, spec.nodes, spec.stormSeed+int64(k), seed+int64(k), 0, spec.probes, traced && k == 0)
		if err != nil {
			return nil, err
		}
		progress("des-churn storm %d: %s, wall %.2fs, setup %.2fs, probes %d ok %d failed",
			k, st.res, st.wall.Seconds(), st.setup, st.probesOK, st.probesFail)
		checkStorm(rep, st)
		storms = append(storms, st)
		setups = append(setups, st.setup)
		hard += st.hard
	}

	perStorm := float64(spec.queries)
	perQuery := float64(spec.queries + spec.probes)
	var lat []float64
	var cpuQ, msgsQ, bytesQ, good, okShare, walls, evps []float64
	var queries, failed, dropped float64
	var events []float64
	var virt time.Duration
	agg := make(counters)
	var allocs uint64
	var gcCPU, rtCPU float64
	for _, st := range storms {
		ok := float64(st.res.Complete + st.probesOK)
		queries += perQuery
		failed += perQuery - ok
		stormOK := float64(st.res.Complete)
		events = append(events, float64(st.res.Steps))
		dropped += float64(st.dropped)
		virt += st.virtual
		lat = append(lat, st.probeLat...)
		cpuQ = append(cpuQ, ms(st.cpu)/perStorm)
		msgsQ = append(msgsQ, float64(st.msgs)/perStorm)
		bytesQ = append(bytesQ, float64(st.bytes)/perStorm)
		good = append(good, stormOK/st.wall.Seconds())
		okShare = append(okShare, ok/perQuery)
		walls = append(walls, st.wall.Seconds())
		evps = append(evps, float64(st.res.Steps)/st.wall.Seconds())
		for k, v := range st.counters {
			agg[k] += v
		}
		allocs += st.rtB.allocs - st.rtA.allocs
		gcCPU += st.rtB.gcCPU - st.rtA.gcCPU
		rtCPU += st.rtB.cpu - st.rtA.cpu
	}
	sort.Float64s(lat)
	rep.attempted = int(queries)
	rep.failed = int(failed)

	if !traced {
		rep.set("setup_s", median(setups))
		rep.set("goodput_qps", median(good))
		rep.set("cpu_ms_per_query", median(cpuQ))
		rep.set("msgs_per_query", median(msgsQ))
		rep.set("bytes_per_query", median(bytesQ))
		rep.set("success_ratio", median(okShare))
		rep.set("peak_rss_mb", peakRSSMB())
		return rep, nil
	}

	stormQ := perStorm * float64(len(storms))
	rep.set("squid.clusters_processed_per_query", agg["squid_engine_clusters_processed_total"]/stormQ)
	rep.set("squid.subtrees_per_query", agg["squid_engine_subtrees_dispatched_total"]/stormQ)
	rep.set("squid.batched_share", ratio(agg["squid_dispatch_batched_queries_total"], agg["squid_engine_subtrees_dispatched_total"]))
	hits, misses := agg["squid_result_cache_total|outcome=hit"], agg["squid_result_cache_total|outcome=miss"]
	rep.set("squid.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("squid.sched_wait_us_mean", ratio(agg["squid_sched_queue_wait_ns_sum"], agg["squid_sched_queue_wait_ns_count"])/1e3)
	rep.set("squid.shed_ratio", ratio(agg["squid_sched_shed_total|kind=root"], stormQ))
	rep.set("squid.redispatches_per_query", agg["squid_engine_recovery_total|event=redispatch"]/stormQ)
	rep.set("squid.stream_cancels_per_query", agg["squid_stream_cancels_total|dir=sent"]/stormQ)
	rep.set("squid.deliver_busy_max_share", 0)
	for _, name := range deliverKinds {
		rep.set("squid.deliver_us."+name, 0)
	}
	for _, name := range []string{"frames_per_flush", "send_latency_us_mean", "send_errors", "dials"} {
		rep.set("transport."+name, 0)
	}
	rep.set("chord.lookup_hops_mean", ratio(agg["squid_chord_lookup_hops_sum"], agg["squid_chord_lookup_hops_count"]))
	rep.set("chord.route_forwards_per_query", agg["squid_chord_route_forwards_total"]/stormQ)
	rep.set("chord.rpc_retries", agg["squid_chord_rpc_retries_total"])
	rep.set("chord.rpc_failures", agg["squid_chord_rpc_failures_total"])
	rep.set("chord.hard_violations", float64(hard))
	rep.set("dessim.events", median(events))
	rep.set("dessim.events_per_s", median(evps))
	rep.set("dessim.virtual_s", virt.Seconds()/float64(len(storms)))
	rep.set("dessim.msgs_dropped", dropped/float64(len(storms)))
	rep.set("dessim.storm_wall_s", median(walls))
	rep.set("dessim.replay_match", matched)
	rep.set("runtime.allocs_per_query", float64(allocs)/stormQ)
	rep.set("runtime.gc_cpu_share", ratio(gcCPU, rtCPU))
	rep.set("harness.fail_ratio", failed/queries)
	rep.set("harness.query_p50_ms", quantile(lat, 0.50))
	rep.set("harness.query_p99_ms", quantile(lat, 0.99))
	for _, name := range []string{"gen_late_p99_ms", "gen_late_max_ms", "arrivals_due", "arrivals_submitted", "trace_overhead_cpu_pct", "trace_overhead_p50_pct"} {
		rep.set("harness."+name, 0)
	}
	first := storms[0]
	replayLayers(rep, first.lay, first.probeQs)
	wireReplay(rep, first.samples)
	return rep, nil
}

// checkStorm applies the storm's correctness condition: no hard ring
// violation. A query whose callback never fired (Incomplete: its initiator
// was killed mid-query) is a failed operation, counted with the partial
// results, not a wrong one.
func checkStorm(rep *report, st *desStorm) {
	if st.hard > 0 {
		rep.fail("storm %016x: %d hard ring violations", st.res.Fingerprint, st.hard)
	}
	if st.res.Incomplete > 0 || st.res.JoinErrs > 0 {
		fmt.Printf("note: storm %016x: %d incomplete queries, %d failed joins\n", st.res.Fingerprint, st.res.Incomplete, st.res.JoinErrs)
	}
}
