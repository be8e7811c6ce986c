package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"squid/internal/keyspace"
	"squid/internal/squid"
)

// op is one offered operation: a query (qi indexes the run's distinct
// query table, the oracle's key) or the publish of a new element.
type op struct {
	publish bool
	q       keyspace.Query
	qi      int
	elem    squid.Element
}

// outcome is what became of one arrival. Times are offsets from the
// phase start; latency runs from due, the arrival's scheduled instant.
type outcome struct {
	due, submitted, done time.Duration
	err                  error
	ids                  []int32
	finished             bool
	wrong                error // oracle check failure
}

func (o *outcome) latency() time.Duration { return o.done - o.due }

// phaseSpec is one open-loop phase; its arrivals are drawn by the caller.
type phaseSpec struct {
	dur      time.Duration
	deadline time.Duration // per-query, from the due instant
	window   time.Duration // reporting window; traced runs alternate windows
	traced   bool          // alternate tap recording per window (odd windows on)
}

// arrivals draws Poisson arrival offsets at rate over dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// windowStat accumulates one reporting window of a phase.
type windowStat struct {
	traced   bool
	cpuStart time.Duration
	cpu      time.Duration
	late     []float64 // generator lateness per arrival, ms
	busy     []int64   // per-peer tap busy ns at window start
	busyEnd  []int64
	wall     time.Duration
}

// phaseResult is a completed phase.
type phaseResult struct {
	spec    phaseSpec
	ops     []op
	out     []outcome
	windows []*windowStat
	late    []float64     // all lateness samples, ms
	cpu     time.Duration // process CPU from start to drain
	due     int           // arrivals due within the phase
	onTime  int           // arrivals submitted before the phase ended
	before  counters
	after   counters
	rtA     rtSample
	rtB     rtSample
}

// drainTimeout bounds the wait for the last query of a phase.
const drainTimeout = 30 * time.Second

// runPhase offers ops at the arrival offsets from one goroutine: each
// arrival waits for its instant, then is injected at the next peer in turn
// through Node.Invoke, and queries run via Engine.QueryStreamFunc with a
// deadline measured from the due instant. It returns once every query has
// finished.
func runPhase(r *ring, spec phaseSpec, ops []op, at []time.Duration) *phaseResult {
	res := &phaseResult{spec: spec, ops: ops, out: make([]outcome, len(ops)), due: len(at)}
	var mu sync.Mutex // orders outcome writes on delivery goroutines with the reader
	var wg sync.WaitGroup
	res.before = scrape(r.reg)
	res.rtA = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	curWin := -1
	openWindow := func(w int) {
		now := cpuTime()
		if curWin >= 0 {
			ws := res.windows[curWin]
			ws.cpu = now - ws.cpuStart
			ws.wall = spec.window
			ws.busyEnd = tapBusy(r)
		}
		ws := &windowStat{traced: spec.traced && w%2 == 1, cpuStart: now, busy: tapBusy(r)}
		res.windows = append(res.windows, ws)
		curWin = w
		if spec.traced {
			for _, p := range r.peers {
				p.tap.setEnabled(ws.traced, start)
			}
		}
	}
	for i := range ops {
		w := int(at[i] / spec.window)
		for curWin < w {
			openWindow(curWin + 1)
		}
		due := start.Add(at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := ms(time.Since(due))
		res.late = append(res.late, late)
		res.windows[curWin].late = append(res.windows[curWin].late, late)
		o := &res.out[i]
		o.due = at[i]
		o.submitted = time.Since(start)
		if o.submitted < spec.dur {
			res.onTime++
		}
		p := r.peers[i%len(r.peers)]
		wg.Add(1)
		finish := func(ids []int32, err error) {
			now := time.Since(start)
			mu.Lock()
			if !o.finished { // not already given up on at the drain timeout
				o.ids, o.err, o.done, o.finished = ids, err, now, true
			}
			mu.Unlock()
			wg.Done()
		}
		if ops[i].publish {
			elem := ops[i].elem
			if err := p.node.Invoke(func() { finish(nil, p.eng.Publish(elem)) }); err != nil {
				finish(nil, err)
			}
			continue
		}
		q := ops[i].q
		ctx, cancel := context.WithDeadline(context.Background(), due.Add(spec.deadline))
		if err := p.node.Invoke(func() {
			var ids []int32
			_, err := p.eng.QueryStreamFunc(ctx, q, func(ev squid.StreamEvent) {
				for _, e := range ev.Matches {
					ids = append(ids, elemID(e))
				}
				if ev.Done {
					cancel()
					finish(ids, ev.Err)
				}
			})
			if err != nil {
				cancel()
				finish(nil, err)
			}
		}); err != nil {
			cancel()
			finish(nil, err)
		}
	}
	for curWin < int((spec.dur-1)/spec.window) {
		openWindow(curWin + 1)
	}
	if d := time.Until(start.Add(spec.dur)); d > 0 {
		time.Sleep(d)
	}
	openWindow(curWin + 1) // closes the last window; the extra one is dropped
	res.windows = res.windows[:len(res.windows)-1]
	if spec.traced {
		for _, p := range r.peers {
			p.tap.setEnabled(false, start)
		}
	}

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	res.cpu = cpuTime() - cpu0
	res.rtB = readRuntime()
	res.after = scrape(r.reg)
	mu.Lock()
	defer mu.Unlock()
	for i := range res.out {
		if !res.out[i].finished {
			res.out[i].err = errIncomplete
			res.out[i].finished = true
		}
	}
	return res
}

var errIncomplete = errors.New("query did not finish before the drain timeout")

// tapBusy reads every peer's tap busy time (nil on untraced rings).
func tapBusy(r *ring) []int64 {
	if len(r.peers) == 0 || r.peers[0].tap == nil {
		return nil
	}
	out := make([]int64, len(r.peers))
	for i, p := range r.peers {
		out[i] = p.tap.busyNS()
	}
	return out
}

// tally classifies a phase's outcomes. ok is a query that completed with
// no error, passed the oracle check and met its deadline.
type tally struct {
	queries, publishes           int
	ok, shed, partial, missed    int
	incomplete, wrong, otherErrs int
	failedPublishes              int
}

func (t tally) failed() int {
	return t.shed + t.partial + t.missed + t.incomplete + t.wrong + t.otherErrs + t.failedPublishes
}

func (t tally) ops() int { return t.queries + t.publishes }

func (t tally) add(o tally) tally {
	return tally{t.queries + o.queries, t.publishes + o.publishes, t.ok + o.ok, t.shed + o.shed,
		t.partial + o.partial, t.missed + o.missed, t.incomplete + o.incomplete, t.wrong + o.wrong,
		t.otherErrs + o.otherErrs, t.failedPublishes + o.failedPublishes}
}

func (res *phaseResult) tally() tally {
	var t tally
	for i := range res.out {
		o := &res.out[i]
		if res.ops[i].publish {
			t.publishes++
			if o.err != nil {
				t.failedPublishes++
			}
			continue
		}
		t.queries++
		switch {
		case o.err == nil && o.wrong != nil:
			t.wrong++
		case o.err == nil && o.latency() <= res.spec.deadline:
			t.ok++
		case o.err == nil:
			t.missed++
		case errors.Is(o.err, squid.ErrOverloaded):
			t.shed++
		case errors.Is(o.err, squid.ErrPartialResult):
			t.partial++
		case errors.Is(o.err, context.DeadlineExceeded):
			t.missed++
		case errors.Is(o.err, errIncomplete):
			t.incomplete++
		default:
			t.otherErrs++
		}
	}
	return t
}

// okSpan is the time over which the phase delivered its good queries: the
// offered duration, or until the last query that completed correctly
// within its deadline if that was later. Goodput divides by it, so a
// phase that sheds most of its load cannot finish early and look fast.
func (res *phaseResult) okSpan() time.Duration {
	span := res.spec.dur
	for i := range res.out {
		o := &res.out[i]
		if !res.ops[i].publish && o.err == nil && o.wrong == nil && o.latency() <= res.spec.deadline {
			span = max(span, o.done)
		}
	}
	return span
}

// latencies returns the sorted latencies (ms) of successful queries due in
// the windows selected by keep (all when keep is nil).
func (res *phaseResult) latencies(keep func(w int) bool) []float64 {
	var out []float64
	for i := range res.out {
		o := &res.out[i]
		if res.ops[i].publish || o.err != nil || o.wrong != nil {
			continue
		}
		if keep != nil && !keep(int(o.due/res.spec.window)) {
			continue
		}
		out = append(out, ms(o.latency()))
	}
	sort.Float64s(out)
	return out
}

// queriesIn counts the queries due in windows selected by keep.
func (res *phaseResult) queriesIn(keep func(w int) bool) int {
	n := 0
	for i := range res.out {
		if !res.ops[i].publish && keep(int(res.out[i].due/res.spec.window)) {
			n++
		}
	}
	return n
}
