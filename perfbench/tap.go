package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/chord"
	"squid/internal/squid"
	"squid/internal/transport"
)

// kindOther collects deliveries outside deliverKinds (invocations,
// stabilization RPCs, acks).
const kindOther = -1

// classify names a delivered message by deliverKinds index and extracts
// the query id it serves, when it has one.
func classify(msg any) (kind int, qid uint64) {
	switch m := msg.(type) {
	case chord.AppMsg:
		switch p := m.Payload.(type) {
		case squid.ClusterQueryMsg:
			return 0, uint64(p.QID)
		case squid.BatchMsg:
			if len(p.Queries) > 0 {
				qid = uint64(p.Queries[0].QID)
			}
			return 1, qid
		case squid.SubResultMsg:
			return 2, uint64(p.QID)
		case squid.PartialResultMsg:
			return 3, uint64(p.QID)
		}
	case chord.RouteMsg:
		if _, ok := m.Payload.(squid.PublishMsg); ok {
			return 6, 0
		}
		return 4, m.Trace
	case chord.FindMsg:
		return 5, m.Trace
	}
	return kindOther, 0
}

// span is one recorded delivery.
type span struct {
	start int64 // ns since the tap's epoch
	dur   int64 // ns inside the node's Deliver
	qid   uint64
	kind  int8
}

// samplesPerKind bounds the messages kept per kind for the wire replay;
// sampleEvery spreads them over the phase.
const (
	samplesPerKind = 48
	sampleEvery    = 16
)

// tap is the benchmark's transport.Handler wrapper around a chord.Node:
// while enabled it records a span per delivery and samples messages for
// the wire-codec replay. Deliver runs on the endpoint's single delivery
// goroutine; mu orders it with the reader.
type tap struct {
	next transport.Handler

	enabled atomic.Bool
	epoch   time.Time

	mu      sync.Mutex
	spans   []span
	busy    int64 // ns spent in Deliver while enabled
	seen    [8]int
	samples [8][]any
}

func (t *tap) Deliver(from transport.Addr, msg any) {
	if !t.enabled.Load() {
		t.next.Deliver(from, msg)
		return
	}
	start := time.Now()
	t.next.Deliver(from, msg)
	dur := time.Since(start)
	kind, qid := classify(msg)
	t.mu.Lock()
	t.spans = append(t.spans, span{start: int64(start.Sub(t.epoch)), dur: int64(dur), qid: qid, kind: int8(kind)})
	t.busy += int64(dur)
	if kind != kindOther {
		t.seen[kind]++
		if t.seen[kind]%sampleEvery == 1 && len(t.samples[kind]) < samplesPerKind {
			t.samples[kind] = append(t.samples[kind], msg)
		}
	}
	t.mu.Unlock()
}

// setEnabled switches recording on or off; epoch anchors span starts.
func (t *tap) setEnabled(on bool, epoch time.Time) {
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
	t.enabled.Store(on)
}

// busyNS returns the recorded delivery time so far.
func (t *tap) busyNS() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy
}

// tapStats aggregates every peer's spans: mean Deliver time per kind and
// the sampled messages.
type tapStats struct {
	deliverNS [8]float64
	samples   [8][]any
}

func collectTaps(r *ring) tapStats {
	var st tapStats
	var sum [8]int64
	var cnt [8]int64
	for _, p := range r.peers {
		if p.tap == nil {
			continue
		}
		p.tap.mu.Lock()
		for _, s := range p.tap.spans {
			if s.kind >= 0 {
				sum[s.kind] += s.dur
				cnt[s.kind]++
			}
		}
		for k := range p.tap.samples {
			st.samples[k] = append(st.samples[k], p.tap.samples[k]...)
		}
		p.tap.mu.Unlock()
	}
	for k := range sum {
		st.deliverNS[k] = ratio(float64(sum[k]), float64(cnt[k]))
	}
	return st
}

// writeSpans writes every recorded span as tab-separated text:
// peer, kind, qid, start_ns, dur_ns.
func writeSpans(path string, r *ring) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "peer\tkind\tqid\tstart_ns\tdur_ns")
	for i, p := range r.peers {
		if p.tap == nil {
			continue
		}
		p.tap.mu.Lock()
		for _, s := range p.tap.spans {
			kind := "Other"
			if s.kind >= 0 {
				kind = deliverKinds[s.kind]
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, kind, s.qid, s.start, s.dur)
		}
		p.tap.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
