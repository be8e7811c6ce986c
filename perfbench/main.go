// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload per invocation and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. See README.md for the workloads
// and the metric map, and run.sh for how to build and invoke it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	selftest bool
	outDir   string
	corrupt  bool // self-test: corrupt one oracle entry
	small    bool // self-test: small ring, few operations
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed: elements, queries and arrivals follow it")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time per run")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&o.selftest, "selftest", false, "run every workload small and check the harness itself")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for span files of traced runs")
	flag.Parse()
	if o.selftest {
		if err := selftest(o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("perfbench selftest ok")
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.invalidWhy != "" {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %s\n", rep.invalidWhy)
		os.Exit(2)
	}
	rep.print(os.Stdout)
}

// workloads maps each workload name to its runner at full or self-test
// size.
func workloads(small bool) map[string]func(seed int64, seconds float64, traced bool, o *options) (*report, error) {
	zipf := tcpSpec{name: "zipf-rw", peers: 16, preload: 20000, vocab: 2000,
		nominalQPS: 200, overloadQPS: 4000, deadline: time.Second, window: time.Second,
		setupReps: 15, warmup: time.Second, pool: 200, writeShare: 0.10, maxLateP99: 50}
	wide := tcpSpec{name: "wide-scan", peers: 16, preload: 20000, vocab: 2000,
		nominalQPS: 80, overloadQPS: 800, deadline: time.Second, window: time.Second,
		setupReps: 15, warmup: time.Second, wide: true, maxLateP99: 50}
	des := desSpec{nodes: 1000, queries: 1000, topK: 10, churn: 25, probes: 200, netSeed: 9001,
		stormSeed: 9101, storms: 5,
		replays: []desReplay{
			{name: "des-churn", nodes: 1000, topK: 10, seed: 9005, events: desChurnReplayEvents, fingerprint: desChurnReplayFingerprint},
			{name: "BENCH_4 1000-node point", nodes: 1000, topK: 0, seed: 9005, events: 887268, fingerprint: 0xb825fa816bd65133},
		}}
	if small {
		for _, s := range []*tcpSpec{&zipf, &wide} {
			s.peers, s.preload, s.setupReps, s.window, s.warmup = 4, 2000, 2, time.Second, 200*time.Millisecond
			s.nominalQPS, s.overloadQPS = 150, 300
			s.maxLateP99 = 1000
		}
		des = desSpec{nodes: 100, queries: 100, topK: 10, churn: 3, probes: 50, netSeed: 9001,
			stormSeed: 9101, storms: 2,
			replays: []desReplay{{name: "small", nodes: 100, topK: 10, seed: 9005}}}
	}
	return map[string]func(int64, float64, bool, *options) (*report, error){
		"zipf-rw": func(seed int64, seconds float64, traced bool, o *options) (*report, error) {
			return runTCP(zipf, seed, seconds, traced, o)
		},
		"wide-scan": func(seed int64, seconds float64, traced bool, o *options) (*report, error) {
			return runTCP(wide, seed, seconds, traced, o)
		},
		"des-churn": func(seed int64, _ float64, traced bool, _ *options) (*report, error) {
			return runDES(des, seed, traced)
		},
	}
}

// The pinned des-churn replay reference: storm seed 9005 on the 1,000-node
// network of seed 9001 with TopK 10 (see README.md).
const (
	desChurnReplayEvents      = 1334552
	desChurnReplayFingerprint = 0x8ce1e53e9ddccaa5
)

func workloadNames() []string {
	var names []string
	for n := range workloads(false) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(o options) (*report, error) {
	fn, ok := workloads(o.small)[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.trace == 1 && o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
	}
	return fn(o.seed, o.seconds, o.trace == 1, &o)
}

// report is one run's result: correctness, operation counts and metrics.
type report struct {
	correct    bool
	attempted  int
	failed     int
	metrics    map[string]float64
	invalidWhy string
}

func newReport() *report { return &report{correct: true, metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// fail marks the run's output wrong.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	fmt.Printf("CHECK FAILED: "+format+"\n", args...)
}

// invalid marks a run whose measurement cannot be trusted (the load
// generator fell behind its schedule); it reports no metrics.
func (r *report) invalid(format string, args ...any) {
	r.invalidWhy = fmt.Sprintf(format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// units maps every catalogued metric to its unit.
func units() map[string]string {
	u := make(map[string]string)
	for _, d := range append(e2eMetrics(), layerMetrics()...) {
		u[d.name] = d.unit
	}
	return u
}

// result renders the report as the JSON result object.
func (r *report) result() jsonResult {
	u := units()
	out := jsonResult{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[name] = jsonMetric{Value: v, Unit: u[name]}
	}
	return out
}

func (r *report) print(w *os.File) {
	res := r.result()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// progress reports to standard error, keeping standard output for the
// result.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
