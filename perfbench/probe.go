package main

import (
	"bufio"
	"bytes"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"squid/internal/telemetry"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSample is a snapshot of the Go runtime counters the benchmark reports.
type rtSample struct {
	allocs     uint64  // heap objects allocated
	gcCPU, cpu float64 // runtime's estimates of GC and total CPU seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.cpu = s[2].Value.Float64()
	}
	return out
}

// counters is a scrape of a telemetry registry's Prometheus exposition,
// summed over every label set except the ones kept in the key: a series
// `name{node="a",outcome="hit"}` is added to both `name` and
// `name|outcome=hit` (and likewise for every other non-node label).
type counters map[string]float64

// scrape reads every series the registry exports.
func scrape(reg *telemetry.Registry) counters {
	var buf bytes.Buffer
	out := make(counters)
	if err := reg.WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], strings.TrimSuffix(series[i+1:], "}")
		}
		if strings.Contains(labels, "le=") {
			continue // histogram buckets: the _sum and _count series suffice
		}
		out[name] += v
		for _, kv := range strings.Split(labels, ",") {
			k, val, ok := strings.Cut(kv, "=")
			if !ok || k == "node" {
				continue
			}
			out[name+"|"+k+"="+strings.Trim(val, `"`)] += v
		}
	}
	return out
}

// sub returns c - base per series.
func (c counters) sub(base counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted xs by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
