package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// selftest runs every workload small, traced and untraced, and checks the
// harness itself: every catalogued metric is emitted with its unit, the
// catalogue agrees with BENCHMARK.json when that file is present, and a
// corrupted oracle entry fails the output check.
func selftest(o options) error {
	o.small = true
	o.seconds = 2
	o.outDir = ""
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	if err := checkReadme("perfbench/README.md"); err != nil {
		return err
	}
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			o.workload, o.trace = w, trace
			rep, err := run(o)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w, trace, err)
			}
			if !rep.correct {
				return fmt.Errorf("%s trace=%d: output check failed on a clean run", w, trace)
			}
			want := e2eMetrics()
			if trace == 1 {
				want = layerMetrics()
			}
			res := rep.result()
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok {
					return fmt.Errorf("%s trace=%d: metric %s not emitted", w, trace, d.name)
				}
				if m.Unit == "" || m.Unit != d.unit {
					return fmt.Errorf("%s trace=%d: metric %s has unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				}
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%d: %d metrics emitted, catalogue has %d", w, trace, len(res.Metrics), len(want))
			}
			if trace == 0 {
				for _, d := range want {
					if res.Metrics[d.name].Value == 0 {
						return fmt.Errorf("%s: end-to-end metric %s is 0", w, d.name)
					}
				}
			}
			progress("selftest %s trace=%d: %d metrics ok", w, trace, len(res.Metrics))
		}
	}
	for _, w := range []string{"zipf-rw", "wide-scan"} {
		o.workload, o.trace, o.corrupt = w, 0, true
		rep, err := run(o)
		if err != nil {
			return fmt.Errorf("%s corrupted oracle: %w", w, err)
		}
		if rep.correct {
			return fmt.Errorf("%s: a corrupted oracle entry passed the output check", w)
		}
		progress("selftest %s: corrupted oracle entry detected", w)
	}
	return nil
}

// checkBenchmarkJSON compares BENCHMARK.json's metric lists with the
// catalogue. A missing file (running outside a checkout) is not an error.
func checkBenchmarkJSON(path string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, cat []metricDef) error {
		got := make([]string, 0, len(listed))
		for _, m := range listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		want := make([]string, 0, len(cat))
		for _, d := range cat {
			want = append(want, d.name+" "+d.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("%s %s lists %v, catalogue has %v", path, kind, got, want)
		}
		return nil
	}
	if err := compare("end_to_end", bj.EndToEnd, e2eMetrics()); err != nil {
		return err
	}
	return compare("per_layer", bj.PerLayer, layerMetrics())
}

// checkReadme requires README.md's metric map to name every catalogued
// metric (a per-kind family as <name>.<kind>). A missing file is not an
// error.
func checkReadme(path string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	doc := string(b)
	for _, d := range append(e2eMetrics(), layerMetrics()...) {
		name := d.name
		for _, k := range deliverKinds {
			if strings.HasSuffix(name, "."+k) {
				name = strings.TrimSuffix(name, k) + "<kind>"
			}
		}
		if !strings.Contains(doc, "`"+name+"`") {
			return fmt.Errorf("%s does not document metric %s", path, name)
		}
	}
	return nil
}
