package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may move
// before it counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkDef is the part of BENCHMARK.json this program reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readResults loads the untraced results of an --out file, by workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, the relative
// difference between the medians of two sets of runs against the metric's
// bound, and each set's spread. It reports false when any difference,
// either way, exceeds its bound: two sets of runs of one commit should
// agree within the bounds.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	def, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-15s %-13s %11s %11s %8s %7s %9s %9s\n",
		"workload", "metric", "median a", "median b", "change", "bound", "spread a", "spread b")
	for _, name := range names {
		for _, m := range def.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			ma, mb := median(va), median(vb)
			rel := ratio(mb-ma, math.Abs(ma))
			verdict := "ok"
			if math.Abs(rel) > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			worse := (rel > 0) == (m.Better == "lower")
			dir := "better"
			if worse {
				dir = "worse"
			}
			if rel == 0 {
				dir = "same"
			}
			fmt.Fprintf(w, "%-15s %-13s %11.5g %11.5g %+7.2f%% %6.0f%% %8.1f%% %8.1f%%  %s (%s, n=%d/%d)\n",
				name, m.Name, ma, mb, 100*rel, 100*m.Bound, 100*spread(va), 100*spread(vb),
				verdict, dir, len(va), len(vb))
		}
	}
	return ok, nil
}

// values collects one metric across runs.
func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
