package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json that compare and the smoke test
// read: every metric's unit, direction and (end-to-end only) bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet is the metric values of a directory of result files, by
// workload and metric, plus the files whose checks failed.
type resultSet struct {
	values    map[string]map[string][]float64
	incorrect []string
}

func loadResults(dir string) (*resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	rs := &resultSet{values: make(map[string]map[string][]float64)}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil || r.Schema != resultSchema {
			continue // not a result file
		}
		if !r.Correct {
			rs.incorrect = append(rs.incorrect, f)
		}
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			rs.values[r.Workload][name] = append(rs.values[r.Workload][name], m.Value)
		}
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("%s: no %s result files", dir, resultSchema)
	}
	return rs, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given (negative when b is better).
func worsening(a, b float64, better string) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	w := (b - a) / math.Abs(a)
	if better == "higher" {
		w = -w
	}
	return w
}

// compareMain implements "bench compare setA/ setB/": it applies each
// metric's direction and bound to the medians of the two sets, prints
// one row per (workload, metric), and returns 1 when an end-to-end metric
// worsened by more than its bound or a run failed its checks.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration giving every metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-spec BENCHMARK.json] setA/ setB/")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	violations := len(a.incorrect) + len(b.incorrect)
	for _, f := range append(a.incorrect, b.incorrect...) {
		fmt.Printf("FAILED CHECKS: %s\n", f)
	}
	var workloads []string
	for w := range a.values {
		if b.values[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tbound\tverdict\t")
	for _, w := range workloads {
		for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			va, vb := a.values[w][m.Name], b.values[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(ma, mb, m.Better)
			bound, verdict := "-", ""
			switch {
			case m.Bound != nil:
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
				verdict = "ok"
				if worse > *m.Bound {
					verdict = "WORSE"
					violations++
				}
			case allEqual(append(slices.Clone(va), vb...)):
				verdict = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\t\n",
				w, m.Name, m.Unit, ma, mb, worse*100, bound, verdict)
		}
	}
	tw.Flush()
	if violations > 0 {
		fmt.Printf("%d violation(s)\n", violations)
		return 1
	}
	return 0
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
