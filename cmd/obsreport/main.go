// Command obsreport reads the JSON run reports the CLIs write with
// -report (asmodel, asmodeld, topogen, mrt2paths, experiments).
//
//	obsreport show report.json              # human-readable stage breakdown
//	obsreport diff old.json new.json        # metric deltas, stage-time ratios
//
// Benchmark results are cmd/bench's: it writes them with -out and
// compares two sets of them against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"asmodel/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "show":
		if len(os.Args) != 3 {
			usage()
		}
		err = show(os.Args[2])
	case "diff":
		if len(os.Args) != 4 {
			usage()
		}
		err = diff(os.Args[2], os.Args[3])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  obsreport show <report.json>
  obsreport diff <old.json> <new.json>`)
	os.Exit(2)
}

func readJSON(path string) (map[string]interface{}, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v map[string]interface{}
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// flatten turns nested objects and arrays into dotted leaf keys
// ("stages.0.seconds"), the shape diff compares.
func flatten(prefix string, v interface{}, out map[string]interface{}) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, sub := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flatten(key, sub, out)
		}
	case []interface{}:
		for i, sub := range t {
			key := strconv.Itoa(i)
			if prefix != "" {
				key = prefix + "." + key
			}
			flatten(key, sub, out)
		}
	default:
		out[prefix] = v
	}
}

func flatMap(v map[string]interface{}) map[string]interface{} {
	out := make(map[string]interface{})
	flatten("", v, out)
	return out
}

func sortedKeys(m map[string]interface{}) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtVal(v interface{}) string {
	switch t := v.(type) {
	case float64:
		return strconv.FormatFloat(t, 'g', 6, 64)
	case string:
		return t
	case nil:
		return "null"
	default:
		return fmt.Sprint(t)
	}
}

// show renders a run report as a stage breakdown when the file carries
// the run-report schema, and as a sorted key dump otherwise (cmd/bench
// results, unknown schemas).
func show(path string) error {
	raw, err := readJSON(path)
	if err != nil {
		return err
	}
	if raw["schema"] == obs.RunReportSchema {
		rep, err := obs.ReadRunReport(path)
		if err != nil {
			return err
		}
		return showRunReport(rep)
	}
	if s, ok := raw["schema"].(string); ok {
		fmt.Printf("%s (%s)\n", path, s)
	} else {
		fmt.Printf("%s (no schema field)\n", path)
	}
	flat := flatMap(raw)
	for _, k := range sortedKeys(flat) {
		fmt.Printf("  %-50s %s\n", k, fmtVal(flat[k]))
	}
	return nil
}

func showRunReport(rep *obs.RunReport) error {
	fmt.Printf("%s  (%s)\n", rep.Command, rep.Schema)
	if len(rep.Args) > 0 {
		fmt.Printf("  args:        %s\n", strings.Join(rep.Args, " "))
	}
	fmt.Printf("  started:     %s\n", rep.Start)
	fmt.Printf("  wall:        %.3fs\n", rep.WallSeconds)
	fmt.Printf("  seed:        %d\n", rep.Seed)
	fmt.Printf("  host:        %s/%s gomaxprocs=%d numcpu=%d %s\n",
		rep.GOOS, rep.GOARCH, rep.GoMaxProcs, rep.NumCPU, rep.GoVersion)
	if rep.GitDescribe != "" {
		fmt.Printf("  git:         %s\n", rep.GitDescribe)
	}
	if len(rep.Stages) > 0 {
		fmt.Println("  stages:")
		for _, st := range rep.Stages {
			pct := 0.0
			if rep.WallSeconds > 0 {
				pct = 100 * st.Seconds / rep.WallSeconds
			}
			line := fmt.Sprintf("    %-24s %9.3fs %5.1f%%", st.Name, st.Seconds, pct)
			if len(st.Attrs) > 0 {
				parts := make([]string, 0, len(st.Attrs))
				for _, k := range sortedKeys(st.Attrs) {
					parts = append(parts, k+"="+fmtVal(st.Attrs[k]))
				}
				line += "  " + strings.Join(parts, " ")
			}
			fmt.Println(line)
		}
	}
	if len(rep.Sections) > 0 {
		fmt.Printf("  sections:    %s\n", strings.Join(sortedKeys(rep.Sections), " "))
	}
	fmt.Printf("  metrics:     %d recorded\n", len(rep.Metrics))
	return nil
}

// diff prints keys added, removed and changed between two reports; for
// numeric changes it includes the new/old ratio so stage-time drift
// stands out.
func diff(oldPath, newPath string) error {
	oldRaw, err := readJSON(oldPath)
	if err != nil {
		return err
	}
	newRaw, err := readJSON(newPath)
	if err != nil {
		return err
	}
	a, b := flatMap(oldRaw), flatMap(newRaw)
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	changes := 0
	for _, k := range ordered {
		av, aok := a[k]
		bv, bok := b[k]
		switch {
		case !aok:
			fmt.Printf("+ %-50s %s\n", k, fmtVal(bv))
			changes++
		case !bok:
			fmt.Printf("- %-50s %s\n", k, fmtVal(av))
			changes++
		case fmtVal(av) != fmtVal(bv):
			line := fmt.Sprintf("~ %-50s %s -> %s", k, fmtVal(av), fmtVal(bv))
			if af, aIsNum := av.(float64); aIsNum {
				if bf, bIsNum := bv.(float64); bIsNum && af != 0 {
					line += fmt.Sprintf("  (%.2fx)", bf/af)
				}
			}
			fmt.Println(line)
			changes++
		}
	}
	if changes == 0 {
		fmt.Println("no differences")
	}
	return nil
}
