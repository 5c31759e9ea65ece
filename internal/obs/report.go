package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"asmodel/internal/durable"
)

// RunReportSchema versions the run-report JSON; bump on incompatible
// shape changes so cmd/obsreport can refuse files it cannot interpret.
const RunReportSchema = "asmodel-run-report-v1"

// RunReport is the machine-readable record every CLI run can write with
// -report: what ran (command, args, seed), where (go version, CPU,
// git describe), how long each stage took, and what came out (metric
// snapshot plus command-specific sections such as ingest reports and
// quarantine summaries). Reports are comparable across runs — the unit
// cmd/obsreport diffs.
type RunReport struct {
	Schema      string                 `json:"schema"`
	Command     string                 `json:"command"`
	Args        []string               `json:"args,omitempty"`
	Seed        int64                  `json:"seed,omitempty"`
	Start       string                 `json:"start"` // RFC3339
	WallSeconds float64                `json:"wall_seconds"`
	GoVersion   string                 `json:"go_version"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	GoMaxProcs  int                    `json:"gomaxprocs"`
	NumCPU      int                    `json:"num_cpu"`
	Hostname    string                 `json:"hostname,omitempty"`
	GitDescribe string                 `json:"git_describe,omitempty"`
	Stages      []StageReport          `json:"stages,omitempty"`
	Metrics     map[string]interface{} `json:"metrics,omitempty"`
	Sections    map[string]interface{} `json:"sections,omitempty"`

	started time.Time
}

// StageReport is one pipeline stage's accounting: wall-clock plus the
// stage span's attributes (prefix counts, records written, workers).
type StageReport struct {
	Name    string                 `json:"name"`
	Seconds float64                `json:"seconds"`
	Attrs   map[string]interface{} `json:"attrs,omitempty"`
}

// NewRunReport starts a report for one CLI invocation, capturing the
// environment (go version, GOMAXPROCS, NumCPU, hostname, best-effort
// git describe) and the start time.
func NewRunReport(command string, args []string) *RunReport {
	now := time.Now()
	r := &RunReport{
		Schema:      RunReportSchema,
		Command:     command,
		Args:        args,
		Start:       now.Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GitDescribe: gitDescribe(),
		started:     now,
	}
	if h, err := os.Hostname(); err == nil {
		r.Hostname = h
	}
	return r
}

// AddSection attaches a command-specific payload (ingest report,
// quarantine summary, evaluation headline) under the given name.
func (r *RunReport) AddSection(name string, v interface{}) {
	if r.Sections == nil {
		r.Sections = make(map[string]interface{})
	}
	r.Sections[name] = v
}

// AddStage appends an explicit stage row (for stages not covered by a
// span, e.g. in code paths without a recorder).
func (r *RunReport) AddStage(name string, d time.Duration, attrs map[string]interface{}) {
	r.Stages = append(r.Stages, StageReport{Name: name, Seconds: d.Seconds(), Attrs: attrs})
}

// Finish closes the report: total wall time, per-stage rows derived from
// the recorder's depth-1 spans (nil recorder leaves explicit stages
// untouched), and the final metric snapshot from reg (nil skips it).
// Call once, immediately before WriteFile.
func (r *RunReport) Finish(rec *SpanRecorder, reg *Registry) {
	r.WallSeconds = time.Since(r.started).Seconds()
	if rec != nil {
		for _, c := range rec.Root().Children() {
			r.Stages = append(r.Stages, StageReport{
				Name:    c.Name(),
				Seconds: c.Seconds(),
				Attrs:   c.attrMap(false),
			})
		}
	}
	if reg != nil {
		r.Metrics = reg.Snapshot()
	}
}

// WriteFile writes the report as indented JSON via
// durable.WriteFileAtomic: temp file, fsync, rename, previous file
// rotated to .bak — a crash mid-write never clobbers the last report.
func (r *RunReport) WriteFile(path string) error {
	return durable.WriteFileAtomic(path, durable.Policy{}, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

// Write renders the report as indented JSON to w.
func (r *RunReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// gitDescribe returns `git describe --tags --always --dirty` for the
// working directory, or "" when git or the repository is unavailable —
// reports must work from release tarballs too.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--tags", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// ReadRunReport loads and schema-checks a run report.
func ReadRunReport(path string) (*RunReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("obs: parsing run report %s: %w", path, err)
	}
	if r.Schema != RunReportSchema {
		return nil, fmt.Errorf("obs: %s: unsupported run-report schema %q (want %q)", path, r.Schema, RunReportSchema)
	}
	return &r, nil
}
