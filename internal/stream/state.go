package stream

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"

	"asmodel/internal/durable"
	"asmodel/internal/model"
	"asmodel/internal/obs"
)

// The stream state file is the single commit point of the streaming
// refinement loop: a source-position cursor (asmodel-stream-cursor-v1)
// followed by a verbatim embedded refinement checkpoint
// (asmodel-checkpoint-v1, which itself embeds the model and ends with
// the model's "end" trailer — the integrity marker for the whole file).
// Cursor and checkpoint are written in ONE durable.WriteFileAtomic
// call: either both land or neither does, which is what makes a batch
// exactly-once — there is no observable state where the model reflects
// a batch the cursor has not consumed, or vice versa.

// Totals is the cumulative, committed accounting of a stream: replay
// counts plus refinement result counts summed over every committed
// batch. It is part of the cursor, so a resumed run reports exactly
// what an uninterrupted run would.
type Totals struct {
	Updates           int `json:"updates"`
	Announces         int `json:"announces"`
	Withdraws         int `json:"withdraws"`
	SkippedRecords    int `json:"skipped_records"`
	ChangedPrefixes   int `json:"changed_prefixes"`
	UnknownPrefixes   int `json:"unknown_prefixes"`
	RefinedPrefixes   int `json:"refined_prefixes"`
	Iterations        int `json:"iterations"`
	QuasiRoutersAdded int `json:"quasi_routers_added"`
	FiltersAdded      int `json:"filters_added"`
	FiltersRemoved    int `json:"filters_removed"`
	MEDRules          int `json:"med_rules"`
	LocalPrefRules    int `json:"local_pref_rules"`
	DivergedPrefixes  int `json:"diverged_prefixes"`
	QuarantinedBatch  int `json:"quarantined_batches"`
}

// UnstablePrefix is one pending stable-route exclusion carried in the
// cursor: Prefix was left out of a committed batch's delta because its
// youngest route was younger than -min-age at the snapshot, and
// StableAt is the stream timestamp at which that route turns stable.
// The loop re-marks the prefix changed once the stream passes StableAt,
// so a quiet prefix announced once is eventually refined — matching
// batch mode, where stability is evaluated once at end-of-stream.
type UnstablePrefix struct {
	Prefix   netip.Prefix
	StableAt int64
}

// Cursor is the committed source position and run parameters. The
// parameters that define batch boundaries (BatchRecords) and snapshot
// contents (MinAge) are part of the cursor and validated on resume:
// changing either would silently change where batches fall, breaking
// the determinism argument, so a mismatch is an error instead.
type Cursor struct {
	// Source is the Source.Describe() descriptor the cursor was cut
	// from; a resume against a different descriptor is refused.
	Source string
	// BatchRecords and MinAge are the run parameters (see above).
	BatchRecords int
	MinAge       int64
	// Records is the count of MRT records consumed by committed batches;
	// recovery replays exactly this many records before continuing.
	Records int64
	// Batches is the committed batch sequence number.
	Batches int64
	// LastTS is the replayer's LastTimestamp at commit — validated
	// against the re-replayed source on resume, so a source file that
	// changed under the cursor is caught instead of silently diverging.
	LastTS int64
	// Totals is the cumulative accounting at commit.
	Totals Totals
	// Unstable is the pending stable-route exclusion set at commit,
	// sorted by prefix. It rides in the cursor so a resumed run
	// re-includes aged-in prefixes at exactly the batch an uninterrupted
	// run would.
	Unstable []UnstablePrefix
}

// State is one committed stream state: cursor plus the embedded model
// checkpoint (Checkpoint.Iteration carries the batch sequence number,
// so asmodeld's snapshot_iteration gauge tracks batches).
type State struct {
	Cursor     Cursor
	Checkpoint *model.Checkpoint
	// Source is the file the state actually loaded from (primary or
	// ".bak" fallback); set by LoadStateFile, not serialized.
	Source string
}

var mStateRetries = obs.GetCounter("stream_state_write_retries",
	"transient stream state write errors retried")

// stateWriteWrap, when non-nil, wraps the raw state file writer — the
// seam crash tests use to tear or fail the atomic commit beneath the
// retry layer. Only set while no commit is in flight.
var stateWriteWrap func(io.Writer) io.Writer

// WriteState serializes the state to w.
func WriteState(w io.Writer, st *State) error {
	if st.Checkpoint == nil || st.Checkpoint.Model == nil {
		return fmt.Errorf("stream: state has no model checkpoint")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, model.StreamCursorMagic)
	fmt.Fprintf(bw, "source %s\n", st.Cursor.Source)
	fmt.Fprintf(bw, "batch-records %d\n", st.Cursor.BatchRecords)
	fmt.Fprintf(bw, "min-age %d\n", st.Cursor.MinAge)
	fmt.Fprintf(bw, "records %d\n", st.Cursor.Records)
	fmt.Fprintf(bw, "batches %d\n", st.Cursor.Batches)
	fmt.Fprintf(bw, "last-ts %d\n", st.Cursor.LastTS)
	// The 16th totals value is reserved: written as 0 and discarded on
	// load, so the cursor format and its magic stay unchanged and state
	// files that counted retried batches there still resume.
	t := st.Cursor.Totals
	fmt.Fprintf(bw, "totals %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d 0\n",
		t.Updates, t.Announces, t.Withdraws, t.SkippedRecords,
		t.ChangedPrefixes, t.UnknownPrefixes, t.RefinedPrefixes, t.Iterations,
		t.QuasiRoutersAdded, t.FiltersAdded, t.FiltersRemoved, t.MEDRules,
		t.LocalPrefRules, t.DivergedPrefixes, t.QuarantinedBatch)
	for _, u := range st.Cursor.Unstable {
		fmt.Fprintf(bw, "unstable %s %d\n", u.Prefix, u.StableAt)
	}
	fmt.Fprintln(bw, "checkpoint")
	if err := bw.Flush(); err != nil {
		return err
	}
	// The embedded checkpoint's (= model's) "end" trailer terminates the
	// state file, so truncation anywhere is detected on load.
	return model.WriteCheckpoint(w, st.Checkpoint)
}

// LoadState reads a state written by WriteState.
func LoadState(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if line != model.StreamCursorMagic {
		return nil, fmt.Errorf("stream: not a stream state file (missing %q header)", model.StreamCursorMagic)
	}
	st := &State{}
	lineNo := 1
	for {
		line, err = readLine(br)
		if err != nil {
			return nil, fmt.Errorf("stream: state truncated after line %d (missing checkpoint section)", lineNo)
		}
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(why string) error {
			return fmt.Errorf("stream: state line %d: %s: %q", lineNo, why, line)
		}
		switch f[0] {
		case "source":
			// The descriptor may contain spaces (paths); keep the rest of
			// the line verbatim.
			st.Cursor.Source = strings.TrimSpace(strings.TrimPrefix(line, "source "))
		case "batch-records", "min-age", "records", "batches", "last-ts":
			if len(f) != 2 {
				return nil, fail("needs one value")
			}
			v, perr := strconv.ParseInt(f[1], 10, 64)
			if perr != nil {
				return nil, fail("bad count")
			}
			switch f[0] {
			case "batch-records":
				st.Cursor.BatchRecords = int(v)
			case "min-age":
				st.Cursor.MinAge = v
			case "records":
				st.Cursor.Records = v
			case "batches":
				st.Cursor.Batches = v
			case "last-ts":
				st.Cursor.LastTS = v
			}
		case "totals":
			if len(f) != 17 {
				return nil, fail("needs 16 values")
			}
			// The 16th value is reserved: parsed, then discarded.
			vals := make([]int, 16)
			for i := range vals {
				v, perr := strconv.Atoi(f[i+1])
				if perr != nil {
					return nil, fail("bad count")
				}
				vals[i] = v
			}
			st.Cursor.Totals = Totals{
				Updates: vals[0], Announces: vals[1], Withdraws: vals[2], SkippedRecords: vals[3],
				ChangedPrefixes: vals[4], UnknownPrefixes: vals[5], RefinedPrefixes: vals[6], Iterations: vals[7],
				QuasiRoutersAdded: vals[8], FiltersAdded: vals[9], FiltersRemoved: vals[10], MEDRules: vals[11],
				LocalPrefRules: vals[12], DivergedPrefixes: vals[13], QuarantinedBatch: vals[14],
			}
		case "unstable":
			if len(f) != 3 {
				return nil, fail("needs prefix and stable-at")
			}
			p, perr := netip.ParsePrefix(f[1])
			if perr != nil {
				return nil, fail("bad prefix")
			}
			at, aerr := strconv.ParseInt(f[2], 10, 64)
			if aerr != nil {
				return nil, fail("bad count")
			}
			st.Cursor.Unstable = append(st.Cursor.Unstable, UnstablePrefix{Prefix: p, StableAt: at})
		case "checkpoint":
			cp, cerr := model.LoadCheckpoint(br)
			if cerr != nil {
				return nil, cerr
			}
			st.Checkpoint = cp
			return st, nil
		default:
			return nil, fail("unknown directive")
		}
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// WriteStateFile commits the state atomically and durably: the whole
// file (cursor + checkpoint + model) goes to path+".tmp" (fsynced) and
// is renamed over path; the previous state rotates to path+".bak". A
// crash at any byte of the write leaves the previous committed state
// untouched — the exactly-once property of stream batches.
func WriteStateFile(ctx context.Context, path string, st *State) error {
	pol := durable.Policy{
		OnRetry:    func(error) { mStateRetries.Inc() },
		WrapWriter: stateWriteWrap,
	}
	return durable.WriteFileAtomicCtx(ctx, path, pol, func(w io.Writer) error {
		return WriteState(w, st)
	})
}

// LoadStateFile reads a committed state from disk, falling back to
// path+".bak" (the previous commit) when the primary is corrupt — the
// same recovery LoadCheckpointFile gives resumed refinements. The
// returned state's Source records which file actually loaded.
func LoadStateFile(path string) (*State, error) {
	st, err := loadStatePath(path)
	if err == nil {
		st.Source = path
		return st, nil
	}
	if os.IsNotExist(err) {
		return nil, err
	}
	bak := path + ".bak"
	bst, berr := loadStatePath(bak)
	if berr != nil {
		if os.IsNotExist(berr) {
			return nil, err
		}
		return nil, fmt.Errorf("%w (fallback %v)", err, berr)
	}
	bst.Source = bak
	return bst, nil
}

func loadStatePath(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := LoadState(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
