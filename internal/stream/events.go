package stream

// Event is one structured trace event of the streaming loop, emitted
// through Config.Observer (feed it to an obs.TraceSink for a replayable
// stream-trace.jsonl).
//
// "batch" events are emitted only AFTER their state commit succeeds and
// carry no wall-clock fields, so they are deterministic: for a given
// source and parameters, the concatenated batch-event streams of any
// crash/restart schedule are byte-identical to an uninterrupted run's.
// "recovery" and "stall" events describe the run's own lifecycle — they
// depend on when crashes and stalls happened, not on stream content —
// and are therefore excluded from redacted traces (the CLI drops them
// under -trace-redact-timing).
type Event struct {
	// Type is "batch" (one committed batch), "recovery" (resumed from a
	// committed cursor; volatile) or "stall" (watchdog fired; volatile).
	Type string `json:"type"`
	// Seq is the 1-based committed batch sequence number.
	Seq int64 `json:"seq,omitempty"`
	// Records is the MRT record count of this batch; CursorRecords the
	// cumulative committed record count after it.
	Records       int   `json:"records,omitempty"`
	CursorRecords int64 `json:"cursor_records,omitempty"`
	// LastTS is the stream timestamp at the cursor.
	LastTS int64 `json:"last_ts,omitempty"`
	// Replay accounting for this batch.
	Updates   int `json:"updates,omitempty"`
	Announces int `json:"announces,omitempty"`
	Withdraws int `json:"withdraws,omitempty"`
	Skipped   int `json:"skipped,omitempty"`
	// Changed counts prefixes whose observations changed in this batch;
	// Unknown the subset outside the model universe (skipped); Refined
	// the re-refined remainder.
	Changed int `json:"changed_prefixes,omitempty"`
	Unknown int `json:"unknown_prefixes,omitempty"`
	Refined int `json:"refined_prefixes,omitempty"`
	// Refinement outcome of the batch (zero for quarantined batches).
	Iterations        int  `json:"iterations,omitempty"`
	Converged         bool `json:"converged,omitempty"`
	QuasiRoutersAdded int  `json:"quasi_routers_added,omitempty"`
	FiltersAdded      int  `json:"filters_added,omitempty"`
	FiltersRemoved    int  `json:"filters_removed,omitempty"`
	MEDRules          int  `json:"med_rules,omitempty"`
	DivergedPrefixes  int  `json:"diverged_prefixes,omitempty"`
	// Bootstrap marks the batch that built the initial model from its
	// own snapshot (no -bootstrap dataset was given).
	Bootstrap bool `json:"bootstrap,omitempty"`
	// Quarantined marks a batch whose refinement failed: the model rolled
	// back to the committed state, the batch's records advance the
	// cursor and its refinement is skipped. A failed batch is never
	// re-run, since refinement is deterministic.
	Quarantined bool `json:"quarantined,omitempty"`
	// Deprecated: Retried is always false. Failed batches are
	// quarantined without a retry; the field stays for source
	// compatibility and never appears in the trace.
	Retried bool `json:"retried,omitempty"`
	// Err carries the failure context of a quarantined batch.
	Err string `json:"err,omitempty"`
	// Recovery-event fields: the cursor the run resumed from.
	ResumedBatches int64 `json:"resumed_batches,omitempty"`
	ResumedRecords int64 `json:"resumed_records,omitempty"`
	// StateSource is the file the recovery state loaded from (primary or
	// ".bak" fallback).
	StateSource string `json:"state_source,omitempty"`
}
