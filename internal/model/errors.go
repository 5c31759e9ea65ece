package model

import (
	"fmt"

	"asmodel/internal/pool"
)

// InterruptedError reports that context cancellation (SIGINT/SIGTERM in
// the CLI, or a deadline) stopped a long-running operation cleanly. It
// carries the progress made so far and unwraps to the context error
// (context.Canceled or context.DeadlineExceeded), so callers can both
// errors.Is the cause and recover partial work.
type InterruptedError struct {
	// Op is the interrupted operation: "refine", "evaluate" or "stream".
	Op string
	// Iterations is the refinement iteration reached ("refine"), or the
	// committed batch count ("stream").
	Iterations int
	// Prefixes counts units fully processed before the interrupt:
	// settled training prefixes for "refine", evaluated prefixes for
	// "evaluate", committed source records for "stream".
	Prefixes int
	// Checkpoint is the path of the last checkpoint written before the
	// interrupt, when checkpointing was enabled ("" otherwise). Resume
	// with LoadCheckpointFile + ResumeRefine.
	Checkpoint string
	// Err is the underlying context error.
	Err error
}

func (e *InterruptedError) Error() string {
	s := fmt.Sprintf("model: %s interrupted", e.Op)
	unit := "prefixes"
	switch e.Op {
	case "refine":
		s += fmt.Sprintf(" at iteration %d", e.Iterations)
	case "stream":
		s += fmt.Sprintf(" at batch %d", e.Iterations)
		unit = "records"
	}
	s += fmt.Sprintf(" (%d %s done", e.Prefixes, unit)
	if e.Checkpoint != "" {
		s += fmt.Sprintf("; checkpoint %s", e.Checkpoint)
	}
	s += ")"
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *InterruptedError) Unwrap() error { return e.Err }

// WorkerPanicError reports a panic recovered inside a parallel worker
// goroutine: the worker pool's one typed panic error (see
// pool.PanicError), shared by every sweep.
type WorkerPanicError = pool.PanicError
