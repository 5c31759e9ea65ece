// Package stream turns batch refinement into a long-running service: it
// tails a BGP update source (a growing MRT file or a directory of MRT
// files), cuts deterministic record-count batches, delta-evaluates only
// the prefixes whose observations changed, patches the model through
// incremental refinement (model.RefineIncremental), and commits cursor
// + checkpoint atomically after every batch so a crash at any point
// resumes byte-identically to an uninterrupted run (DESIGN.md §9).
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"asmodel/internal/durable"
	"asmodel/internal/mrt"
	"asmodel/internal/obs"
)

var mSourceRetries = obs.GetCounter("stream_source_retries_total",
	"transient source read/open errors retried")

// Source is a replayable MRT record feed. Next returns records in a
// fixed order; in follow mode it blocks (polling) until a record
// arrives or ctx is done, and io.EOF is only returned once the source
// is exhausted for good (never in follow mode). Reset rewinds to the
// beginning so crash recovery can re-read the committed prefix of the
// stream; a Source must yield the same record sequence after Reset.
type Source interface {
	Next(ctx context.Context) (*mrt.Record, error)
	Reset() error
	// Describe returns a stable descriptor ("file:…", "dir:…") recorded
	// in the stream cursor and validated on resume.
	Describe() string
	Close() error
}

// DefaultPoll is the follow-mode poll interval when Config.Poll is zero.
const DefaultPoll = 500 * time.Millisecond

// FramingError marks an error from decoding the MRT record stream
// itself — a torn final record or desynced length-prefixed framing —
// as opposed to an operational source failure (open, read, directory
// scan). The stream loop handles framing errors leniently (count one
// skip, end at the last good record, like batch ingestion) while
// operational failures abort the run: a missing or unreadable source
// is an error, not an empty stream.
type FramingError struct{ Err error }

func (e *FramingError) Error() string { return e.Err.Error() }
func (e *FramingError) Unwrap() error { return e.Err }

// retryPolicy is the shared source-I/O retry policy: transient faults
// (durable.Transient) are retried with bounded backoff and counted.
func retryPolicy() durable.Policy {
	return durable.Policy{OnRetry: func(error) { mSourceRetries.Inc() }}
}

// countingReader tracks the byte offset of the last read, so a tailing
// source can reopen at the last complete record boundary.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// fileSource reads one MRT file, optionally tailing it as it grows: a
// clean EOF or a mid-record truncation (an append in progress) parks
// the reader at the last complete record boundary and polls for growth.
type fileSource struct {
	path   string
	follow bool
	poll   time.Duration

	f    *os.File
	cr   *countingReader
	rd   *mrt.Reader
	good int64 // offset of the last complete record boundary
}

// NewFileSource tails a single MRT file. With follow false the source
// ends at the file's current end (a final partial record surfaces as
// mrt.ErrTruncated); with follow true it polls for appended records
// every poll interval (0 = DefaultPoll) and never returns io.EOF.
func NewFileSource(path string, follow bool, poll time.Duration) Source {
	if poll <= 0 {
		poll = DefaultPoll
	}
	return &fileSource{path: path, follow: follow, poll: poll}
}

func (s *fileSource) Describe() string { return "file:" + s.path }

func (s *fileSource) openAt(off int64) error {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	var f *os.File
	pol := retryPolicy()
	if oerr := retryOpen(pol, s.path, &f); oerr != nil {
		return oerr
	}
	if off > 0 {
		if _, serr := f.Seek(off, io.SeekStart); serr != nil {
			f.Close()
			return serr
		}
	}
	s.f = f
	s.cr = &countingReader{r: durable.NewRetryReader(f, pol), n: off}
	s.rd = mrt.NewReader(s.cr)
	s.good = off
	return nil
}

// retryOpen opens path under the retry policy (a transient open failure
// — NFS hiccup, rotation race — degrades to a retried open).
func retryOpen(pol durable.Policy, path string, out **os.File) error {
	var lastErr error
	for attempt := 0; attempt <= 4; attempt++ {
		f, err := os.Open(path)
		if err == nil {
			*out = f
			return nil
		}
		lastErr = err
		if !durable.IsTransient(err) {
			return err
		}
		mSourceRetries.Inc()
		time.Sleep(time.Millisecond << uint(attempt))
	}
	return lastErr
}

func (s *fileSource) Next(ctx context.Context) (*mrt.Record, error) {
	if s.f == nil {
		if err := s.openAt(0); err != nil {
			return nil, err
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := s.rd.Next()
		if err == nil {
			s.good = s.cr.n
			return rec, nil
		}
		tail := err == io.EOF || errors.Is(err, mrt.ErrTruncated)
		if !tail || !s.follow {
			if err != io.EOF {
				// Everything the MRT decoder returns is a stream-framing
				// problem; I/O failures underneath surface from openAt or
				// the retry reader's typed errors and stay operational.
				err = &FramingError{Err: err}
			}
			return nil, err
		}
		// Follow mode: the writer has not finished this record yet (or
		// nothing new was appended). Park at the last complete boundary,
		// wait, and re-read from there.
		if werr := sleepCtx(ctx, s.poll); werr != nil {
			return nil, werr
		}
		if oerr := s.openAt(s.good); oerr != nil {
			return nil, oerr
		}
	}
}

func (s *fileSource) Reset() error {
	return s.openAt(0)
}

func (s *fileSource) Close() error {
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// dirSource reads a directory of MRT files in lexical filename order —
// the archive convention (updates.<timestamp>.mrt) sorts
// chronologically. A file is considered complete once a lexically later
// file exists; the last file is tailed in follow mode. In follow mode
// the directory is re-scanned for new files whenever the current last
// file stops growing.
type dirSource struct {
	dir     string
	pattern string
	follow  bool
	poll    time.Duration

	files []string
	idx   int
	cur   *fileSource
}

// NewDirSource reads every file in dir matching pattern (a filepath.Match
// pattern; "" means "*.mrt") in lexical order, optionally watching for
// new files.
func NewDirSource(dir, pattern string, follow bool, poll time.Duration) Source {
	if pattern == "" {
		pattern = "*.mrt"
	}
	if poll <= 0 {
		poll = DefaultPoll
	}
	return &dirSource{dir: dir, pattern: pattern, follow: follow, poll: poll}
}

func (s *dirSource) Describe() string { return "dir:" + filepath.Join(s.dir, s.pattern) }

func (s *dirSource) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ok, merr := filepath.Match(s.pattern, e.Name())
		if merr != nil {
			return fmt.Errorf("stream: bad dir pattern %q: %w", s.pattern, merr)
		}
		if ok {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	// Never drop or reorder files already consumed: new arrivals sorting
	// before the current position would silently change the replay
	// sequence, so they are rejected.
	for i := 0; i < s.idx && i < len(s.files); i++ {
		if i >= len(files) || files[i] != s.files[i] {
			return fmt.Errorf("stream: directory %s changed under the cursor (file %q removed or resequenced)", s.dir, s.files[i])
		}
	}
	s.files = files
	return nil
}

func (s *dirSource) Next(ctx context.Context) (*mrt.Record, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.cur == nil {
			if err := s.scan(); err != nil {
				return nil, err
			}
			if s.idx >= len(s.files) {
				if !s.follow {
					return nil, io.EOF
				}
				if err := sleepCtx(ctx, s.poll); err != nil {
					return nil, err
				}
				continue
			}
			// Files open in non-follow mode; only the lexically-last one
			// is tailed, and that is handled below at the boundary.
			s.cur = &fileSource{
				path:   filepath.Join(s.dir, s.files[s.idx]),
				follow: false,
				poll:   s.poll,
			}
		}
		rec, err := s.cur.Next(ctx)
		if err == nil {
			return rec, nil
		}
		if err == io.EOF || errors.Is(err, mrt.ErrTruncated) {
			truncated := errors.Is(err, mrt.ErrTruncated)
			// End of the current file. If a later file exists the file is
			// complete (a truncation there is real corruption, surfaced);
			// otherwise, in follow mode, wait for growth or a new file.
			if rerr := s.scan(); rerr != nil {
				return nil, rerr
			}
			if s.idx < len(s.files)-1 {
				if truncated {
					return nil, fmt.Errorf("stream: %s: %w (mid-file truncation with later files present)",
						s.cur.path, mrt.ErrTruncated)
				}
				s.cur.Close()
				s.cur = nil
				s.idx++
				continue
			}
			if !s.follow {
				s.cur.Close()
				s.cur = nil
				s.idx++
				if truncated {
					return nil, err
				}
				continue // re-enters the loop; idx past end → EOF
			}
			// Tail: park at the boundary and retry from there.
			if werr := sleepCtx(ctx, s.poll); werr != nil {
				return nil, werr
			}
			if oerr := s.cur.openAt(s.cur.good); oerr != nil {
				return nil, oerr
			}
			continue
		}
		return nil, err
	}
}

func (s *dirSource) Reset() error {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	s.files = nil
	s.idx = 0
	return s.scan()
}

func (s *dirSource) Close() error {
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}
