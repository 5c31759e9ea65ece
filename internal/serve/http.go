package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"asmodel/internal/bgp"
	"asmodel/internal/obs"
	"asmodel/internal/sim"
)

var (
	mRequests = obs.GetCounter("serve_requests_total", "prediction requests accepted (post-shedding)")
	mReqHist  = obs.Default().Histogram("serve_request_seconds", "prediction request latency",
		obs.ExpBuckets(0.0001, 2, 16))
	mPredictHist = obs.GetHistogram("serve_predict_seconds", "Snapshot.Predict time per request: table lookup, candidate rebuild and path rendering",
		obs.ExpBuckets(1e-6, 2, 16))
	mShed     = obs.GetCounter("serve_shed_total", "requests shed with 429 (in-flight bound reached)")
	mUnready  = obs.GetCounter("serve_unready_total", "requests refused with 503 (draining or no snapshot)")
	mTimeouts = obs.GetCounter("serve_timeouts_total", "requests that exceeded the per-request deadline (504)")
	mPanics   = obs.GetCounter("serve_panics_recovered_total", "request panics recovered into 500s")
	mInflight = obs.GetGauge("serve_inflight", "prediction requests currently executing")
)

// apiError is the JSON error body every non-200 carries: a human
// message plus a machine-matchable kind (bad_request, unknown_prefix,
// unknown_vantage, unready, shed, timeout, diverged, panic,
// reload_failed, internal).
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, apiError{Error: msg, Kind: kind})
}

// Handler returns the server's HTTP surface:
//
//	GET  /v1/predict?vantage=AS&prefix=P[&k=N]  prediction query
//	POST /-/reload                              validated hot-swap
//	GET  /-/snapshot                            serving-snapshot info
//	GET  /healthz, /readyz                      probes (readyz follows Ready)
//	GET  /metrics, /metrics.json, /debug/...    obs debug surface
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/predict", s.guard(s.handlePredict))
	mux.HandleFunc("POST /-/reload", s.recovered(s.handleReload))
	mux.HandleFunc("GET /-/snapshot", s.recovered(s.handleSnapshot))
	mux.Handle("/", obs.HandlerReady(obs.Default(), s.Ready))
	return mux
}

// recovered converts handler panics into typed 500s with the stack
// captured to the log — one bad request cannot take the daemon down.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				mPanics.Inc()
				s.cfg.Logf("serve: panic serving %s: %v\n%s", r.URL.Path, v, debug.Stack())
				writeErr(w, http.StatusInternalServerError, "panic", "internal panic (recovered)")
			}
		}()
		h(w, r)
	}
}

// guard is the degradation chain in front of prediction handlers:
// panic recovery, readiness (503 while draining or before the first
// snapshot), bounded in-flight with load shedding (429 + Retry-After),
// and the per-request deadline.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return s.recovered(func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			mUnready.Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "unready", "no serving snapshot or drain in progress")
			return
		}
		select {
		case s.inflight <- struct{}{}:
		default:
			mShed.Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "shed", "in-flight request bound reached, retry later")
			return
		}
		defer func() { <-s.inflight }()
		mInflight.Add(1)
		defer mInflight.Add(-1)
		mRequests.Inc()
		start := time.Now()
		defer func() { mReqHist.Observe(time.Since(start).Seconds()) }()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	prefix := q.Get("prefix")
	if prefix == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "missing prefix parameter")
		return
	}
	vantageStr := q.Get("vantage")
	if vantageStr == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "missing vantage parameter")
		return
	}
	vantage64, err := strconv.ParseUint(vantageStr, 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "vantage must be an AS number: "+err.Error())
		return
	}
	k := s.cfg.MaxAlternates
	if ks := q.Get("k"); ks != "" {
		k, err = strconv.Atoi(ks)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "k must be an integer: "+err.Error())
			return
		}
	}

	// Pin the snapshot once: a hot-swap mid-request must not mix
	// snapshots within one response.
	snap := s.snap.Load()
	start := time.Now()
	pred, err := snap.Predict(r.Context(), prefix, bgp.ASN(vantage64), k)
	mPredictHist.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writePredictErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, pred)
}

func (s *Server) writePredictErr(w http.ResponseWriter, r *http.Request, err error) {
	var unknownPrefix *ErrUnknownPrefix
	var unknownVantage *ErrUnknownVantage
	var divergeErr *sim.DivergenceError
	switch {
	case errors.As(err, &unknownPrefix):
		writeErr(w, http.StatusNotFound, "unknown_prefix", err.Error())
	case errors.As(err, &unknownVantage):
		writeErr(w, http.StatusNotFound, "unknown_vantage", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		mTimeouts.Inc()
		writeErr(w, http.StatusGatewayTimeout, "timeout", "prediction exceeded the request deadline")
	case errors.Is(err, context.Canceled):
		// Client went away; status is best-effort.
		writeErr(w, http.StatusServiceUnavailable, "canceled", "request canceled")
	case errors.As(err, &divergeErr):
		writeErr(w, http.StatusInternalServerError, "diverged", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// reloadResponse is the POST /-/reload success body.
type reloadResponse struct {
	Seq       int64  `json:"seq"`
	Source    string `json:"source"`
	Origin    string `json:"origin"`
	Iteration int    `json:"iteration"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Reload(r.Context())
	if err != nil {
		var rerr *ReloadError
		if errors.As(err, &rerr) && rerr.RolledBack {
			// 409: the request conflicted with the state of the source
			// file; the previous snapshot is still serving.
			writeErr(w, http.StatusConflict, "reload_failed", err.Error())
			return
		}
		writeErr(w, http.StatusInternalServerError, "reload_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Seq: snap.Seq, Source: snap.Source, Origin: snap.Origin, Iteration: snap.Iteration,
	})
}

// snapshotResponse is the GET /-/snapshot body.
type snapshotResponse struct {
	Seq          int64     `json:"seq"`
	Source       string    `json:"source"`
	Origin       string    `json:"origin"`
	Iteration    int       `json:"iteration"`
	LoadedAt     time.Time `json:"loaded_at"`
	Prefixes     int       `json:"prefixes"`
	QuasiRouters int       `json:"quasi_routers"`
	Ready        bool      `json:"ready"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable, "unready", "no serving snapshot")
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Seq:          snap.Seq,
		Source:       snap.Source,
		Origin:       snap.Origin,
		Iteration:    snap.Iteration,
		LoadedAt:     snap.LoadedAt,
		Prefixes:     snap.base.Universe.Len(),
		QuasiRouters: snap.base.NumQuasiRouters(),
		Ready:        s.Ready(),
	})
}
