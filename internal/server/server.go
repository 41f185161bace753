// Package server exposes a repro.Store as an HTTP/JSON query service.
//
// Each query request is admitted through a bounded in-flight semaphore
// (excess load is rejected with 429 rather than queued without bound),
// pins a storage snapshot for the duration of its evaluation, shares one
// global plan cache across all requests and engine profiles, and runs
// under a per-request deadline: when the deadline expires or the client
// disconnects, the evaluation stops early with repro.ErrCanceled, the
// snapshot is released, and the request is answered with 504.
//
// Mutations (POST /update, POST /compact) are serialized by a mutex but
// run concurrently with queries: in-flight evaluations keep answering
// against the snapshot they pinned, so answers are always those of some
// consistent store state.
//
// Each profile's answerer owns a feedback loop (disable with
// Config.NoFeedback) that recalibrates cost estimates from observed
// evaluations; GET /statz reports each loop's drift counters. The plan
// cache stays shared across profiles, so a plan inserted under one
// profile's feedback version may be re-priced on a hit from another —
// re-pricing is cheap and feedback advisory, so this thrash affects
// only estimate freshness, never answers.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Config describes a Server.
type Config struct {
	// Store is the database to serve. Required; frozen on New.
	Store *repro.Store
	// Options are the base evaluation options for every profile's
	// answerer. The Trace, PlanCache and Feedback fields are ignored —
	// the server owns all three (per-run spans, one shared cache, one
	// feedback loop per profile).
	Options repro.Options
	// NoFeedback disables the adaptive cost model. By default every
	// profile's answerer feeds observed cardinalities and timings back
	// into its own feedback loop (per profile, because the loops learn
	// cost constants that are specific to an engine profile's operators).
	// Feedback is advisory — answers are identical either way.
	NoFeedback bool
	// CacheCap is the shared plan cache's capacity in entries
	// (0 = the cache's default).
	CacheCap int
	// MaxInflight bounds concurrently evaluating queries; requests
	// beyond it are rejected with 429. 0 = 4 x GOMAXPROCS.
	MaxInflight int
	// DefaultTimeout is the per-request deadline when the request does
	// not name one (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for
	// (0 = 4 x DefaultTimeout).
	MaxTimeout time.Duration
	// MaxResponseBytes caps the encoded size of a query response body.
	// Answers are decoded and encoded from the result one row at a time,
	// so a query whose answer set exceeds the cap is rejected with 413
	// response_too_large as soon as the cap is hit, without encoding the
	// rest. 0 = unlimited.
	MaxResponseBytes int64
	// Profiles extends or overrides the built-in engine profiles by
	// name — tests inject tiny-budget profiles this way.
	Profiles map[string]repro.Profile
	// DefaultProfile names the profile used when a request names none
	// (default "native").
	DefaultProfile string
	// DefaultStrategy names the strategy used when a request names none
	// (default "gcov").
	DefaultStrategy string
}

// Server answers SPARQL BGP queries over HTTP. Create with New, serve
// its Handler.
type Server struct {
	store           *repro.Store
	cache           *repro.PlanCache
	answerers       map[string]*repro.Answerer
	loops           map[string]*repro.FeedbackLoop // per profile; nil when disabled
	profileNames    []string                       // sorted, for error messages
	sem             chan struct{}
	defaultProfile  string
	defaultStrategy string
	defaultTimeout  time.Duration
	maxTimeout      time.Duration
	maxRespBytes    int64

	mu sync.Mutex // serializes store mutations (update, compact)

	served   atomic.Int64
	rejected atomic.Int64

	mux *http.ServeMux
}

// New builds a Server over cfg.Store (freezing it if needed) with one
// answerer per engine profile, all sharing one plan cache.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 4 * cfg.DefaultTimeout
	}
	if cfg.DefaultProfile == "" {
		cfg.DefaultProfile = repro.Native.Name
	}
	if cfg.DefaultStrategy == "" {
		cfg.DefaultStrategy = string(repro.GCov)
	}

	profiles := make(map[string]repro.Profile)
	for _, name := range repro.ProfileNames() {
		p, _ := repro.ProfileByName(name)
		profiles[name] = p
	}
	for name, p := range cfg.Profiles {
		profiles[name] = p
	}
	if _, ok := profiles[cfg.DefaultProfile]; !ok {
		return nil, fmt.Errorf("server: unknown default profile %q", cfg.DefaultProfile)
	}
	if _, ok := repro.StrategyByName(cfg.DefaultStrategy); !ok {
		return nil, fmt.Errorf("server: unknown default strategy %q", cfg.DefaultStrategy)
	}

	s := &Server{
		store:           cfg.Store,
		cache:           repro.NewPlanCache(cfg.CacheCap),
		answerers:       make(map[string]*repro.Answerer, len(profiles)),
		sem:             make(chan struct{}, cfg.MaxInflight),
		defaultProfile:  cfg.DefaultProfile,
		defaultStrategy: cfg.DefaultStrategy,
		defaultTimeout:  cfg.DefaultTimeout,
		maxTimeout:      cfg.MaxTimeout,
		maxRespBytes:    cfg.MaxResponseBytes,
	}
	opts := cfg.Options
	opts.Trace = nil
	opts.PlanCache = s.cache
	if !cfg.NoFeedback {
		s.loops = make(map[string]*repro.FeedbackLoop, len(profiles))
	}
	for name, p := range profiles {
		popts := opts
		if s.loops != nil {
			s.loops[name] = repro.NewFeedbackLoop()
			popts.Feedback = s.loops[name]
		} else {
			popts.Feedback = nil
		}
		s.answerers[name] = cfg.Store.NewAnswerer(p, popts)
		s.profileNames = append(s.profileNames, name)
	}
	sort.Strings(s.profileNames)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	return s, nil
}

// Handler returns the HTTP handler — mount it on an http.Server or
// httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats returns a snapshot of the shared plan cache's counters.
func (s *Server) CacheStats() repro.PlanCacheStats { return s.cache.Snapshot() }

// FeedbackStats returns a snapshot of the named profile's feedback loop,
// or a zero snapshot when feedback is disabled or the profile unknown.
func (s *Server) FeedbackStats(profile string) repro.FeedbackStats {
	return s.loops[profile].Snapshot()
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Query is the SPARQL BGP query text. Required.
	Query string `json:"query"`
	// Strategy is the answering strategy name; empty uses the server
	// default.
	Strategy string `json:"strategy,omitempty"`
	// Profile is the engine profile name; empty uses the server default.
	Profile string `json:"profile,omitempty"`
	// TimeoutMS overrides the per-request deadline, capped by the
	// server's maximum; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Vars      []string   `json:"vars"`
	Rows      [][]string `json:"rows"`
	Strategy  string     `json:"strategy"`
	Profile   string     `json:"profile"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx answer: a stable typed
// error name plus a human-readable message.
type ErrorResponse struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// statusFor maps an evaluation error to its HTTP status and stable typed
// name. Resource-limit rejections are the client's query asking for more
// than the profile allows (413); a work budget exhausted mid-flight is
// closer to server load shedding (503); a canceled context is the
// request deadline (504).
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, repro.ErrCanceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, repro.ErrWorkBudget):
		return http.StatusServiceUnavailable, "work_budget"
	case errors.Is(err, repro.ErrMemoryBudget):
		return http.StatusRequestEntityTooLarge, "memory_budget"
	case errors.Is(err, repro.ErrPlanTooComplex):
		return http.StatusRequestEntityTooLarge, "plan_too_complex"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// maxQueryBodyBytes bounds a /query request body. A SPARQL BGP in its
// JSON envelope takes a few kilobytes; the cap keeps an untrusted client
// from streaming an unbounded body into the decoder.
const maxQueryBodyBytes = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:   "overloaded",
			Message: fmt.Sprintf("too many in-flight queries (limit %d)", cap(s.sem)),
		})
		return
	}

	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error:   "request_too_large",
				Message: fmt.Sprintf("request body exceeds the %d-byte limit", maxQueryBodyBytes),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_request", Message: err.Error()})
		return
	}
	if req.Strategy == "" {
		req.Strategy = s.defaultStrategy
	}
	strat, ok := repro.StrategyByName(req.Strategy)
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   "unknown_strategy",
			Message: fmt.Sprintf("unknown strategy %q (valid: %s)", req.Strategy, strings.Join(repro.StrategyNames(), ", ")),
		})
		return
	}
	if req.Profile == "" {
		req.Profile = s.defaultProfile
	}
	a, ok := s.answerers[req.Profile]
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   "unknown_profile",
			Message: fmt.Sprintf("unknown profile %q (valid: %s)", req.Profile, strings.Join(s.profileNames, ", ")),
		})
		return
	}
	q, err := sparql.Parse(req.Query)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_query", Message: err.Error()})
		return
	}

	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, err := a.QueryParsedContext(ctx, q, strat)
	if err != nil {
		code, name := statusFor(err)
		writeJSON(w, code, ErrorResponse{Error: name, Message: err.Error()})
		return
	}
	s.served.Add(1)
	var buf bytes.Buffer
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	if err := encodeQueryResponse(&buf, res, req.Strategy, req.Profile, elapsed, s.maxRespBytes); err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error:   "response_too_large",
			Message: fmt.Sprintf("encoded response exceeds the %d-byte limit", s.maxRespBytes),
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // client went away; nothing left to tell it
	}
}

// errResponseTooLarge aborts response encoding at the size cap.
var errResponseTooLarge = errors.New("server: encoded response exceeds the size limit")

// encodeQueryResponse writes the QueryResponse JSON into buf by
// streaming the answer rows out of the result: each row is decoded and
// encoded in turn, so the only full decoded copy of a large answer ever
// built is the response body itself — and with limit > 0 not even that:
// encoding stops with errResponseTooLarge the moment the body outgrows
// the cap, before any header is written.
func encodeQueryResponse(buf *bytes.Buffer, res *repro.Result, strategy, profile string, elapsedMS float64, limit int64) error {
	field := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return // cannot happen for strings, []string, float64
		}
		buf.Write(data)
	}
	buf.WriteString(`{"vars":`)
	field(res.Vars)
	buf.WriteString(`,"rows":[`)
	first, over := true, false
	res.Each(func(row []rdf.Term) bool {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		out := make([]string, len(row))
		for j, term := range row {
			out[j] = term.Canonical()
		}
		field(out)
		if limit > 0 && int64(buf.Len()) > limit {
			over = true
			return false
		}
		return true
	})
	if over {
		return errResponseTooLarge
	}
	buf.WriteString(`],"strategy":`)
	field(strategy)
	buf.WriteString(`,"profile":`)
	field(profile)
	buf.WriteString(`,"elapsed_ms":`)
	field(elapsedMS)
	buf.WriteByte('}')
	if limit > 0 && int64(buf.Len()) > limit {
		return errResponseTooLarge
	}
	return nil
}

// UpdateResponse is the body of a successful POST /update.
type UpdateResponse struct {
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	op := r.URL.Query().Get("op")
	if op == "" {
		op = "add"
	}
	switch op {
	case "add":
		s.mu.Lock()
		n, err := s.store.LoadNTriples(r.Body)
		s.mu.Unlock()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_update", Message: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, UpdateResponse{Added: n})
	case "remove":
		rd := ntriples.NewReader(r.Body)
		n := 0
		s.mu.Lock()
		for {
			t, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.mu.Unlock()
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_update", Message: err.Error()})
				return
			}
			removed, err := s.store.Remove(t)
			if err != nil {
				s.mu.Unlock()
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad_update", Message: err.Error()})
				return
			}
			if removed {
				n++
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, UpdateResponse{Removed: n})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   "bad_op",
			Message: fmt.Sprintf("unknown op %q (valid: add, remove)", op),
		})
	}
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.store.Compact()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// StatzResponse is the body of GET /statz.
type StatzResponse struct {
	Triples  int        `json:"triples"`
	Inflight int        `json:"inflight"`
	Served   int64      `json:"served"`
	Rejected int64      `json:"rejected"`
	Cache    CacheStatz `json:"cache"`
	// Feedback reports each profile's adaptive-cost loop, keyed by
	// profile name; absent when the server runs with NoFeedback.
	Feedback map[string]FeedbackStatz `json:"feedback,omitempty"`
}

// CacheStatz reports the shared plan cache's counters.
type CacheStatz struct {
	Entries       int     `json:"entries"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Invalidations int64   `json:"invalidations"`
	Evictions     int64   `json:"evictions"`
	Reprices      int64   `json:"reprices"`
	HitRate       float64 `json:"hit_rate"`
}

// FeedbackStatz reports one profile's adaptive-cost loop: how many
// evaluations it has observed, how often the estimates drifted past the
// re-pricing threshold, and the exponentially-weighted mean relative
// errors of the (corrected) cardinality and cost estimates.
type FeedbackStatz struct {
	Observations  int64   `json:"observations"`
	DriftEvents   int64   `json:"drift_events"`
	Corrections   int     `json:"corrections"`
	Version       uint64  `json:"version"`
	MeanCardError float64 `json:"mean_card_error"`
	MeanCostError float64 `json:"mean_cost_error"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Snapshot()
	resp := StatzResponse{
		Triples:  s.store.NumTriples(),
		Inflight: len(s.sem),
		Served:   s.served.Load(),
		Rejected: s.rejected.Load(),
		Cache: CacheStatz{
			Entries:       s.cache.Len(),
			Hits:          st.Hits,
			Misses:        st.Misses,
			Invalidations: st.Invalidations,
			Evictions:     st.Evictions,
			Reprices:      st.Reprices,
			HitRate:       st.HitRate(),
		},
	}
	if s.loops != nil {
		resp.Feedback = make(map[string]FeedbackStatz, len(s.loops))
		for name, l := range s.loops {
			fs := l.Snapshot()
			resp.Feedback[name] = FeedbackStatz{
				Observations:  fs.Observations,
				DriftEvents:   fs.DriftEvents,
				Corrections:   fs.Corrections,
				Version:       fs.Version,
				MeanCardError: fs.MeanCardError,
				MeanCostError: fs.MeanCostError,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON answers with a JSON body. A marshal failure of our own
// response types cannot happen; a write failure means the client went
// away and there is no one left to tell.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(data); err != nil {
		return
	}
}
