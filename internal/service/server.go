package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/dfg"
	"repro/internal/obs"
	"repro/internal/tempart"
)

// Config tunes the service.
type Config struct {
	// Workers bounds concurrent solves (the worker pool size; <= 0
	// selects 4).
	Workers int
	// QueueCap bounds the number of queued-but-unstarted jobs (<= 0
	// selects 256); past it the API answers 503.
	QueueCap int
	// CacheSize bounds the memo cache in entries (<= 0 selects 1024).
	CacheSize int
	// MaxBodyBytes bounds request bodies (<= 0 selects 8 MiB).
	MaxBodyBytes int64
	// FlightSize bounds the /debug/solves ring (<= 0 selects 64).
	FlightSize int
	// TraceEvents caps a trace=true request's event buffer (<= 0
	// selects 4096; drops past it are counted, never reallocated).
	TraceEvents int
	// DefaultDeadlineMS applies to requests that carry no deadline_ms of
	// their own (<= 0 leaves them unbounded). A per-request deadline_ms
	// always wins.
	DefaultDeadlineMS int
	// Logger receives structured request logs (one line per terminal
	// solve, keyed by request ID). nil discards them.
	Logger *slog.Logger
}

// Server is the partitioning service: request parsing, the cache-aware
// solve path, and the HTTP API. Create with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg     Config
	cache   *Cache
	sched   *Scheduler
	metrics *Metrics
	flight  *FlightRecorder
	log     *slog.Logger
	mux     *http.ServeMux
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.TraceEvents <= 0 {
		cfg.TraceEvents = 4096
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheSize),
		metrics: NewMetrics(),
		flight:  NewFlightRecorder(cfg.FlightSize),
		log:     log,
	}
	s.sched = NewScheduler(cfg.Workers, cfg.QueueCap, s.solve)
	s.sched.onShed = func(jobID string) {
		s.metrics.RecordShed()
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "job shed",
			slog.String("job_id", jobID))
	}
	// Backstop for panics outside runSolve's own recovery (the usual
	// solver panic is recovered there, closer to the fault).
	s.sched.onPanic = func(jobID string, v any, stack []byte) {
		s.metrics.RecordWorkerPanic()
		s.log.LogAttrs(context.Background(), slog.LevelError, "worker panic",
			slog.String("job_id", jobID),
			slog.String("panic", fmt.Sprint(v)),
			slog.String("stack", string(stack)))
	}
	s.sched.onCancel = func(string) { s.metrics.RecordCancelled() }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/solves", s.handleDebugSolves)
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes cache counters (tests and /healthz).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Scheduler exposes the job scheduler (tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Shutdown cancels in-flight work and waits for the worker pool to drain.
func (s *Server) Shutdown() { s.sched.Shutdown() }

// coarseTraceEvents sizes the always-on recorder attached to untraced
// fresh solves: large enough to hold every span of a deep relax-N loop
// (so the per-phase metrics and flight-recorder breakdowns stay complete),
// small enough to be irrelevant next to model build allocations.
const coarseTraceEvents = 512

// solve is the cache-aware execution path every request funnels through
// (the scheduler's workers call it): memo-cache lookup, singleflight join,
// or a fresh engine solve, followed by canonical-transfer verification for
// results that came from a different (isomorphic) graph.
func (s *Server) solve(ctx context.Context, req *Request) (*Result, error) {
	start := time.Now()
	// A deadline_ms request bounds the whole solve with a context deadline;
	// tempart threads it down to the branch-and-bound search, which returns
	// its best incumbent instead of an error when time runs out.
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	// runSolve executes a fresh solve with a recorder attached — the
	// request's own full-size recorder for trace=true, otherwise a small
	// always-on one that feeds the per-phase metrics and the flight
	// recorder. The request is shallow-copied so the shared *Request is
	// never mutated under the singleflight. A solver panic is recovered
	// here — below the cache's detached flight goroutine as well as the
	// worker's inline path — so one poisoned request fails alone instead of
	// taking the daemon down.
	runSolve := func(sctx context.Context, rec *obs.Recorder) (p *tempart.Partitioning, tr *obs.Trace, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.RecordWorkerPanic()
				s.log.LogAttrs(ctx, slog.LevelError, "solver panic",
					slog.String("request_id", obs.RequestID(ctx)),
					slog.String("engine", req.Engine),
					slog.String("panic", fmt.Sprint(r)),
					slog.String("stack", string(debug.Stack())))
				p, tr, err = nil, nil, fmt.Errorf("service: solver panic: %v", r)
			}
		}()
		if rec == nil {
			rec = obs.NewRecorder(coarseTraceEvents)
		}
		r2 := *req
		r2.TraceSink = rec
		p, err = runEngine(sctx, &r2)
		tr = rec.Trace()
		s.metrics.RecordPhases(req.Engine, tr)
		return p, tr, err
	}

	finish := func(p *tempart.Partitioning, tr *obs.Trace, origin Origin, err error) (*Result, error) {
		d := time.Since(start)
		s.metrics.RecordSolve(req.Engine, d, err)
		if err != nil && req.DeadlineMS > 0 && req.Engine != "list" &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, tempart.ErrDeadline)) {
			// Degradation ladder rung 3: the deadline expired before the
			// search found any incumbent. Serve the greedy list
			// partitioning, labeled as a fallback with an honest bound,
			// instead of an error. (Rung 2 — a timed-out search WITH an
			// incumbent — never reaches here: it comes back err == nil with
			// p.Partial set.)
			if fp := s.greedyFallback(req); fp != nil {
				p, tr, err = fp, nil, nil
			}
		}
		fr := SolveRecord{
			ID:          obs.RequestID(ctx),
			Engine:      req.Engine,
			Graph:       req.Graph.Name,
			Board:       req.BoardName,
			Origin:      string(origin),
			Outcome:     outcomeOf(err),
			StartUnixMS: start.UnixMilli(),
			SolveMS:     float64(d.Microseconds()) / 1e3,
			Traced:      req.Trace,
		}
		if tr != nil {
			for phase, ns := range tr.PhaseTotals() {
				if fr.PhaseMS == nil {
					fr.PhaseMS = make(map[string]float64, 5)
				}
				fr.PhaseMS[phase] = float64(ns) / 1e6
			}
		}
		logAttrs := []slog.Attr{
			slog.String("request_id", fr.ID),
			slog.String("engine", fr.Engine),
			slog.String("graph", fr.Graph),
			slog.String("board", fr.Board),
			slog.String("origin", fr.Origin),
			slog.String("outcome", fr.Outcome),
			slog.Float64("solve_ms", fr.SolveMS),
		}
		if err != nil {
			fr.Error = err.Error()
			s.flight.Record(fr)
			level := slog.LevelWarn
			if fr.Outcome == OutcomeCancelled {
				level = slog.LevelInfo
			}
			s.log.LogAttrs(ctx, level, "solve",
				append(logAttrs, slog.String("error", fr.Error))...)
			return nil, err
		}
		res := NewResult(req.Graph, req.BoardName, req.Engine, p)
		res.Cache = string(origin)
		if origin == OriginMiss {
			s.metrics.RecordSearch(req.Engine, res.SearchCounters)
		}
		if res.Partial {
			fr.Partial, fr.Fallback = res.Partial, res.Fallback
			if res.Fallback {
				logAttrs = append(logAttrs, slog.Bool("fallback", true))
			} else if origin == OriginMiss {
				s.metrics.RecordAnytime()
			}
			logAttrs = append(logAttrs,
				slog.Bool("partial", true), slog.Float64("gap_ns", res.GapNS))
		}
		res.SolveMS = fr.SolveMS
		if req.Trace {
			res.Trace = tr
		}
		fr.N, fr.Nodes = res.N, res.Nodes
		s.flight.Record(fr)
		s.log.LogAttrs(ctx, slog.LevelInfo, "solve",
			append(logAttrs, slog.Int("n", fr.N), slog.Int("nodes", fr.Nodes))...)
		return res, nil
	}

	// Traced requests bypass the cache in both directions: a trace
	// describes this very solve, so it can neither be served from a memo
	// entry nor be allowed to populate one.
	if req.NoCache || req.Trace {
		var rec *obs.Recorder
		if req.Trace {
			rec = obs.NewRecorder(s.cfg.TraceEvents)
		}
		p, tr, err := runSolve(ctx, rec)
		return finish(p, tr, OriginMiss, err)
	}

	key := req.CacheKey()
	// Deadline requests stay off the singleflight: a shared flight solves
	// under a detached context that cannot honour this request's deadline,
	// and a partial result must never be handed to other waiters or stored.
	// A complete cached result still serves (it dominates any partial), and
	// a solve that finishes inside its deadline still populates the cache —
	// only partial results bypass it, in both directions.
	if req.DeadlineMS > 0 {
		if ent, ok := s.cache.Get(key); ok {
			if p, aerr := ent.apply(req); aerr == nil {
				return finish(p, nil, OriginHit, nil)
			}
			s.cache.noteRemapFallback()
		}
		p, tr, err := runSolve(ctx, nil)
		if err == nil && !p.Partial {
			s.cache.Put(key, newEntry(req, p))
		}
		return finish(p, tr, OriginMiss, err)
	}

	// freshTrace and freshStats are written by the singleflight closure
	// only when THIS call launched it (origin == miss); the flight's
	// done-channel close orders the writes before our read. The cache
	// entry keeps no search counters, so the miss caller reports the
	// fresh solve's own.
	var (
		freshTrace *obs.Trace
		freshStats tempart.SolveStats
	)
	ent, origin, err := s.cache.GetOrSolve(ctx, key, func(sctx context.Context) (*entry, error) {
		p, tr, err := runSolve(sctx, nil)
		if err != nil {
			return nil, err
		}
		if p.Partial {
			// Unreachable (the flight's context carries no deadline), but
			// the never-cache-a-partial invariant is cheap to enforce.
			return nil, fmt.Errorf("service: partial result cannot be cached")
		}
		freshTrace, freshStats = tr, p.Stats
		return newEntry(req, p), nil
	})
	if err != nil {
		return finish(nil, nil, origin, err)
	}
	p, err := ent.apply(req)
	if err != nil {
		// Canonical transfer failed (isomorphic-in-hash but not
		// transfer-compatible, or a genuine hash collision): solve this
		// graph directly rather than serving a wrong answer.
		s.cache.noteRemapFallback()
		var tr *obs.Trace
		p, tr, err = runSolve(ctx, nil)
		return finish(p, tr, OriginMiss, err)
	}
	if origin != OriginMiss {
		freshTrace = nil // another call's solve; its phases are not ours
	} else {
		p.Stats = freshStats
	}
	return finish(p, freshTrace, origin, nil)
}

// greedyFallback is the last rung of the degradation ladder before an
// error: the deadline expired with no ILP incumbent at all, so solve the
// graph with the greedy list partitioner and label the result
// Partial+Fallback. The presolve floor (tempart.AnytimeLowerBound) keeps
// the reported gap finite and honest. Returns nil when the fallback itself
// fails — the caller then surfaces the original deadline error.
func (s *Server) greedyFallback(req *Request) *tempart.Partitioning {
	p, err := tempart.ListPartition(req.Graph, req.Board)
	if err != nil {
		return nil
	}
	p.Optimal = false
	p.Partial = true
	p.Fallback = true
	p.BoundTrusted = true
	p.LatencyBound = tempart.AnytimeLowerBound(req.Graph, req.Board)
	if p.LatencyBound > p.Latency {
		p.LatencyBound = p.Latency
	}
	p.Gap = p.Latency - p.LatencyBound
	s.metrics.RecordFallback()
	return p
}

// --- HTTP plumbing ---

type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v as compact JSON: the responses are for programs, and
// a person reading one pipes it through jq.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// errStatus maps solve-path errors to HTTP codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShutdown), errors.Is(err, ErrDeadlineShed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, tempart.ErrDeadline):
		// Only reachable when the greedy fallback itself failed (deadline
		// requests normally degrade to an anytime or fallback result).
		return http.StatusGatewayTimeout
	case errors.Is(err, tempart.ErrNoSolution), errors.Is(err, tempart.ErrTaskTooLarge),
		errors.Is(err, dfg.ErrTooManyPaths):
		// The request is well-formed but this engine cannot solve it; a
		// path-dense graph still solves under engine "list".
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// decodeBody reads a request body of at most MaxBodyBytes in one read,
// into a buffer sized from Content-Length when the client sent one, and
// unmarshals it into v. Bytes after the JSON value are an error. A body
// that ends before its value keeps the errors a stream decoder gives:
// io.EOF when it holds no value at all, io.ErrUnexpectedEOF when the value
// is cut short.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var data []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		data = make([]byte, n)
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		return err
	}
	err = json.Unmarshal(data, v)
	if syn := (*json.SyntaxError)(nil); errors.As(err, &syn) && syn.Error() == "unexpected end of JSON input" {
		if len(bytes.TrimSpace(data)) == 0 {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	return err
}

func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	var sr SolveRequest
	if err := s.decodeBody(w, r, &sr); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return nil, false
	}
	req, err := sr.Parse()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	s.applyDefaults(req)
	return req, true
}

// applyDefaults fills operator-configured request defaults (currently the
// solve deadline) for requests that did not set their own.
func (s *Server) applyDefaults(req *Request) {
	if req.DeadlineMS == 0 && s.cfg.DefaultDeadlineMS > 0 {
		req.DeadlineMS = s.cfg.DefaultDeadlineMS
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	res, err := s.sched.RunSync(r.Context(), req)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// batchRequest wraps many solves in one call; responses preserve order.
type batchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

type batchItem struct {
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

type batchResponse struct {
	Items []batchItem `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br batchRequest
	if err := s.decodeBody(w, r, &br); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if len(br.Requests) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("service: empty batch"))
		return
	}
	resp := batchResponse{Items: make([]batchItem, len(br.Requests))}
	done := make(chan int, len(br.Requests))
	for i := range br.Requests {
		go func(i int) {
			defer func() { done <- i }()
			req, err := br.Requests[i].Parse()
			if err != nil {
				resp.Items[i].Error = err.Error()
				return
			}
			s.applyDefaults(req)
			res, err := s.sched.RunSync(r.Context(), req)
			if err != nil {
				resp.Items[i].Error = err.Error()
				return
			}
			resp.Items[i].Result = res
		}(i)
	}
	for range br.Requests {
		<-done
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	job, err := s.sched.Submit(req)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":         job.ID,
		"status_url": "/v1/jobs/" + job.ID,
	})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

// healthResponse is the /healthz payload: liveness plus the headline
// operational numbers.
type healthResponse struct {
	Status     string     `json:"status"`
	Engines    []string   `json:"engines"`
	Workers    int        `json:"workers"`
	QueueDepth int        `json:"queue_depth"`
	Running    int        `json:"running"`
	Cache      CacheStats `json:"cache"`
	Metrics    Snapshot   `json:"metrics"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Engines:    engines,
		Workers:    s.cfg.Workers,
		QueueDepth: s.sched.QueueDepth(),
		Running:    s.sched.Running(),
		Cache:      s.cache.Stats(),
		Metrics:    s.metrics.Snapshot(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.Exposition(
		s.cache.Stats(), s.sched.QueueDepth(), s.sched.Running()))
}

// handleDebugSolves serves the flight recorder: the last K solves (newest
// first) plus the slowest solve since boot.
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.Snapshot())
}
