package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tempart"
)

// Outcome labels for terminal solve states: every request that reaches the
// solve path lands in exactly one, and every one is latency-recorded (an
// errored or cancelled solve still occupied a worker for its duration).
const (
	OutcomeOK        = "ok"
	OutcomeError     = "error"
	OutcomeCancelled = "cancelled"
	OutcomeTimeout   = "timeout"
)

// outcomeOf classifies a terminal solve error. A deadline expiry is not a
// cancellation: the client is still waiting and (with a deadline_ms
// request) is about to receive an anytime or fallback result, so it gets
// its own outcome label in the latency histograms.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, tempart.ErrDeadline):
		return OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return OutcomeCancelled
	default:
		return OutcomeError
	}
}

// histKey indexes the per-(engine, outcome) latency histograms.
type histKey struct {
	engine  string
	outcome string
}

// Metrics aggregates service counters. Safe for concurrent use.
type Metrics struct {
	mu      sync.Mutex
	started time.Time
	solves  map[string]uint64 // per engine
	// search holds each engine's search-counter totals, indexed like
	// searchFamilies.
	search       map[string][]uint64
	errors       uint64
	cancelled    uint64
	timeouts     uint64 // solves stopped by a deadline (anytime or not)
	anytime      uint64 // timed-out solves that still served an incumbent
	fallbacks    uint64 // timed-out solves served by the greedy fallback
	shed         uint64 // queued jobs dropped because their deadline expired
	workerPanics uint64 // solver panics recovered without losing the daemon
	// hist holds the per-(engine, outcome) fixed-bucket latency
	// histograms that replaced the PR 2 sample ring: every terminal
	// outcome is observed (the ring recorded successes only).
	hist map[histKey]*obs.Histogram
	// phaseNS accumulates engine → phase → cumulative span time from
	// fresh solves' traces.
	phaseNS map[string]map[string]int64
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		started: time.Now(),
		solves:  map[string]uint64{},
		search:  map[string][]uint64{},
		hist:    map[histKey]*obs.Histogram{},
		phaseNS: map[string]map[string]int64{},
	}
}

// RecordSolve notes one completed solve request and its end-to-end
// latency. All terminal outcomes are recorded — success, error, and
// cancellation each observe the latency histogram under their outcome
// label, so slow failures are no longer invisible in latency.
func (m *Metrics) RecordSolve(engine string, d time.Duration, err error) {
	outcome := outcomeOf(err)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves[engine]++
	switch outcome {
	case OutcomeError:
		m.errors++
	case OutcomeTimeout:
		m.timeouts++
	}
	k := histKey{engine, outcome}
	h := m.hist[k]
	if h == nil {
		h = obs.NewHistogram(nil)
		m.hist[k] = h
	}
	h.Observe(d.Seconds())
}

// RecordPhases folds one solve's trace into the per-engine cumulative
// phase-time counters. Nil traces (cache hits, untraced paths) no-op.
func (m *Metrics) RecordPhases(engine string, tr *obs.Trace) {
	totals := tr.PhaseTotals()
	if len(totals) == 0 {
		return
	}
	m.mu.Lock()
	p := m.phaseNS[engine]
	if p == nil {
		p = make(map[string]int64, len(totals))
		m.phaseNS[engine] = p
	}
	for phase, ns := range totals {
		p[phase] += ns
	}
	m.mu.Unlock()
}

// RecordSearch folds one fresh solve's search counters into the per-engine
// aggregates. Cache hits and shared solves are not recorded (their search
// ran at most once, elsewhere).
func (m *Metrics) RecordSearch(engine string, c SearchCounters) {
	m.mu.Lock()
	tot := m.search[engine]
	if tot == nil {
		tot = make([]uint64, len(searchFamilies))
		m.search[engine] = tot
	}
	for i, f := range searchFamilies {
		tot[i] += uint64(f.get(&c))
	}
	m.mu.Unlock()
}

// RecordCancelled notes a job that ended cancelled: by the jobs API, a
// client disconnect or shutdown, whether it was queued or running. The
// scheduler reports each such job exactly once; the latency histograms'
// cancelled outcome is separate and counts solves, not jobs.
func (m *Metrics) RecordCancelled() {
	m.mu.Lock()
	m.cancelled++
	m.mu.Unlock()
}

// RecordAnytime notes a timed-out solve that still returned its best
// incumbent (degradation ladder rung 2: optimal → anytime incumbent).
func (m *Metrics) RecordAnytime() {
	m.mu.Lock()
	m.anytime++
	m.mu.Unlock()
}

// RecordFallback notes a timed-out solve with no incumbent that was served
// by the greedy list partitioner instead (ladder rung 3).
func (m *Metrics) RecordFallback() {
	m.mu.Lock()
	m.fallbacks++
	m.mu.Unlock()
}

// RecordShed notes a queued job dropped without running because its
// deadline had already expired (ladder rung 4: self-protection).
func (m *Metrics) RecordShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

// RecordWorkerPanic notes a solver panic that was recovered — the job
// failed, the daemon did not.
func (m *Metrics) RecordWorkerPanic() {
	m.mu.Lock()
	m.workerPanics++
	m.mu.Unlock()
}

// Snapshot is a point-in-time metrics view used by /healthz and /metrics.
type Snapshot struct {
	UptimeMS int64             `json:"uptime_ms"`
	Solves   map[string]uint64 `json:"solves"`
	// Search maps each searchFamilies name to its per-engine totals; the
	// JSON form flattens it into one key per family (see MarshalJSON).
	Search       map[string]map[string]uint64 `json:"-"`
	Errors       uint64                       `json:"errors"`
	Cancelled    uint64                       `json:"cancelled"`
	Timeouts     uint64                       `json:"timeouts"`
	Anytime      uint64                       `json:"anytime_solves"`
	Fallbacks    uint64                       `json:"fallback_solves"`
	Shed         uint64                       `json:"jobs_shed"`
	WorkerPanics uint64                       `json:"worker_panics"`
	P50MS        float64                      `json:"latency_p50_ms"`
	P99MS        float64                      `json:"latency_p99_ms"`
}

// Snapshot captures current counters and latency quantiles (interpolated
// from the merged histograms, across every engine and outcome).
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		UptimeMS:     time.Since(m.started).Milliseconds(),
		Solves:       copyCounters(m.solves),
		Search:       make(map[string]map[string]uint64, len(searchFamilies)),
		Errors:       m.errors,
		Cancelled:    m.cancelled,
		Timeouts:     m.timeouts,
		Anytime:      m.anytime,
		Fallbacks:    m.fallbacks,
		Shed:         m.shed,
		WorkerPanics: m.workerPanics,
	}
	for i, f := range searchFamilies {
		vals := make(map[string]uint64, len(m.search))
		for engine, tot := range m.search {
			vals[engine] = tot[i]
		}
		s.Search[f.name] = vals
	}
	if merged := m.mergedHistLocked(); merged.Count() > 0 {
		s.P50MS = merged.Quantile(0.50) * 1e3
		s.P99MS = merged.Quantile(0.99) * 1e3
	}
	return s
}

// MarshalJSON renders the snapshot flat: one key per search family (in
// searchFamilies order, omitted while no engine has recorded a search)
// after the fixed fields.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type plain Snapshot
	b, err := json.Marshal(plain(s))
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1] // reopen the object
	for _, f := range searchFamilies {
		if vals := s.Search[f.name]; len(vals) > 0 {
			v, err := json.Marshal(vals)
			if err != nil {
				return nil, err
			}
			b = append(fmt.Appendf(append(b, ','), "%q:", f.name), v...)
		}
	}
	return append(b, '}'), nil
}

// mergedHistLocked folds every (engine, outcome) histogram into one for
// the service-wide quantile summary. Caller holds m.mu.
func (m *Metrics) mergedHistLocked() *obs.Histogram {
	merged := obs.NewHistogram(nil)
	for _, h := range m.hist {
		merged.Merge(h)
	}
	return merged
}

func copyCounters(src map[string]uint64) map[string]uint64 {
	dst := make(map[string]uint64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Exposition renders the metrics in Prometheus text format (promlint-clean:
// every family carries # HELP and # TYPE), folding in the cache stats and
// scheduler gauges supplied by the server.
func (m *Metrics) Exposition(cache CacheStats, queueDepth, running int) string {
	s := m.Snapshot()
	m.mu.Lock()
	type histLine struct {
		key  histKey
		hist *obs.Histogram
	}
	hists := make([]histLine, 0, len(m.hist))
	for k, h := range m.hist {
		hists = append(hists, histLine{k, h})
	}
	merged := m.mergedHistLocked()
	type phaseLine struct {
		engine, phase string
		ns            int64
	}
	var phases []phaseLine
	for engine, p := range m.phaseNS {
		for phase, ns := range p {
			phases = append(phases, phaseLine{engine, phase, ns})
		}
	}
	m.mu.Unlock()
	sort.Slice(hists, func(a, b int) bool {
		if hists[a].key.engine != hists[b].key.engine {
			return hists[a].key.engine < hists[b].key.engine
		}
		return hists[a].key.outcome < hists[b].key.outcome
	})
	sort.Slice(phases, func(a, b int) bool {
		if phases[a].engine != phases[b].engine {
			return phases[a].engine < phases[b].engine
		}
		return phases[a].phase < phases[b].phase
	})

	var b strings.Builder
	head := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP sparcsd_%s %s\n# TYPE sparcsd_%s %s\n", name, help, name, typ)
	}
	engineFamily := func(name, help string, vals map[string]uint64) {
		if len(vals) == 0 {
			return
		}
		head(name, "counter", help)
		for _, eng := range sortedKeys(vals) {
			fmt.Fprintf(&b, "sparcsd_%s{engine=%q} %d\n", name, eng, vals[eng])
		}
	}
	scalar := func(name, typ, help string, v any) {
		head(name, typ, help)
		fmt.Fprintf(&b, "sparcsd_%s %v\n", name, v)
	}

	engineFamily("solve_total", "Completed solve requests per engine.", s.Solves)
	for _, f := range searchFamilies {
		engineFamily(f.name+"_total", f.help, s.Search[f.name])
	}

	scalar("solve_errors_total", "counter", "Solve requests that ended in error.", s.Errors)
	scalar("jobs_cancelled_total", "counter", "Jobs cancelled by clients or context death.", s.Cancelled)
	// Robustness counters: the degradation ladder (optimal → anytime
	// incumbent → greedy fallback → shed) plus recovered solver panics.
	scalar("solve_timeouts_total", "counter", "Solves stopped by a deadline before proving optimality.", s.Timeouts)
	scalar("anytime_solves_total", "counter", "Timed-out solves that still served their best incumbent.", s.Anytime)
	scalar("fallback_solves_total", "counter", "Timed-out solves served by the greedy list fallback.", s.Fallbacks)
	scalar("jobs_shed_total", "counter", "Queued jobs dropped because their deadline had already expired.", s.Shed)
	scalar("worker_panics_total", "counter", "Solver panics recovered without losing the daemon.", s.WorkerPanics)
	scalar("cache_hits_total", "counter", "Memo cache hits.", cache.Hits)
	scalar("cache_misses_total", "counter", "Memo cache misses (fresh solves).", cache.Misses)
	scalar("cache_inflight_shared_total", "counter", "Requests deduplicated onto an in-flight identical solve.", cache.Shared)
	scalar("cache_evictions_total", "counter", "LRU evictions.", cache.Evictions)
	scalar("cache_remap_fallbacks_total", "counter", "Cache hits whose canonical transfer failed verification.", cache.RemapFallbacks)
	scalar("cache_entries", "gauge", "Entries resident in the memo cache.", cache.Entries)
	head("cache_hit_rate", "gauge", "Cache (hits+shared)/lookups.")
	fmt.Fprintf(&b, "sparcsd_cache_hit_rate %.4f\n", cache.HitRate())
	scalar("queue_depth", "gauge", "Jobs waiting in the scheduler queue.", queueDepth)
	head("jobs", "gauge", "Jobs by scheduler state.")
	fmt.Fprintf(&b, "sparcsd_jobs{state=%q} %d\n", "running", running)
	fmt.Fprintf(&b, "sparcsd_jobs{state=%q} %d\n", "queued", queueDepth)

	// The flight-recorder tentpole's service layer: per-(engine, outcome)
	// fixed-bucket latency histograms. Every terminal outcome lands here.
	if len(hists) > 0 {
		head("solve_duration_seconds", "histogram", "End-to-end solve latency by engine and terminal outcome.")
		for _, hl := range hists {
			uppers := hl.hist.Uppers()
			cum := hl.hist.Cumulative()
			for i, upper := range uppers {
				fmt.Fprintf(&b, "sparcsd_solve_duration_seconds_bucket{engine=%q,outcome=%q,le=%q} %d\n",
					hl.key.engine, hl.key.outcome, formatUpper(upper), cum[i])
			}
			fmt.Fprintf(&b, "sparcsd_solve_duration_seconds_bucket{engine=%q,outcome=%q,le=\"+Inf\"} %d\n",
				hl.key.engine, hl.key.outcome, cum[len(cum)-1])
			fmt.Fprintf(&b, "sparcsd_solve_duration_seconds_sum{engine=%q,outcome=%q} %.6f\n",
				hl.key.engine, hl.key.outcome, hl.hist.Sum())
			fmt.Fprintf(&b, "sparcsd_solve_duration_seconds_count{engine=%q,outcome=%q} %d\n",
				hl.key.engine, hl.key.outcome, hl.hist.Count())
		}
	}
	// Per-phase cumulative solver time, folded from fresh solves' traces.
	if len(phases) > 0 {
		head("phase_seconds_total", "counter", "Cumulative solver time per pipeline phase (fresh solves).")
		for _, pl := range phases {
			fmt.Fprintf(&b, "sparcsd_phase_seconds_total{engine=%q,phase=%q} %.6f\n",
				pl.engine, pl.phase, float64(pl.ns)/1e9)
		}
	}
	// Legacy summary retained for dashboard continuity; quantiles are now
	// interpolated from the merged histograms rather than a sample ring.
	head("solve_latency_seconds", "summary", "Solve latency quantiles across all engines and outcomes.")
	fmt.Fprintf(&b, "sparcsd_solve_latency_seconds{quantile=\"0.5\"} %.6f\n", merged.Quantile(0.50))
	fmt.Fprintf(&b, "sparcsd_solve_latency_seconds{quantile=\"0.99\"} %.6f\n", merged.Quantile(0.99))
	fmt.Fprintf(&b, "sparcsd_solve_latency_seconds_sum %.6f\n", merged.Sum())
	fmt.Fprintf(&b, "sparcsd_solve_latency_seconds_count %d\n", merged.Count())
	scalar("uptime_seconds", "gauge", "Seconds since service start.", s.UptimeMS/1000)
	return b.String()
}

// formatUpper renders a histogram bucket bound the way Prometheus clients
// do: shortest float form ("0.005", "1", "2.5").
func formatUpper(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
