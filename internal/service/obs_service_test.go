package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tempart"
)

// --- trace=true end-to-end ------------------------------------------------

// TestTraceSolveEndpoint drives trace=true through POST /v1/solve and pins
// the contract: the result carries a phase timeline whose spans cover the
// solve, traced requests bypass the cache in both directions, and untraced
// requests never see a trace.
func TestTraceSolveEndpoint(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	// diamondGraph actually branches (chain/pairs/wide are closed at the
	// root by the warm start), so the trace carries search counters. The
	// row model is pinned: under the default its open root starts a
	// pattern-master rival whose probe span overlaps the rows probe, and
	// the wall-clock partition check below holds for one model's probes.
	g := marshalGraph(t, diamondGraph())
	rows := tempart.FormulationRows

	// Warm the cache with an untraced solve.
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: g, Board: "small", Formulation: rows})
	if code != http.StatusOK {
		t.Fatalf("warm solve: HTTP %d: %s", code, body)
	}
	var warm Result
	mustUnmarshal(t, body, &warm)
	if warm.Trace != nil {
		t.Error("untraced solve returned a trace")
	}

	// Traced solve: must be a fresh miss even though the cache holds the
	// answer, and must not disturb the cache.
	before := svc.cache.Stats()
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: g, Board: "small", Formulation: rows, Trace: true})
	if code != http.StatusOK {
		t.Fatalf("traced solve: HTTP %d: %s", code, body)
	}
	var traced Result
	mustUnmarshal(t, body, &traced)
	if traced.Cache != string(OriginMiss) {
		t.Errorf("traced solve origin = %q, want %q (cache bypass)", traced.Cache, OriginMiss)
	}
	if after := svc.cache.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("traced solve touched the cache: %+v -> %+v", before, after)
	}
	if traced.N != warm.N || traced.LatencyNS != warm.LatencyNS {
		t.Errorf("traced solve differs: N=%d lat=%g, want N=%d lat=%g",
			traced.N, traced.LatencyNS, warm.N, warm.LatencyNS)
	}

	tr := traced.Trace
	if tr == nil {
		t.Fatal("trace=true solve returned no trace")
	}
	if tr.Dropped != 0 {
		t.Errorf("trace dropped %d events", tr.Dropped)
	}
	totals := tr.PhaseTotals()
	for _, phase := range []string{obs.PhasePresolve, obs.PhaseProbe, obs.PhaseModelBuild, obs.PhaseSearch} {
		if totals[phase] <= 0 {
			t.Errorf("trace has no %s span (totals %v)", phase, totals)
		}
	}
	// Sequential probes partition the wall clock: presolve + probe time can
	// never exceed the end-to-end latency (small slack for clock skew
	// between the trace's monotonic clock and SolveMS).
	covered := totals[obs.PhasePresolve] + totals[obs.PhaseProbe]
	wallNS := traced.SolveMS * 1e6
	if float64(covered) > wallNS*1.10 {
		t.Errorf("phase spans (%d ns) exceed solve latency (%.0f ns)", covered, wallNS)
	}
	if tr.Counters[obs.CounterNodes] < 1 {
		t.Errorf("trace counters missing bb_nodes: %v", tr.Counters)
	}
	if tr.Counters[obs.CounterLPPivots] < 1 {
		t.Errorf("trace counters missing lp_pivots: %v", tr.Counters)
	}

	// The cache entry is still live: an untraced re-solve is a hit and
	// carries no trace.
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: g, Board: "small", Formulation: rows})
	if code != http.StatusOK {
		t.Fatalf("hit solve: HTTP %d: %s", code, body)
	}
	var hit Result
	mustUnmarshal(t, body, &hit)
	if hit.Cache != string(OriginHit) {
		t.Errorf("post-trace solve origin = %q, want hit", hit.Cache)
	}
	if hit.Trace != nil {
		t.Error("cache hit returned a trace")
	}
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
}

// --- /debug/solves --------------------------------------------------------

// TestDebugSolvesFlightRecorder exercises the flight recorder endpoint:
// every terminal solve lands in the ring (hits included), fresh solves
// carry a phase breakdown, and the slowest solve stays pinned.
func TestDebugSolvesFlightRecorder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, FlightSize: 8})
	g := marshalGraph(t, chainGraph())

	// miss, hit, and an errored solve (task larger than the board).
	for _, req := range []SolveRequest{
		{Graph: g, Board: "small"},
		{Graph: g, Board: "small"},
	} {
		if code, body := postJSON(t, ts.URL+"/v1/solve", req); code != http.StatusOK {
			t.Fatalf("solve: HTTP %d: %s", code, body)
		}
	}
	big := chainGraph()
	big.Task(0).Resources = 10_000
	if code, _ := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Graph: marshalGraph(t, big), Board: "small"}); code == http.StatusOK {
		t.Fatal("oversized task solved")
	}

	var snap FlightSnapshot
	if code := getJSON(t, ts.URL+"/debug/solves", &snap); code != http.StatusOK {
		t.Fatalf("/debug/solves: HTTP %d", code)
	}
	if snap.Total != 3 || len(snap.Recent) != 3 {
		t.Fatalf("flight recorder holds total=%d recent=%d, want 3/3", snap.Total, len(snap.Recent))
	}
	// Newest first: error, hit, miss.
	if snap.Recent[0].Outcome != OutcomeError || snap.Recent[0].Error == "" {
		t.Errorf("newest record = %+v, want error outcome", snap.Recent[0])
	}
	if snap.Recent[1].Origin != string(OriginHit) {
		t.Errorf("middle record origin = %q, want hit", snap.Recent[1].Origin)
	}
	miss := snap.Recent[2]
	if miss.Origin != string(OriginMiss) || miss.Outcome != OutcomeOK {
		t.Errorf("oldest record = %+v, want ok miss", miss)
	}
	if miss.PhaseMS[obs.PhasePresolve] <= 0 || miss.PhaseMS[obs.PhaseSearch] <= 0 {
		t.Errorf("fresh solve has no phase breakdown: %v", miss.PhaseMS)
	}
	if len(snap.Recent[1].PhaseMS) != 0 {
		t.Errorf("cache hit has a phase breakdown: %v", snap.Recent[1].PhaseMS)
	}
	if snap.Slowest == nil {
		t.Fatal("no slowest solve pinned")
	}
	for _, r := range snap.Recent {
		if r.SolveMS > snap.Slowest.SolveMS {
			t.Errorf("record %.3fms slower than pinned slowest %.3fms", r.SolveMS, snap.Slowest.SolveMS)
		}
		if r.Engine != "ilp" || r.StartUnixMS == 0 {
			t.Errorf("incomplete record: %+v", r)
		}
	}
}

// TestFlightRecorderSlowestPinned pins the ring semantics directly: rotation
// keeps the last K records but never rotates out the slowest since boot.
func TestFlightRecorderSlowestPinned(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record(SolveRecord{ID: "slow", SolveMS: 900})
	for i := 0; i < 6; i++ {
		f.Record(SolveRecord{ID: fmt.Sprintf("fast%d", i), SolveMS: float64(i)})
	}
	snap := f.Snapshot()
	if snap.Total != 7 {
		t.Errorf("total = %d, want 7", snap.Total)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("recent holds %d, want 4", len(snap.Recent))
	}
	if snap.Recent[0].ID != "fast5" || snap.Recent[3].ID != "fast2" {
		t.Errorf("recent not newest-first: %v", snap.Recent)
	}
	if snap.Slowest == nil || snap.Slowest.ID != "slow" {
		t.Errorf("slowest = %+v, want the rotated-out 900ms record", snap.Slowest)
	}
}

// --- outcome-labeled latency ----------------------------------------------

// TestRecordSolveAllOutcomes pins the satellite fix: error, cancelled, and
// timed-out solves record latency too, each under its own outcome label —
// in particular a deadline expiry is "timeout", not "cancelled" (the client
// is still waiting for its anytime result).
func TestRecordSolveAllOutcomes(t *testing.T) {
	m := NewMetrics()
	m.RecordSolve("ilp", 10*time.Millisecond, nil)
	m.RecordSolve("ilp", 20*time.Millisecond, errors.New("boom"))
	m.RecordSolve("ilp", 30*time.Millisecond, context.Canceled)
	m.RecordSolve("ilp", 40*time.Millisecond, context.DeadlineExceeded)
	m.RecordSolve("ilp", 50*time.Millisecond, tempart.ErrDeadline)

	s := m.Snapshot()
	if s.Solves["ilp"] != 5 {
		t.Errorf("solves = %d, want 5", s.Solves["ilp"])
	}
	// The cancelled solve lands in its latency histogram below, but not in
	// the jobs-cancelled counter: the scheduler counts each cancelled job
	// once, and counting the solve too would count a cancelled running job
	// twice.
	if s.Errors != 1 || s.Cancelled != 0 || s.Timeouts != 2 {
		t.Errorf("errors=%d cancelled=%d timeouts=%d, want 1/0/2",
			s.Errors, s.Cancelled, s.Timeouts)
	}
	// All five observations land in the merged latency view.
	if s.P50MS <= 0 || s.P99MS < s.P50MS {
		t.Errorf("quantiles p50=%.3f p99=%.3f, want 0 < p50 <= p99", s.P50MS, s.P99MS)
	}
	text := m.Exposition(CacheStats{}, 0, 0)
	for _, want := range []string{
		`sparcsd_solve_duration_seconds_count{engine="ilp",outcome="ok"} 1`,
		`sparcsd_solve_duration_seconds_count{engine="ilp",outcome="error"} 1`,
		`sparcsd_solve_duration_seconds_count{engine="ilp",outcome="cancelled"} 1`,
		`sparcsd_solve_duration_seconds_count{engine="ilp",outcome="timeout"} 2`,
		`sparcsd_solve_timeouts_total 2`,
		`sparcsd_anytime_solves_total 0`,
		`sparcsd_fallback_solves_total 0`,
		`sparcsd_jobs_shed_total 0`,
		`sparcsd_worker_panics_total 0`,
		`sparcsd_solve_latency_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// --- Prometheus exposition golden parse -----------------------------------

var (
	promNameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// TestPrometheusExpositionParses fetches /metrics after real traffic across
// every outcome and parses every emitted line: each family has HELP and
// TYPE, each sample line is well-formed with a parseable value, and each
// histogram's buckets are cumulative and +Inf-terminated.
func TestPrometheusExpositionParses(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	g := marshalGraph(t, chainGraph())
	if code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: g, Board: "small"}); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d: %s", code, body)
	}
	// Error and cancelled outcomes, injected at the metrics layer so the
	// exposition exercises all three outcome labels deterministically.
	svc.metrics.RecordSolve("ilp", time.Millisecond, errors.New("boom"))
	svc.metrics.RecordSolve("list", time.Millisecond, context.Canceled)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	helped := map[string]bool{}
	typed := map[string]string{}
	// bucket cumulative-count tracking: series (name + labels minus le) ->
	// last seen count, and whether +Inf closed it.
	lastCum := map[string]float64{}
	infSeen := map[string]bool{}
	samples := 0

	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || !promNameRE.MatchString(parts[0]) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary":
			default:
				t.Fatalf("bad metric type in %q", line)
			}
			if !helped[parts[0]] {
				t.Errorf("TYPE before HELP for %s", parts[0])
			}
			typed[parts[0]] = parts[1]
		case line == "":
			t.Fatal("blank line in exposition")
		default:
			samples++
			name, labels, value := parsePromLine(t, line)
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			typ, ok := typed[family]
			if !ok {
				typ, ok = typed[name]
				family = name
			}
			if !ok {
				t.Errorf("sample %q has no # TYPE", line)
				continue
			}
			if strings.HasSuffix(name, "_bucket") && typ == "histogram" {
				series := family
				var le string
				for _, l := range labels {
					if strings.HasPrefix(l, "le=") {
						le = l
					} else {
						series += ";" + l
					}
				}
				if le == "" {
					t.Errorf("bucket without le label: %q", line)
				}
				if value < lastCum[series] {
					t.Errorf("non-cumulative bucket counts in %s: %g after %g", series, value, lastCum[series])
				}
				lastCum[series] = value
				if le == `le="+Inf"` {
					infSeen[series] = true
				}
			}
		}
	}
	if samples == 0 {
		t.Fatal("exposition has no samples")
	}
	for series := range lastCum {
		if !infSeen[series] {
			t.Errorf("histogram series %s has no +Inf bucket", series)
		}
	}
	// The traffic above must have produced all three outcome labels and the
	// per-phase counters.
	for _, want := range []string{
		`sparcsd_solve_duration_seconds_bucket{engine="ilp",outcome="ok",le="+Inf"}`,
		`sparcsd_solve_duration_seconds_bucket{engine="ilp",outcome="error",le="+Inf"}`,
		`sparcsd_solve_duration_seconds_bucket{engine="list",outcome="cancelled",le="+Inf"}`,
		`sparcsd_phase_seconds_total{engine="ilp",phase="presolve"}`,
		`sparcsd_phase_seconds_total{engine="ilp",phase="search"}`,
		`sparcsd_bb_nodes_total{engine="ilp"}`,
		`sparcsd_bb_pruned_combinatorial_total{engine="ilp"}`,
		`sparcsd_lp_solves_skipped_total{engine="ilp"}`,
		`sparcsd_cuts_added_total{engine="ilp"}`,
		`sparcsd_separation_rounds_total{engine="ilp"}`,
		`sparcsd_cg_cuts_total{engine="ilp"}`,
		`sparcsd_dual_bound_fathoms_total{engine="ilp"}`,
		`sparcsd_lp_refactorizations_total{engine="ilp"}`,
		`sparcsd_lp_bound_flips_total{engine="ilp"}`,
		`sparcsd_lp_sparse_ftrans_total{engine="ilp"}`,
		`sparcsd_lp_sparse_btrans_total{engine="ilp"}`,
		`sparcsd_lp_dense_fallbacks_total{engine="ilp"}`,
		`sparcsd_columns_generated_total{engine="ilp"}`,
		`sparcsd_pricing_rounds_total{engine="ilp"}`,
		`sparcsd_race_rivals_total{engine="ilp"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// parsePromLine splits a sample line into name, label pairs, and value,
// failing the test on any malformation.
func parsePromLine(t *testing.T, line string) (name string, labels []string, value float64) {
	t.Helper()
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			t.Fatalf("unbalanced braces: %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:j], ",") {
			if !promLabelRE.MatchString(pair) {
				t.Fatalf("bad label %q in %q", pair, line)
			}
			labels = append(labels, pair)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !promNameRE.MatchString(name) {
		t.Fatalf("bad metric name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return name, labels, v
}
