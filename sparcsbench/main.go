// Command sparcsbench is the end-to-end benchmark of the sparcsd
// partitioning service. It starts the daemon binary it is given, drives it
// over loopback HTTP with closed-loop clients running one workload, checks
// every answer against an independently computed optimum, and prints one
// JSON object as the last line of standard output.
//
// Usage (run.sh builds both binaries from source first):
//
//	sparcsbench -daemon path/to/sparcsd --workload hit --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics (latency quantiles, throughput,
// daemon start-up time); --trace 1 runs the same traffic and reports the
// per-layer metrics instead, read from the responses and from the
// daemon's /metrics counters before and after the measured window.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	daemonWorker = 2  // sparcsd worker pool size
	setupStarts  = 21 // daemon start-ups timed by --trace 0 runs; setup_s is their median
)

func main() {
	var (
		workload = flag.String("workload", "", "traffic mix: patterns, rows, hit, or batch")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
		bin      = flag.String("daemon", "", "sparcsd binary")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, *bin, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparcsbench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparcsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, bin, workload string, seed int64, window time.Duration, traced bool) (*report, error) {
	wl, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (have patterns, rows, hit, batch)", workload)
	}
	if bin == "" {
		return nil, fmt.Errorf("-daemon is required")
	}
	if window <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}

	// Set-up: start the daemon, keep the last one running. Only --trace 0
	// reports setup_s, so only it times several start-ups.
	starts := 1
	if !traced {
		starts = setupStarts
	}
	var d *daemon
	setup := make([]float64, 0, starts)
	for k := 0; k < starts; k++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(ctx, bin, daemonWorker); err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
	}
	defer d.stop()

	hc := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
	defer hc.CloseIdleConnections()

	inp, fill := newInputs(rand.New(rand.NewSource(seed)))
	sources := func(phase int64) []*source {
		srcs := make([]*source, wl.clients)
		for k := range srcs {
			srcs[k] = &source{inputs: inp, rng: rand.New(rand.NewSource(seed*1009 + phase*101 + int64(k)))}
		}
		return srcs
	}
	if wl.cached {
		// Fill the cache with the working set, then check it.
		warm := &stats{}
		for _, v := range fill {
			warm.do(ctx, hc, d.base, single(v, 0))
		}
		warm.checkAll()
		if err := warm.err(); err != nil {
			return nil, fmt.Errorf("filling the cache: %w", err)
		}
	}
	// Warm-up traffic (not measured): lets lazy set-up and the runtime
	// settle before timing.
	warmup := min(max(window/10, 300*time.Millisecond), 2*time.Second)
	warm, _ := drive(ctx, hc, d.base, wl.next, sources(1), warmup)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	warm.checkAll()
	if err := warm.err(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var before map[string]float64
	if traced {
		var err error
		if before, err = scrape(ctx, hc, d.base); err != nil {
			return nil, err
		}
	}
	st, wall := drive(ctx, hc, d.base, wl.next, sources(2), window)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if st.items == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	st.checkAll()
	if st.firstErr != "" {
		fmt.Fprintln(os.Stderr, "sparcsbench: first problem:", st.firstErr)
	}
	rep := &report{
		Correct:   st.badChecks == 0,
		Attempted: st.items,
		Failed:    st.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		// Each figure is the median over ten equal slices of the window, so
		// a burst of outside load, or one unusually hard instance, in one
		// slice barely moves it.
		lat, items := st.slices(wall)
		var p50, p90, rate []float64
		for k := range lat {
			p50 = append(p50, quantile(lat[k], 0.50))
			p90 = append(p90, quantile(lat[k], 0.90))
			rate = append(rate, float64(items[k])/(wall.Seconds()/float64(len(lat))))
		}
		rep.Metrics["latency_p50_ms"] = metric{quantile(p50, 0.5), "ms"}
		rep.Metrics["latency_p90_ms"] = metric{quantile(p90, 0.5), "ms"}
		rep.Metrics["throughput_per_s"] = metric{quantile(rate, 0.5), "1/s"}
		rep.Metrics["setup_s"] = metric{quantile(setup, 0.5), "s"}
		return rep, nil
	}
	after, err := scrape(ctx, hc, d.base)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	perSolve := func(v float64) float64 {
		if st.fresh == 0 {
			return 0
		}
		return v / float64(st.fresh)
	}
	m := rep.Metrics
	m["http_overhead_ms"] = metric{quantile(st.overheadMS, 0.5), "ms"}
	m["server_solve_ms"] = metric{quantile(st.solveMS, 0.5), "ms"}
	hits, misses, shared := delta("sparcsd_cache_hits_total"), delta("sparcsd_cache_misses_total"),
		delta("sparcsd_cache_inflight_shared_total")
	m["cache_hits"] = metric{hits, "count"}
	m["cache_misses"] = metric{misses, "count"}
	m["cache_shared"] = metric{shared, "count"}
	ratio := 0.0
	if lookups := hits + misses + shared; lookups > 0 {
		ratio = (hits + shared) / lookups
	}
	m["cache_hit_ratio"] = metric{ratio, "ratio"}
	m["cache_remap_fallbacks"] = metric{delta("sparcsd_cache_remap_fallbacks_total"), "count"}
	m["fresh_solves"] = metric{float64(st.fresh), "count"}
	// Solver phases from the daemon's always-on span totals, as self time:
	// a probe span encloses the model-build and search spans of its
	// partition count, and model-build encloses root-cut.
	phase := func(name string) float64 { return perSolve(delta("phase:"+name) * 1e3) }
	m["presolve_ms_per_solve"] = metric{phase("presolve"), "ms"}
	m["probe_self_ms_per_solve"] = metric{phase("probe") - phase("model-build") - phase("search"), "ms"}
	m["model_build_self_ms_per_solve"] = metric{phase("model-build") - phase("root-cut"), "ms"}
	m["root_cut_ms_per_solve"] = metric{phase("root-cut"), "ms"}
	m["search_ms_per_solve"] = metric{phase("search"), "ms"}
	m["bb_nodes_per_solve"] = metric{perSolve(float64(st.nodes)), "count"}
	m["lp_pivots_per_solve"] = metric{perSolve(float64(st.lpIters)), "count"}
	for name, family := range map[string]string{
		"cuts_added_per_solve":          "sparcsd_cuts_added_total",
		"lp_refactorizations_per_solve": "sparcsd_lp_refactorizations_total",
		"lp_dense_fallbacks_per_solve":  "sparcsd_lp_dense_fallbacks_total",
		"columns_generated_per_solve":   "sparcsd_columns_generated_total",
		"pricing_rounds_per_solve":      "sparcsd_pricing_rounds_total",
	} {
		m[name] = metric{perSolve(delta(family)), "count"}
	}
	m["lp_sparse_solves_per_solve"] = metric{perSolve(delta("sparcsd_lp_sparse_ftrans_total") +
		delta("sparcsd_lp_sparse_btrans_total")), "count"}
	// Answer quality under the anytime budget: how many answers are proven
	// optimal, and how far the deadline-cut ones are from their bound.
	m["anytime_solves"] = metric{delta("sparcsd_anytime_solves_total"), "count"}
	m["proven_share"] = metric{float64(st.proven) / float64(st.items-st.failed), "ratio"}
	m["partial_gap_pct"] = metric{quantile(st.gapPct, 0.5), "%"}
	m["deadline_overrun_ms"] = metric{quantile(st.overrunMS, 0.5), "ms"}
	return rep, nil
}

// err reports the first failure or wrong answer, if any.
func (st *stats) err() error {
	if st.failed > 0 || st.badChecks > 0 {
		return fmt.Errorf("%d failed, %d wrong: %s", st.failed, st.badChecks, st.firstErr)
	}
	return nil
}

// scrape reads the daemon's Prometheus exposition and sums every sample
// of a family over its labels, except phase_seconds_total, which is kept
// per phase under the key "phase:<name>". A family the daemon does not
// export reads as 0.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if name == "sparcsd_phase_seconds_total" {
			_, phase, _ := strings.Cut(labels, `phase="`)
			phase, _, _ = strings.Cut(phase, `"`)
			name = "phase:" + phase
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}
