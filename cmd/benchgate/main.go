// Command benchgate is the CI bench-regression gate: it compares a fresh
// benchmark run against the committed baseline and fails (exit 1) when a
// gated metric regresses by more than the threshold.
//
// Both inputs are `go test -json` streams as written by `make bench`
// (BENCH_<date>.json), usually holding several repetitions of each
// benchmark (-count). Each metric is reduced to the median of its
// repetitions and their min–max spread, and the gate compares medians.
// Gated metrics, per benchmark present in both files:
//
//   - allocs/op:            higher is a regression (deterministic)
//   - B&B-nodes:            higher is a regression (deterministic search size)
//   - pivots/op:            higher is a regression (deterministic simplex work)
//   - refactorizations/op:  higher is a regression (basis reinversions the
//     Forrest–Tomlin update path failed to avoid)
//   - bound-flips/op:       lower is a regression (dual long steps absorbed
//     without a pivot)
//   - nodes/sec:    lower is a regression (search throughput; wall-clock
//     derived, so it carries machine noise — the deterministic counters
//     above are the machine-independent teeth of the gate)
//   - ns/op:        higher is a regression, gated only where both streams
//     name the same CPU (their `cpu:` header line) and both runs repeat the
//     benchmark with a spread ((max−min)/median) tighter than the
//     threshold: a wider spread means the repetitions cannot resolve a
//     change that size, and a tight spread says nothing about a steady
//     shift between machines
//
// Metrics are only gated when both runs report a nonzero value (a solve
// the presolve fully fathoms legitimately reports zero nodes), so a
// benchmark that stops searching altogether never trips the gate.
//
// Usage:
//
//	benchgate -old BENCH_20260728.json -new /tmp/bench.json [-threshold 0.20]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event schema we need.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// stat is one metric over a benchmark's n repetitions.
type stat struct {
	median, min, max float64
	n                int
}

// spread is the min–max range relative to the median.
func (s stat) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.max - s.min) / s.median
}

// resolves reports whether the repetitions resolve a change of threshold:
// a single sample has no spread to judge by.
func (s stat) resolves(threshold float64) bool {
	return s.n > 1 && s.spread() < threshold
}

// newStat reduces a metric's samples (at least one) to a stat.
func newStat(vs []float64) stat {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	med := sorted[n/2]
	if n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return stat{median: med, min: sorted[0], max: sorted[n-1], n: n}
}

// benchResult holds one benchmark's parsed metrics, keyed by unit
// ("ns/op", "allocs/op", "nodes/sec", ...).
type benchResult map[string]stat

// benchRun is one parsed stream: the CPU its `cpu:` header names (empty
// when it names none) and its benchmarks by name.
type benchRun struct {
	cpu     string
	benches map[string]benchResult
}

// parseBenchFile replays the output events of a -json stream in order and
// parses the benchmark result lines they form. Only the first repetition
// of a benchmark carries its Test name; under -count the runner reports
// the others as package output, and a line may be split across events
// (the runner flushes mid-line), so lines are rebuilt from the whole
// stream rather than per test.
func parseBenchFile(path string) (benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchRun{}, err
	}
	defer f.Close()
	var out strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise
		}
		if ev.Action == "output" {
			out.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return benchRun{}, err
	}
	return parseBenchOutput(out.String()), nil
}

// parseBenchOutput extracts the "value unit" pairs of every benchmark
// result line, one line per repetition, like
//
//	BenchmarkX-2  \t 1 \t 123456 ns/op \t 37.00 B&B-nodes \t 97088 B/op \t 1154 allocs/op
//
// and reduces each benchmark's values of a unit to a stat. Benchmarks are
// keyed by name without the GOMAXPROCS suffix, as -json's Test field
// names them. The run's CPU is its first `cpu:` line.
func parseBenchOutput(s string) benchRun {
	var run benchRun
	samples := map[string]map[string][]float64{}
	for _, line := range strings.Split(s, "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok && run.cpu == "" {
			run.cpu = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		// The name is the line's last Benchmark token: a name flushed
		// before its numbers can be repeated in front of them.
		start := -1
		for i, f := range fields {
			if strings.HasPrefix(f, "Benchmark") {
				start = i
			}
		}
		if start < 0 {
			continue
		}
		name := fields[start]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := start + 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			// The iteration count is followed by a number, not a unit; only
			// keep pairs whose unit is not itself numeric.
			unit := fields[i+1]
			if _, err := strconv.ParseFloat(unit, 64); err == nil {
				continue
			}
			if samples[name] == nil {
				samples[name] = map[string][]float64{}
			}
			samples[name][unit] = append(samples[name][unit], v)
			i++
		}
	}
	run.benches = map[string]benchResult{}
	for name, units := range samples {
		r := benchResult{}
		for unit, vs := range units {
			r[unit] = newStat(vs)
		}
		run.benches[name] = r
	}
	return run
}

// gate describes one gated metric.
type gate struct {
	unit        string
	higherIsBad bool
	// noisy metrics are gated only where both runs name the same CPU and
	// resolve a change of the threshold (stat.resolves).
	noisy bool
}

var gates = []gate{
	{"allocs/op", true, false},
	{"B&B-nodes", true, false},
	{"pivots/op", true, false},
	// Basis reinversions: the Forrest–Tomlin update path exists to keep
	// these rare, so a count increase means the update/refactor policy (or
	// update stability) regressed. Deterministic.
	{"refactorizations/op", true, false},
	// Dual long-step bound flips: infeasibility absorbed without a pivot.
	// Fewer flips on the same search means the ratio test stopped taking
	// long steps — gated like a throughput metric (lower is a regression).
	{"bound-flips/op", false, false},
	{"nodes/sec", false, false},
	{"ns/op", true, true},
}

// thresholdOverrides tightens the gate for specific (benchmark, unit)
// pairs. The FIR bank is the headline branch-and-cut benchmark and the
// pack portfolio is the headline infeasibility-proof regime: their node
// counts are deterministic and the cut/proof engines exist to shrink
// them, so ANY node-count growth over the committed baseline fails the
// gate (threshold 0), not just the default 20%.
var thresholdOverrides = map[string]map[string]float64{
	"BenchmarkILP_FIRBank":  {"B&B-nodes": 0},
	"BenchmarkILP_Pack12":   {"B&B-nodes": 0},
	"BenchmarkILP_Pack15":   {"B&B-nodes": 0},
	"BenchmarkILP_Pack18":   {"B&B-nodes": 0},
	"BenchmarkILP_Pack2638": {"B&B-nodes": 0},
}

// gateMetric computes the relative regression of one metric and whether it
// trips the gate (per-benchmark overrides tighten the default threshold).
func gateMetric(name string, g gate, ov, nv, threshold float64) (reg float64, bad bool) {
	if g.higherIsBad {
		reg = nv/ov - 1
	} else {
		reg = ov/nv - 1
	}
	if tight, ok := thresholdOverrides[name][g.unit]; ok {
		threshold = tight
	}
	return reg, reg > threshold
}

func main() {
	oldPath := flag.String("old", "", "baseline go test -json bench file (committed BENCH_<date>.json)")
	newPath := flag.String("new", "", "fresh go test -json bench file to check")
	threshold := flag.Float64("threshold", 0.20, "relative regression threshold")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	oldRes, err := parseBenchFile(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	newRes, err := parseBenchFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	failed, err := compare(os.Stdout, oldRes, newRes, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: regression beyond %.0f%% threshold\n", 100**threshold)
		os.Exit(1)
	}
	fmt.Println("benchgate: no regressions")
}

// compare gates every metric of the benchmarks present in both runs,
// writing one report line per comparison to w, and reports whether any
// gate tripped.
func compare(w io.Writer, oldRun, newRun benchRun, threshold float64) (failed bool, err error) {
	oldRes, newRes := oldRun.benches, newRun.benches
	sameCPU := oldRun.cpu != "" && oldRun.cpu == newRun.cpu
	if !sameCPU {
		fmt.Fprintf(w, "cpu differs (old %q, new %q): ns/op not gated\n", oldRun.cpu, newRun.cpu)
	}
	names := make([]string, 0, len(newRes))
	for name := range newRes {
		if _, ok := oldRes[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no common benchmarks between baseline and fresh run")
	}
	for _, name := range names {
		o, n := oldRes[name], newRes[name]
		for _, g := range gates {
			om, okO := o[g.unit]
			nm, okN := n[g.unit]
			if !okO || !okN {
				continue
			}
			ov, nv := om.median, nm.median
			line := fmt.Sprintf("%-36s %-19s old=%-10.4g (spread %5.1f%%)  new=%-10.4g (spread %5.1f%%)",
				name, g.unit, ov, 100*om.spread(), nv, 100*nm.spread())
			if g.higherIsBad && ov == 0 && nv > 0 {
				// A deterministic counter springing from zero is an
				// unbounded relative regression: a search that the presolve
				// used to fathom completely has started exploring again.
				fmt.Fprintf(w, "%s   +inf%%  REGRESSION\n", line)
				failed = true
				continue
			}
			if ov == 0 || nv == 0 {
				// Remaining zero cases carry no gateable ratio: a metric
				// dropping to zero is an improvement for the higher-is-bad
				// counters, and nodes/sec is meaningless without nodes.
				continue
			}
			reg, bad := gateMetric(name, g, ov, nv, threshold)
			status := "ok"
			switch {
			case g.noisy && !sameCPU:
				status = "(not gated: cpu differs)"
			case g.noisy && !(om.resolves(threshold) && nm.resolves(threshold)):
				status = "(not gated: spread too wide or one sample)"
			case bad:
				status = "REGRESSION"
				failed = true
			}
			fmt.Fprintf(w, "%s %+6.1f%%  %s\n", line, 100*reg, status)
		}
	}
	return failed, nil
}
