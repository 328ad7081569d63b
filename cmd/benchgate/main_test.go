package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	line := "BenchmarkILP_DCTPartitioning \t       1\t 562724284 ns/op\t        37.00 B&B-nodes\t 300001330 latency-ns\t        65.77 nodes/sec\t 2844856 B/op\t    2227 allocs/op\n"
	r := parseBenchOutput(line).benches["BenchmarkILP_DCTPartitioning"]
	for unit, want := range map[string]float64{
		"ns/op": 562724284, "B&B-nodes": 37, "nodes/sec": 65.77,
		"B/op": 2844856, "allocs/op": 2227, "latency-ns": 300001330,
	} {
		if got := r[unit].median; got != want {
			t.Errorf("%s = %g, want %g", unit, got, want)
		}
	}
}

// writeFixture emits a minimal `go test -json` stream with one benchmark,
// split across two output events like the real runner does.
func writeFixture(t *testing.T, dir, name, head, tail string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data := `{"Action":"run","Test":"BenchmarkX"}
{"Action":"output","Test":"BenchmarkX","Output":"` + head + `"}
{"Action":"output","Test":"BenchmarkX","Output":"` + tail + `"}
{"Action":"pass","Test":"BenchmarkX"}
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchFileJoinsSplitOutput(t *testing.T) {
	dir := t.TempDir()
	path := writeFixture(t, dir, "a.json",
		`BenchmarkX \t`, `       1\t 1000 ns/op\t 50.0 nodes/sec\t 120 allocs/op\n`)
	res, err := parseBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res.benches["BenchmarkX"]
	if !ok {
		t.Fatalf("BenchmarkX missing: %v", res.benches)
	}
	if r["ns/op"].median != 1000 || r["nodes/sec"].median != 50 || r["allocs/op"].median != 120 {
		t.Errorf("parsed %v", r)
	}
}

func TestFIRNodeCountOverride(t *testing.T) {
	nodes := gate{unit: "B&B-nodes", higherIsBad: true}
	// Default benchmarks tolerate the 20% threshold...
	if _, bad := gateMetric("BenchmarkOther", nodes, 100, 110, 0.20); bad {
		t.Error("10% node growth tripped the default gate")
	}
	// ...but the FIR bank headline gates at zero: any node growth fails.
	if _, bad := gateMetric("BenchmarkILP_FIRBank", nodes, 1, 2, 0.20); !bad {
		t.Error("FIR node-count growth passed despite the zero-threshold override")
	}
	if _, bad := gateMetric("BenchmarkILP_FIRBank", nodes, 1, 1, 0.20); bad {
		t.Error("unchanged FIR node count tripped the gate")
	}
	// Chain9, the one root bench with a real search tree, gates its node
	// count at zero too.
	if _, bad := gateMetric("BenchmarkILP_Chain9", nodes, 102, 103, 0.20); !bad {
		t.Error("Chain9 node growth 102 -> 103 passed despite the zero-threshold override")
	}
	if _, bad := gateMetric("BenchmarkILP_Chain9", nodes, 102, 102, 0.20); bad {
		t.Error("unchanged Chain9 node count tripped the gate")
	}
	// Other FIR metrics keep the default threshold.
	if _, bad := gateMetric("BenchmarkILP_FIRBank", gate{unit: "pivots/op", higherIsBad: true}, 100, 110, 0.20); bad {
		t.Error("FIR pivots inherited the zero threshold")
	}
}

// TestMultiRunGatesOnMedian: a -count 5 file whose first repetition is an
// outlier gates on the median of its five runs, and ns/op is gated only
// where both sides name the same CPU and have a spread tighter than the
// threshold.
func TestMultiRunGatesOnMedian(t *testing.T) {
	run := func(ns, allocs int) string {
		return "BenchmarkX-2 \t 3\t " + strconv.Itoa(ns) + " ns/op\t " + strconv.Itoa(allocs) + " allocs/op\n"
	}
	// go test -json names only the first repetition's Test; the runner
	// reports the others, name and all, as package output, and can split a
	// line after its name.
	event := func(test, out string) string {
		if test != "" {
			test = `"Test":"` + test + `",`
		}
		return `{"Action":"output",` + test + `"Output":"` + strings.ReplaceAll(strings.ReplaceAll(out, "\t", `\t`), "\n", `\n`) + `"}` + "\n"
	}
	const cpu = "cpu: Intel(R) Xeon(R) Processor\n"
	stream := event("", cpu) + event("BenchmarkX", run(9000, 200)) + event("", run(1000, 120)) +
		event("", "BenchmarkX-2 \t") + event("", run(1010, 120)) +
		event("", run(990, 120)) + event("", run(1000, 121))
	path := filepath.Join(t.TempDir(), "count5.json")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := parseBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.cpu != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu = %q", res.cpu)
	}
	r := res.benches["BenchmarkX"]
	if got := r["allocs/op"]; got.median != 120 || got.min != 120 || got.max != 200 || got.n != 5 {
		t.Errorf("allocs/op = %+v, want the median 120 of 5 runs over [120, 200]", got)
	}
	if got := r["ns/op"]; got.median != 1000 || got.min != 990 || got.max != 9000 {
		t.Errorf("ns/op = %+v, want median 1000 over [990, 9000]", got)
	}

	old := parseBenchOutput(cpu + run(1000, 120) + run(1005, 120))
	failed, err := compare(io.Discard, old, res, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Error("the outlier first run tripped the gate; the medians are unchanged")
	}

	// One sample per side has no spread: ns/op stays ungated.
	failed, err = compare(io.Discard, parseBenchOutput(cpu+run(1000, 120)), parseBenchOutput(cpu+run(5000, 120)), 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Error("single-sample ns/op was gated")
	}

	// Tight spreads on both sides: a 50% slower median fails on ns/op.
	slow := run(1500, 120) + run(1510, 120) + run(1490, 120)
	var out strings.Builder
	failed, err = compare(&out, old, parseBenchOutput(cpu+slow), 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(out.String(), "ns/op") {
		t.Errorf("a 50%% ns/op regression with tight spreads passed:\n%s", out.String())
	}

	// The same tight, 50% slower runs on another CPU, or on a stream that
	// names none, are a shift between machines: ns/op stays ungated.
	for _, other := range []string{"cpu: AMD EPYC 7763 64-Core Processor\n", ""} {
		out.Reset()
		failed, err = compare(&out, old, parseBenchOutput(other+slow), 0.20)
		if err != nil {
			t.Fatal(err)
		}
		if failed || !strings.Contains(out.String(), "not gated: cpu differs") {
			t.Errorf("ns/op was gated across CPUs (new cpu line %q):\n%s", other, out.String())
		}
	}
}
