package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/jpeg"
)

// TestDCTInvariantThroughService pins the paper's headline result end to
// end through the service layer: POST /v1/solve with the 32-task DCT graph
// must return the CPLEX-verified optimum (N=3, latency 300001330 ns, the
// 16 T1 | 8 T2 | 8 T2 split), proven optimal. This protects sparcsd
// consumers during solver rewrites — if any layer of the prune-first stack
// (presolve bounds, symmetry rows, best-first search, sparse simplex)
// breaks the optimum, this fails before a client sees a wrong answer.
func TestDCTInvariantThroughService(t *testing.T) {
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Graph: marshalGraph(t, g), Board: "paper",
	})
	if code != http.StatusOK {
		t.Fatalf("solve: HTTP %d: %s", code, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("N = %d, want 3", res.N)
	}
	if res.LatencyNS != 300001330 {
		t.Fatalf("latency = %.0f ns, want 300001330", res.LatencyNS)
	}
	if !res.Optimal {
		t.Fatal("DCT partitioning not proven optimal")
	}
	// The paper's split: 16 T1 tasks in partition 0, 8 T2 in each of 1, 2.
	types := map[int]map[string]int{0: {}, 1: {}, 2: {}}
	for ti := 0; ti < g.NumTasks(); ti++ {
		p, ok := res.Assign[g.Task(ti).Name]
		if !ok {
			t.Fatalf("assignment lost task %q", g.Task(ti).Name)
		}
		types[p][g.Task(ti).Type]++
	}
	if types[0]["T1"] != 16 || types[1]["T2"] != 8 || types[2]["T2"] != 8 {
		t.Errorf("partition contents = %v, want 16 T1 | 8 T2 | 8 T2", types)
	}

	// The fresh solve's search counters surface in /metrics so production
	// can watch how much work the presolve fathoms.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
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
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s\n%s", want, metrics)
		}
	}
}

// TestDCTPinnedPatternsThroughService: the DCT's pattern space is past the
// pricer's tree cap, so a request that pins formulation "patterns" is
// answered by the row model with the same proven optimum, and says so.
func TestDCTPinnedPatternsThroughService(t *testing.T) {
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Graph: marshalGraph(t, g), Board: "paper", Formulation: "patterns",
	})
	if code != http.StatusOK {
		t.Fatalf("solve: HTTP %d: %s", code, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.N != 3 || res.LatencyNS != 300001330 || res.Formulation != "rows" {
		t.Fatalf("optimal=%v N=%d latency=%.0f formulation=%q, want true/3/300001330/rows",
			res.Optimal, res.N, res.LatencyNS, res.Formulation)
	}
}
