package tempart

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// quickSolvableEntry picks the first portfolio instance that solves to a
// proven optimum under its manifest budget (pack12 in the committed
// corpus): big enough (~ms) that the timeline/wall comparison is
// meaningful, small enough for every CI lane.
func quickSolvableEntry(t *testing.T) *portfolioEntry {
	t.Helper()
	entries := loadPortfolio(t)
	for i := range entries {
		if entries[i].Quick && entries[i].Expect == "solve" {
			return &entries[i]
		}
	}
	t.Fatal("no quick solvable portfolio instance")
	return nil
}

// TestTraceTimelineCoversSolve pins the flight-recorder acceptance
// criterion at the solver level: on a portfolio instance, the presolve +
// probe spans of a traced sequential solve must account for the solve's
// wall-clock time to within 10% (the two span families partition the
// pipeline; everything between Solve entry and return is inside one of
// them except loop bookkeeping).
func TestTraceTimelineCoversSolve(t *testing.T) {
	e := quickSolvableEntry(t)
	in := Input{
		Graph: e.graph, Board: e.board,
		NoSymmetryBreaking: e.NoSymmetry,
		DisableWarmStart:   e.NoWarm,
		MaxNodes:           e.MaxNodes,
	}

	// One untraced warm-up solve so page faults and lazy init don't land
	// inside the measured window but outside any span.
	if _, err := Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(1 << 12)
	in.Trace = rec
	start := time.Now()
	part, err := Solve(context.Background(), in)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	tr := rec.Trace()
	if tr.Dropped != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped)
	}
	var timeline int64
	phases := map[string]bool{}
	for _, sp := range tr.Spans {
		phases[sp.Phase] = true
		if sp.Phase == obs.PhasePresolve || sp.Phase == obs.PhaseProbe {
			timeline += sp.DurNS
		}
	}
	for _, want := range []string{obs.PhasePresolve, obs.PhaseProbe,
		obs.PhaseModelBuild, obs.PhaseRootCut, obs.PhaseSearch} {
		if !phases[want] {
			t.Errorf("trace missing a %q span; spans = %+v", want, tr.Spans)
		}
	}
	if ratio := float64(timeline) / float64(elapsed); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("timeline sum %v vs wall %v (ratio %.3f), want within 10%%",
			time.Duration(timeline), elapsed, ratio)
	}

	// The LP kernel counters snapshotted at the search-span boundary must
	// agree with the solve's reported stats.
	if got := tr.Counters[obs.CounterLPRefactor]; got < int64(part.Stats.Solver.Refactorizations) {
		t.Errorf("traced refactorizations %d < reported %d", got, part.Stats.Solver.Refactorizations)
	}
	if tr.Counters[obs.CounterLPPivots] <= 0 {
		t.Errorf("traced lp_pivots = %d, want > 0", tr.Counters[obs.CounterLPPivots])
	}
	if tr.Counters[obs.CounterNodes] < int64(part.Stats.Nodes) {
		t.Errorf("traced bb_nodes %d < reported %d", tr.Counters[obs.CounterNodes], part.Stats.Nodes)
	}
}

// TestTraceSpeculativeParallel drives the recorder through the concurrent
// path that remains inside one solve — a race rival recording its probe,
// build and search spans beside the row search — so the CI race lane
// exercises those recording sites under -race.
func TestTraceSpeculativeParallel(t *testing.T) {
	e := portfolioFile(t, "chain9.json")
	rec := obs.NewRecorder(1 << 12)
	in := Input{
		Graph: e.graph, Board: e.board, Trace: rec,
		NoSymmetryBreaking: e.NoSymmetry, DisableWarmStart: e.NoWarm,
	}
	untraced, err := Solve(context.Background(), Input{Graph: e.graph, Board: e.board,
		NoSymmetryBreaking: e.NoSymmetry, DisableWarmStart: e.NoWarm})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Tracing must not perturb the answer.
	if part.N != untraced.N || part.Latency != untraced.Latency {
		t.Fatalf("traced solve N=%d lat=%g, untraced N=%d lat=%g",
			part.N, part.Latency, untraced.N, untraced.Latency)
	}
	if part.Stats.RaceRivals == 0 {
		t.Fatal("no probe started a rival: the solve recorded from one goroutine only")
	}
	tr := rec.Trace()
	var probes int
	for _, sp := range tr.Spans {
		if sp.Phase == obs.PhaseProbe {
			probes++
		}
	}
	if probes == 0 {
		t.Fatalf("no probe spans; spans = %+v", tr.Spans)
	}
}
