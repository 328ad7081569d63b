package tempart

import (
	"context"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/hls"
	"repro/internal/jpeg"
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

// TestTraceHandOffTimeline pins the timeline of a traced default chain9
// solve, whose open probes hand off to the pattern master: tracing does
// not move the answer, the probe spans do not overlap, every model-build
// and search span (the pattern master's too) lies inside the probe span of
// its N, and no two search spans overlap, so the row search's span stops
// while the pattern master runs and the phase totals add up.
func TestTraceHandOffTimeline(t *testing.T) {
	e := portfolioFile(t, "chain9.json")
	in := Input{Graph: e.graph, Board: e.board, NoSymmetryBreaking: e.NoSymmetry, DisableWarmStart: e.NoWarm}
	untraced, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 12)
	in.Trace = rec
	part, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if part.N != untraced.N || part.Latency != untraced.Latency {
		t.Fatalf("traced solve N=%d lat=%g, untraced N=%d lat=%g",
			part.N, part.Latency, untraced.N, untraced.Latency)
	}
	if part.Stats.RaceRivals == 0 || part.Stats.Formulation != FormulationPatterns {
		t.Fatalf("rivals=%d formulation=%q, want the pattern master's answer through a hand-off",
			part.Stats.RaceRivals, part.Stats.Formulation)
	}
	tr := rec.Trace()
	if tr.Dropped != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped)
	}
	end := func(sp obs.TraceSpan) int64 { return sp.StartNS + sp.DurNS }
	probes := map[int64]obs.TraceSpan{}
	last := map[string]obs.TraceSpan{}
	builds := map[int64]int{}
	for _, sp := range tr.Spans { // sorted by start
		switch sp.Phase {
		case obs.PhaseProbe, obs.PhaseSearch:
			if prev, ok := last[sp.Phase]; ok && sp.StartNS < end(prev) {
				t.Errorf("%s span at N=%d [%d, %d) overlaps the one at N=%d [%d, %d)",
					sp.Phase, sp.N, sp.StartNS, end(sp), prev.N, prev.StartNS, end(prev))
			}
			last[sp.Phase] = sp
		}
		if sp.Phase == obs.PhaseProbe {
			probes[sp.N] = sp
		}
	}
	for _, sp := range tr.Spans {
		if sp.Phase != obs.PhaseModelBuild && sp.Phase != obs.PhaseSearch {
			continue
		}
		if sp.Phase == obs.PhaseModelBuild {
			builds[sp.N]++
		}
		probe, ok := probes[sp.N]
		if !ok || sp.StartNS < probe.StartNS || end(sp) > end(probe) {
			t.Errorf("%s span at N=%d [%d, %d) outside its probe span %+v", sp.Phase, sp.N, sp.StartNS, end(sp), probe)
		}
	}
	if builds[int64(part.N)] < 2 {
		t.Errorf("model-build spans per N %v: the winning probe recorded no pattern-master build", builds)
	}
}

// TestTraceShowsPatternTreeBuild: a pinned-patterns solve of the paper's
// DCT builds its pattern tree on the first probe, finds it past the cap,
// and answers every probe through the row model. The build runs under a
// model-build span of its own, so the trace holds one model-build span per
// probe plus the build's, for the first probe's N, and the build's time is
// not left as probe self time.
func TestTraceShowsPatternTreeBuild(t *testing.T) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 12)
	p, err := Solve(context.Background(), Input{Graph: dct, Board: arch.PaperXC4044Board(),
		Formulation: FormulationPatterns, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Formulation != FormulationRows {
		t.Fatalf("formulation %q, want the row model past the tree's cap", p.Stats.Formulation)
	}
	tr := rec.Trace()
	if tr.Dropped != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped)
	}
	probes, builds := 0, map[int64]int{}
	firstN := int64(-1)
	for _, sp := range tr.Spans {
		switch sp.Phase {
		case obs.PhaseProbe:
			probes++
			if firstN < 0 || sp.N < firstN {
				firstN = sp.N
			}
		case obs.PhaseModelBuild:
			builds[sp.N]++
		}
	}
	total := 0
	for _, n := range builds {
		total += n
	}
	if probes == 0 || total != probes+1 || builds[firstN] != 2 {
		t.Fatalf("%d probe spans and model-build spans %v, want one per probe plus the tree build at N=%d",
			probes, builds, firstN)
	}
}
