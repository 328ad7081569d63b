package tempart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/obs"
)

// The default formulation hands a relax-N probe off from the row search to
// the pattern master when the rows root leaves it open (handOffForN).
// These tests pin the hand-off's contract: the same optima as a pinned
// model, no hand-off on probes the rows root closes, repeatable counters,
// and a clean cancel. The trace counters and Stats field keep the names
// race_rivals and RaceRivals from the formulation race the hand-off
// replaced.

// TestRaceQuickPortfolio solves every quick portfolio instance the
// manifest expects to close under the default formulation: each must reach
// its pinned optimum, whichever model supplies the proof.
func TestRaceQuickPortfolio(t *testing.T) {
	for _, e := range loadPortfolio(t) {
		if !e.Quick || e.Expect != "solve" {
			continue
		}
		t.Run(strings.TrimSuffix(e.File, ".json"), func(t *testing.T) {
			e.Formulation = ""
			p, err := runEntry(&e)
			if err != nil {
				t.Fatal(err)
			}
			if p.N != e.WantN || !p.Optimal {
				t.Fatalf("N=%d optimal=%v (won by %s), want %d/true", p.N, p.Optimal, p.Stats.Formulation, e.WantN)
			}
			if err := CheckFeasible(e.graph, e.board, p.Assign, p.N); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRaceRootClosingProbesStartNoRival pins the trigger: the DCT case
// study and the packing and FIR-bank instances close every probe at the
// rows root, so the default solve is the row search alone.
func TestRaceRootClosingProbesStartNoRival(t *testing.T) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]Input{"dct": {Graph: dct, Board: arch.PaperXC4044Board()}}
	for _, e := range loadPortfolio(t) {
		switch e.File {
		case "pack12.json", "pack15.json", "pack18.json", "fir8.json":
			ins[e.File] = Input{Graph: e.graph, Board: e.board, MaxPartitions: e.MaxParts,
				NoSymmetryBreaking: e.NoSymmetry, DisableWarmStart: e.NoWarm, MaxNodes: e.MaxNodes}
		}
	}
	if len(ins) != 5 {
		t.Fatalf("found %d of 5 instances", len(ins))
	}
	for name, in := range ins {
		p, err := Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !p.Optimal || p.Stats.Formulation != FormulationRows || p.Stats.RaceRivals != 0 {
			t.Errorf("%s: optimal=%v formulation=%q rivals=%d, want true/rows/0",
				name, p.Optimal, p.Stats.Formulation, p.Stats.RaceRivals)
		}
	}
}

// TestRaceMatchesRowsOnRandomDAGs runs the brute-force property set's
// random small DAGs under the default and under pinned rows: N and latency
// must agree, and some seeds must actually hand off.
func TestRaceMatchesRowsOnRandomDAGs(t *testing.T) {
	rivals := 0
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		in := Input{Graph: g, Board: board(100, 50, 1000), MaxPartitions: 4}
		race, rerr := Solve(context.Background(), in)
		in.Formulation = FormulationRows
		rows, err := Solve(context.Background(), in)
		if (rerr == nil) != (err == nil) {
			t.Fatalf("seed %d: race err %v, rows err %v", seed, rerr, err)
		}
		if err != nil {
			continue
		}
		if race.N != rows.N || math.Abs(race.Latency-rows.Latency) > 1e-6 || !race.Optimal {
			t.Fatalf("seed %d: race N=%d lat=%g optimal=%v (%s), rows N=%d lat=%g",
				seed, race.N, race.Latency, race.Optimal, race.Stats.Formulation, rows.N, rows.Latency)
		}
		rivals += race.Stats.RaceRivals
	}
	if rivals == 0 {
		t.Fatal("no seed started a rival: the set no longer exercises the race")
	}
}

// TestRaceCancelDuringHandOff cancels a default solve at its first
// hand-off, before the pattern tree's build: the build stops, the row
// search stops at its next limit check, and the solve reports
// context.Canceled.
func TestRaceCancelDuringHandOff(t *testing.T) {
	e := portfolioFile(t, "chain9.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder(0)
	_, err := Solve(ctx, Input{Graph: e.graph, Board: e.board, NoSymmetryBreaking: e.NoSymmetry,
		DisableWarmStart: e.NoWarm, Trace: rec, testHandOff: func(ctx context.Context) context.Context {
			cancel()
			return ctx
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hand-off returned %v, want context.Canceled", err)
	}
	if n := rec.Trace().Counters[obs.CounterRaceRivals]; n != 1 {
		t.Fatalf("race_rivals = %d, want 1", n)
	}
}

// TestRaceTraceShowsRival pins the hand-off's timeline: it runs inside the
// probe's one span, and the trace counts it.
func TestRaceTraceShowsRival(t *testing.T) {
	e := portfolioFile(t, "chain9.json")
	rec := obs.NewRecorder(0)
	p, err := Solve(context.Background(), Input{Graph: e.graph, Board: e.board,
		NoSymmetryBreaking: e.NoSymmetry, DisableWarmStart: e.NoWarm, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if got := tr.Counters[obs.CounterRaceRivals]; got != int64(p.Stats.RaceRivals) || got == 0 {
		t.Fatalf("trace race_rivals = %d, stats %d, want equal and nonzero", got, p.Stats.RaceRivals)
	}
	probes := 0
	for _, sp := range tr.Spans {
		if sp.Phase == obs.PhaseProbe && sp.N == int64(p.N) {
			probes++
		}
	}
	if probes != 1 {
		t.Fatalf("%d probe spans at N=%d, want one: the hand-off runs inside the probe", probes, p.N)
	}
	if won := tr.Counters[obs.CounterRaceRivalWins] > 0; won != (p.Stats.Formulation == FormulationPatterns) {
		t.Fatalf("race_rival_wins = %d but the answer came from %s",
			tr.Counters[obs.CounterRaceRivalWins], p.Stats.Formulation)
	}
}

// TestDefaultSolveDeterministic: a default solve runs on one goroutine, so
// repeating it repeats its search, counter for counter, whichever model
// answers. The instances are the chain and mixed-packing fixtures and
// fresh 9-task chains, which hand off at most probes.
func TestDefaultSolveDeterministic(t *testing.T) {
	ins := map[string]Input{}
	for _, file := range []string{"chain9.json", "chain10.json", "pack2638.json"} {
		e := portfolioFile(t, file)
		e.Formulation = ""
		ins[file] = entryInput(e)
	}
	for seed := int64(1); seed <= 8; seed++ {
		ins[fmt.Sprintf("chain9 seed %d", seed)] = Input{
			Graph: portfolioChain(rand.New(rand.NewSource(seed)), 9), Board: board(100, 1024, 1e6)}
	}
	type counters struct {
		nodes, lpIterations, pivots int
		formulation                 string
		rivals                      int
	}
	handedOff := 0
	for name, in := range ins {
		var first counters
		for run := 0; run < 3; run++ {
			p, err := Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := p.Stats
			got := counters{s.Nodes, s.LPIterations, s.Solver.Pivots, s.Formulation, s.RaceRivals}
			if run == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: run %d counters %+v, run 0 %+v", name, run, got, first)
			}
		}
		handedOff += first.rivals
	}
	if handedOff == 0 {
		t.Fatal("no solve handed off: the set no longer exercises the hand-off")
	}
}

// TestPatternPricerHonoursCancel cancels an explicit-patterns solve of the
// paper's DCT 2 ms into its first searched probe. That probe is building
// the solve's pattern tree, and the DCT's wide independent layers take the
// build to the tree's node cap, so only the build's own cancellation poll
// can stop it before it ends.
func TestPatternPricerHonoursCancel(t *testing.T) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		once      sync.Once
		cancelled time.Time
	)
	probe := func() {
		once.Do(func() {
			time.AfterFunc(2*time.Millisecond, func() {
				cancelled = time.Now()
				cancel()
			})
		})
	}
	_, err = Solve(ctx, Input{Graph: dct, Board: arch.PaperXC4044Board(), Formulation: FormulationPatterns, testProbe: probe})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	if lag := time.Since(cancelled); lag > 25*time.Millisecond {
		t.Fatalf("solve returned %v after its cancel", lag)
	}
}

// TestPinnedPatternsPastTheTreeRunRows: the paper's DCT and fir8 have
// pattern spaces past the tree's cap, so a pinned "patterns" solve runs
// the row model and returns its proven optimum in well under the wall
// bound, also under the race detector.
func TestPinnedPatternsPastTheTreeRunRows(t *testing.T) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	fir8 := portfolioFile(t, "fir8.json")
	for _, c := range []struct {
		name    string
		in      Input
		wantN   int
		wantLat float64
	}{
		{"dct", Input{Graph: dct, Board: arch.PaperXC4044Board()}, 3, 300001330},
		{"fir8", Input{Graph: fir8.graph, Board: fir8.board}, 2, 200002780},
	} {
		c.in.Formulation = FormulationPatterns
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		p, err := Solve(ctx, c.in)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.N != c.wantN || p.Latency != c.wantLat || !p.Optimal || !p.BoundTrusted || p.Stats.Formulation != FormulationRows {
			t.Errorf("%s: N=%d latency=%v optimal=%v trusted=%v formulation=%q, want %d/%v/true/true/rows",
				c.name, p.N, p.Latency, p.Optimal, p.BoundTrusted, p.Stats.Formulation, c.wantN, c.wantLat)
		}
	}
}

// raceTwice is a small random DAG whose default solve hands off at two
// probes (N=2 and N=3): the row root leaves both open.
func raceTwice() Input {
	return Input{Graph: randomGraph(rand.New(rand.NewSource(12))), Board: board(100, 50, 1000), MaxPartitions: 4}
}

// raceAgainstRows solves in under the default formulation and under pinned
// rows, checks that the two agree, and returns the default solve and its
// trace.
func raceAgainstRows(t *testing.T, in Input) (*Partitioning, *obs.Trace) {
	t.Helper()
	rows := in
	rows.Formulation = FormulationRows
	want, err := Solve(context.Background(), rows)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	in.Trace = rec
	p, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != want.N || p.Latency != want.Latency || !p.Optimal {
		t.Fatalf("race N=%d latency=%v optimal=%v, rows N=%d latency=%v",
			p.N, p.Latency, p.Optimal, want.N, want.Latency)
	}
	return p, rec.Trace()
}

// TestRaceNoRivalAfterTreeOverflow caps the pattern tree at one node, so
// the first hand-off's build overflows: that hand-off is counted, the rows
// answer stands, and no later probe hands off.
func TestRaceNoRivalAfterTreeOverflow(t *testing.T) {
	in := raceTwice()
	if _, tr := raceAgainstRows(t, in); tr.Counters[obs.CounterRaceRivals] != 2 {
		t.Fatalf("uncapped solve handed off %d probes, want 2", tr.Counters[obs.CounterRaceRivals])
	}
	in.testMaxTreeNodes = 1
	p, tr := raceAgainstRows(t, in)
	if rivals := tr.Counters[obs.CounterRaceRivals]; rivals != 1 || p.Stats.RaceRivals != 1 || p.Stats.Formulation != FormulationRows {
		t.Fatalf("capped race: race_rivals=%d stats=%d formulation=%q, want 1/1/rows",
			rivals, p.Stats.RaceRivals, p.Stats.Formulation)
	}
}

// TestRaceCancelledBuildLeavesTreeUnknown stops the first hand-off's tree
// build through the hand-off's own context, so the build ends at its first
// poll while the solve goes on. A stopped build says nothing about the
// tree's size: the second probe must hand off again and build anew, so its
// N holds three model-build spans (the row model, the tree and the pattern
// master) and the first probe's N two.
func TestRaceCancelledBuildLeavesTreeUnknown(t *testing.T) {
	in := raceTwice()
	done := make(chan struct{})
	close(done)
	if newPatternPricer(newPresolve(in.Graph, in.Board)).buildTree(done, maxTreeNodes) {
		t.Fatal("a build with its done channel closed ran to completion")
	}
	handOffs := 0
	in.testHandOff = func(ctx context.Context) context.Context {
		if handOffs++; handOffs > 1 {
			return ctx
		}
		stopped, stop := context.WithCancel(ctx)
		stop()
		return stopped
	}
	p, tr := raceAgainstRows(t, in)
	if rivals := tr.Counters[obs.CounterRaceRivals]; rivals != 2 || p.Stats.RaceRivals != 2 {
		t.Fatalf("race_rivals=%d stats=%d, want 2/2", rivals, p.Stats.RaceRivals)
	}
	builds := map[int64]int{}
	for _, sp := range tr.Spans {
		if sp.Phase == obs.PhaseModelBuild {
			builds[sp.N]++
		}
	}
	if builds[2] != 2 || builds[3] != 3 {
		t.Fatalf("model-build spans per N %v, want 2 at N=2 and 3 at N=3", builds)
	}
}

// portfolioFile returns the first manifest row of a fixture file.
func portfolioFile(t *testing.T, file string) *portfolioEntry {
	t.Helper()
	for _, e := range loadPortfolio(t) {
		if e.File == file {
			return &e
		}
	}
	t.Fatalf("portfolio manifest has no entry %q", file)
	return nil
}
