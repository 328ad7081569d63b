package tempart

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/obs"
)

// The default formulation races the two models per relax-N probe
// (raceForN). These tests pin the race's contract: the same optima as a
// pinned model, no rival on probes the rows root closes, and a clean
// cancel. None of them skip under -short, so the race lane runs them.

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
// must agree, and some seeds must actually race.
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

// TestRaceCancelJoinsRival cancels a default solve from inside its rival,
// once both attempts are live: the solve reports context.Canceled, and no
// goroutine outlives it.
func TestRaceCancelJoinsRival(t *testing.T) {
	e := portfolioFile(t, "chain9.json")
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.NewRecorder(0)
	_, err := Solve(ctx, Input{Graph: e.graph, Board: e.board, NoSymmetryBreaking: e.NoSymmetry,
		DisableWarmStart: e.NoWarm, Trace: rec, testRival: func(context.Context) { cancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled race returned %v, want context.Canceled", err)
	}
	if n := rec.Trace().Counters[obs.CounterRaceRivals]; n != 1 {
		t.Fatalf("race_rivals = %d, want 1", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the solve, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRaceTraceShowsRival pins the race's timeline: the rival runs under
// its own probe span for the same N, and the trace counts the launch.
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
	if probes != 2 {
		t.Fatalf("%d probe spans at N=%d, want the rows probe and its rival", probes, p.N)
	}
	if won := tr.Counters[obs.CounterRaceRivalWins] > 0; won != (p.Stats.Formulation == FormulationPatterns) {
		t.Fatalf("race_rival_wins = %d but the answer came from %s",
			tr.Counters[obs.CounterRaceRivalWins], p.Stats.Formulation)
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

// raceTwice is a small random DAG whose default solve starts a rival at two
// probes (N=2 and N=3): the row root leaves both open.
func raceTwice() Input {
	return Input{Graph: randomGraph(rand.New(rand.NewSource(12))), Board: board(100, 50, 1000), MaxPartitions: 4}
}

// raceAgainstRows solves in under the default formulation and under pinned
// rows, checks that the two agree, and returns the default solve and its
// trace's race_rivals count.
func raceAgainstRows(t *testing.T, in Input) (*Partitioning, int64) {
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
	return p, rec.Trace().Counters[obs.CounterRaceRivals]
}

// TestRaceNoRivalAfterTreeOverflow caps the pattern tree at one node, so
// the first rival's build overflows: that rival is counted, its verdict
// leaves the rows answer standing, and no later probe starts a rival.
func TestRaceNoRivalAfterTreeOverflow(t *testing.T) {
	in := raceTwice()
	if _, rivals := raceAgainstRows(t, in); rivals != 2 {
		t.Fatalf("uncapped race started %d rivals, want 2", rivals)
	}
	in.testMaxTreeNodes = 1
	p, rivals := raceAgainstRows(t, in)
	if rivals != 1 || p.Stats.RaceRivals != 1 || p.Stats.Formulation != FormulationRows {
		t.Fatalf("capped race: race_rivals=%d stats=%d formulation=%q, want 1/1/rows",
			rivals, p.Stats.RaceRivals, p.Stats.Formulation)
	}
}

// TestRaceCancelledBuildLeavesTreeUnknown holds each rival until the row
// search has won its probe, so the rival's tree build starts cancelled and
// stops at its first poll. A cancelled build says nothing about the tree's
// size: the next probe must start a rival again, which builds anew.
func TestRaceCancelledBuildLeavesTreeUnknown(t *testing.T) {
	in := raceTwice()
	done := make(chan struct{})
	close(done)
	if newPatternPricer(newPresolve(in.Graph, in.Board)).buildTree(done, maxTreeNodes) {
		t.Fatal("a build with its done channel closed ran to completion")
	}
	in.testRival = func(race context.Context) { <-race.Done() }
	p, rivals := raceAgainstRows(t, in)
	if rivals != 2 || p.Stats.RaceRivals != 2 || p.Stats.Formulation != FormulationRows {
		t.Fatalf("race_rivals=%d stats=%d formulation=%q, want 2/2/rows",
			rivals, p.Stats.RaceRivals, p.Stats.Formulation)
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
