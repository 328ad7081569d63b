package tempart

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
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
		DisableWarmStart: e.NoWarm, Trace: rec, testRival: cancel})
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
// paper's DCT 2 ms in. Its pricing DFS exhausts the step budget on every
// call (wide independent layers), so only the pricer's own cancellation
// poll can stop it before the call ends.
func TestPatternPricerHonoursCancel(t *testing.T) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	time.AfterFunc(2*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	_, err = Solve(ctx, Input{Graph: dct, Board: arch.PaperXC4044Board(), Formulation: FormulationPatterns})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	if lag := time.Since(cancelled); lag > 25*time.Millisecond {
		t.Fatalf("solve returned %v after its cancel", lag)
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
