package tempart

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/dfg"
)

// The hard-instance portfolio (ROADMAP open item): a committed corpus of
// the two regimes that stay exponential after the presolve and cut work —
// near-capacity packing infeasibility and FIR-bank-shaped instances — so
// pruning/cut changes have a durable yardstick. testdata/portfolio/gen.go
// regenerates the graphs; manifest.json pins board parameters, solver
// knobs, and expectations per instance.

// portfolioEntry is one hydrated manifest row: the shared schema
// (tempart.PortfolioInstance, also decoded by the root-package pack
// benchmarks) plus the loaded graph and board.
type portfolioEntry struct {
	PortfolioInstance

	graph *dfg.Graph
	board arch.Board
}

// loadPortfolio reads the manifest and its graphs.
func loadPortfolio(tb testing.TB) []portfolioEntry {
	tb.Helper()
	_, entries := loadPortfolioHydrated(tb)
	return entries
}

func loadPortfolioHydrated(tb testing.TB) (*PortfolioManifest, []portfolioEntry) {
	tb.Helper()
	dir := filepath.Join("testdata", "portfolio")
	m, err := LoadPortfolioManifest(dir)
	if err != nil {
		tb.Fatal(err)
	}
	entries := make([]portfolioEntry, len(m.Instances))
	for i, inst := range m.Instances {
		e := &entries[i]
		e.PortfolioInstance = inst
		data, err := os.ReadFile(filepath.Join(dir, inst.File))
		if err != nil {
			tb.Fatal(err)
		}
		var g dfg.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			tb.Fatalf("%s: %v", inst.File, err)
		}
		e.graph = &g
		e.board = arch.SmallTestBoard()
		e.board.FPGA.CLBs = inst.CLBs
		e.board.Memory.Words = inst.MemWords
		e.board.FPGA.ReconfigTime = float64(inst.ReconfigNS)
	}
	return m, entries
}

// TestPortfolioRegenDeterminism pins the corpus to its generator: the
// committed fixtures must be byte-identical to what PortfolioGraphs
// produces for the manifest's gen_seed, so `go run ./internal/tempart/
// testdata/portfolio` is always a no-op on a clean tree and a fixture can
// never drift from the generator that documents it.
func TestPortfolioRegenDeterminism(t *testing.T) {
	m, _ := loadPortfolioHydrated(t)
	regen := map[string][]byte{}
	for _, g := range PortfolioGraphs(m.GenSeed) {
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		regen[g.Name+".json"] = append(data, '\n')
	}
	for _, e := range m.Instances {
		want, ok := regen[e.File]
		if !ok {
			t.Errorf("%s: not produced by PortfolioGraphs(%d)", e.File, m.GenSeed)
			continue
		}
		got, err := os.ReadFile(filepath.Join("testdata", "portfolio", e.File))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed fixture differs from regeneration at seed %d — run `go run ./internal/tempart/testdata/portfolio`",
				e.File, m.GenSeed)
		}
	}
}

// runEntry solves one portfolio instance under its manifest knobs.
func runEntry(e *portfolioEntry) (*Partitioning, error) {
	return Solve(context.Background(), entryInput(e))
}

// entryInput is the solver input of one portfolio instance.
func entryInput(e *portfolioEntry) Input {
	return Input{
		Graph:              e.graph,
		Board:              e.board,
		MaxPartitions:      e.MaxParts,
		Formulation:        e.Formulation,
		NoSymmetryBreaking: e.NoSymmetry,
		DisableWarmStart:   e.NoWarm,
		MaxNodes:           e.MaxNodes,
	}
}

// entryName is the subtest name of a manifest row: the fixture file stem,
// suffixed with the formulation when it is not the row model every other
// row pins, so one fixture can appear under several backends without
// colliding.
func entryName(e *portfolioEntry) string {
	name := strings.TrimSuffix(e.File, ".json")
	if e.Formulation != "" && e.Formulation != FormulationRows {
		name += "-" + e.Formulation
	}
	return name
}

// TestHardPortfolio pins every quick instance's expected outcome: solvable
// instances reach their known optimum partition count with a feasible
// assignment, FIR shapes within the root-cut node budget, and the pack
// instances — which blew their 2000-node budgets before the
// infeasibility-proof engine — within their manifest max_nodes, with
// dual-bound fathoms nonzero where the manifest demands them. An entry may still declare expect "limit" for a
// deliberately budget-bound yardstick.
func TestHardPortfolio(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio searches are sequential throughput yardsticks; skipped under -short (the chaos lane)")
	}
	entries := loadPortfolio(t)
	for i := range entries {
		e := entries[i]
		if !e.Quick {
			continue // stress-only instances run via BenchmarkHardPortfolio (make stress)
		}
		t.Run(entryName(&e), func(t *testing.T) {
			p, err := runEntry(&e)
			switch e.Expect {
			case "limit":
				if err == nil {
					t.Fatalf("expected the node budget (%d) to bind, but solved N=%d in %d nodes — tighten the manifest",
						e.MaxNodes, p.N, p.Stats.Nodes)
				}
				if !strings.Contains(err.Error(), "search limit") {
					t.Fatalf("expected a search-limit error, got: %v", err)
				}
			case "gap":
				if err != nil {
					t.Fatal(err)
				}
				if p.N != e.WantN {
					t.Errorf("N=%d, want %d", p.N, e.WantN)
				}
				if p.Optimal {
					t.Errorf("proved optimal in %d nodes — this instance is pinned as cannot-finish; move it to expect \"solve\"", p.Stats.Nodes)
				}
				if err := CheckFeasible(e.graph, e.board, p.Assign, p.N); err != nil {
					t.Error(err)
				}
			case "solve":
				if err != nil {
					t.Fatal(err)
				}
				if p.N != e.WantN {
					t.Errorf("N=%d, want %d", p.N, e.WantN)
				}
				if !p.Optimal {
					t.Error("not proven optimal")
				}
				if err := CheckFeasible(e.graph, e.board, p.Assign, p.N); err != nil {
					t.Error(err)
				}
				if e.MaxBBNodes > 0 && p.Stats.Nodes > e.MaxBBNodes {
					t.Errorf("explored %d nodes, budget %d (cut engine regression)", p.Stats.Nodes, e.MaxBBNodes)
				}
				if e.ExpectProof && p.Stats.DualBoundFathoms == 0 {
					t.Errorf("proof-regime instance closed with zero dual-bound fathoms (stats %+v) — the infeasibility-proof engine did not engage", p.Stats)
				}
			default:
				t.Fatalf("manifest: unknown expect %q", e.Expect)
			}
		})
	}
}

// TestPortfolioProofTelemetry pins the relax-N loop's telemetry on every
// quick solvable instance under its manifest formulation: how many probes
// ran, how many counts the packing bounds and the greedy clamp rejected,
// and what each proof engine contributed. These counters are
// deterministic; a change to the loop or to a proof engine that moves
// one must update this table deliberately.
func TestPortfolioProofTelemetry(t *testing.T) {
	type telemetry struct {
		relaxSteps, nProbesPruned, dualFathoms, cgCuts, raceRivals int
	}
	want := map[string]telemetry{
		"pack12":                  {2, 8, 1, 12, 0},
		"pack15":                  {3, 8, 2, 16, 0},
		"pack18":                  {3, 8, 2, 18, 0},
		"chain9":                  {2, 8, 1, 20, 0},
		"chain10":                 {2, 8, 1, 30, 0},
		"fir6":                    {1, 8, 0, 4, 0},
		"fir8":                    {1, 8, 0, 8, 0},
		"pack2638-patterns":       {2, 5, 0, 0, 0},
		"chainblocks102-patterns": {16, 24, 15, 0, 0},
	}
	entries := loadPortfolio(t)
	seen := 0
	for i := range entries {
		e := entries[i]
		if !e.Quick || e.Expect != "solve" {
			continue
		}
		seen++
		name := entryName(&e)
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatal("no pinned telemetry for this instance: add a row")
			}
			p, err := runEntry(&e)
			if err != nil {
				t.Fatal(err)
			}
			s := p.Stats
			got := telemetry{s.RelaxSteps, s.NProbesPruned, s.DualBoundFathoms, s.CGCuts, s.RaceRivals}
			if got != w {
				t.Errorf("telemetry {relax, pruned, dual, cg, rivals} = %v, want %v", got, w)
			}
		})
	}
	if seen != len(want) {
		t.Errorf("%d quick solvable instances, %d pinned rows", seen, len(want))
	}
}

// BenchmarkHardPortfolio is the stress yardstick (`make stress`): every
// portfolio instance end to end, reporting aggregate search effort. The
// deterministic counters (nodes, cuts) make pruning/cut wins visible run
// over run even when wall-clock is noisy.
func BenchmarkHardPortfolio(b *testing.B) {
	entries := loadPortfolio(b)
	var nodes, cuts, rounds, pruned int
	start := time.Now()
	var dualFathoms int
	for i := 0; i < b.N; i++ {
		nodes, cuts, rounds, pruned, dualFathoms = 0, 0, 0, 0, 0
		for j := range entries {
			e := entries[j]
			p, err := runEntry(&e)
			if err != nil {
				if e.Expect != "limit" {
					b.Fatalf("%s: %v", e.File, err)
				}
				continue
			}
			if e.Expect == "limit" {
				b.Fatalf("%s: expected the node budget to bind, solved N=%d", e.File, p.N)
			}
			if e.WantN > 0 && p.N != e.WantN {
				b.Fatalf("%s: N=%d, want %d", e.File, p.N, e.WantN)
			}
			nodes += p.Stats.Nodes
			cuts += p.Stats.CutsAdded
			rounds += p.Stats.SeparationRounds
			pruned += p.Stats.PrunedCombinatorial
			dualFathoms += p.Stats.DualBoundFathoms
		}
	}
	b.ReportMetric(float64(len(entries)), "instances")
	b.ReportMetric(float64(nodes), "portfolio-nodes")
	b.ReportMetric(float64(cuts), "portfolio-cuts-added")
	b.ReportMetric(float64(rounds), "portfolio-separation-rounds")
	b.ReportMetric(float64(pruned), "portfolio-pruned-combinatorial")
	b.ReportMetric(float64(dualFathoms), "portfolio-dual-bound-fathoms")
	b.ReportMetric(time.Since(start).Seconds()/float64(b.N), "sec/pass")
}
