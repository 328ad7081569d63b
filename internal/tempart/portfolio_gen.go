package tempart

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dfg"
)

// This file is the hard-instance portfolio generator, shared by the
// regeneration command (testdata/portfolio/gen.go) and the determinism
// test: the committed corpus must be byte-identical to what
// PortfolioGraphs produces for the gen_seed pinned in manifest.json, so a
// fixture can never silently drift from its generator.
//
// The corpus covers the regimes the solver's proof machinery is graded on:
//
//   - packNN: near-capacity packing instances — items drawn from
//     {34,35,36} CLBs on a 100-CLB board, so every pair fits a partition
//     and every triple overflows. The area bound ⌈Σ/100⌉ undershoots the
//     integral minimum ⌈n/2⌉; before PR 5 the search enumerated an
//     exponential frontier against the layer-cake floor, now the CG
//     cardinality engine and the bin-packing dual bound close them in a
//     handful of nodes (the manifest budgets pin that).
//   - chainNN: the same near-capacity items arranged in 3-task chains with
//     mixed delays — the regime where the temporal-order and cover
//     separators bite; solved to optimality.
//   - firN: the FIR-bank shape of the headline bench with pinned synthesis
//     estimates — the boundary chain-area cuts must keep closing these at
//     the root.
//   - pack2638: the mixed-cardinality packing regime (26/38-CLB items whose
//     optimal cover mixes pattern sizes) — the row model's worst case, and
//     the branch-and-price formulation's headline win.
//   - chainblocksNNN: the ≥100-task chain-of-blocks matching instance the
//     pattern master proves optimal in milliseconds while the row model
//     returns an unproven incumbent ("gap") under the same budget.
type portfolioSizes struct{ rng *rand.Rand }

func (ps portfolioSizes) clbs() int { return 34 + ps.rng.Intn(3) }

func portfolioPack(rng *rand.Rand, n int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("pack%d", n))
	ps := portfolioSizes{rng}
	for i := 0; i < n; i++ {
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("t%02d", i), Type: "T",
			Resources: ps.clbs(), Delay: 100, ReadEnv: 1, WriteEnv: 1})
	}
	return g
}

func portfolioChain(rng *rand.Rand, n int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("chain%d", n))
	ps := portfolioSizes{rng}
	delays := [3]float64{80, 100, 120}
	for i := 0; i < n; i++ {
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("t%02d", i), Type: "T",
			Resources: ps.clbs(), Delay: delays[rng.Intn(3)], ReadEnv: 1, WriteEnv: 1})
	}
	for i := 0; i+1 < n; i += 3 {
		g.MustAddEdge(fmt.Sprintf("t%02d", i), fmt.Sprintf("t%02d", i+1), 1)
		if i+2 < n {
			g.MustAddEdge(fmt.Sprintf("t%02d", i+1), fmt.Sprintf("t%02d", i+2), 1)
		}
	}
	return g
}

// portfolioMix2638 is the mixed-cardinality packing regime: n independent
// tasks alternating 26 and 38 CLBs on a 100-CLB board. Two 38s fill a
// partition past the point where a 26 fits, so the optimal cover mixes
// pattern cardinalities — (26,26,38) triples and (38,38) pairs — and the
// integral minimum (9 for n=24) sits strictly above every combinatorial
// floor the presolve computes (area 8, size-threshold cardinality 8). The
// row formulation crawls through an exponential symmetric frontier here;
// the pattern master's set-partitioning LP bound is exactly the optimum, so
// branch-and-price closes the instance in a couple of hundred nodes.
func portfolioMix2638(n int) *dfg.Graph {
	g := dfg.New("pack2638")
	for i := 0; i < n; i++ {
		r := 26
		if i%2 == 1 {
			r = 38
		}
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("t%02d", i), Type: "T",
			Resources: r, Delay: 100, ReadEnv: 1, WriteEnv: 1})
	}
	return g
}

// portfolioChainBlocks is the ≥100-task regime opened by branch-and-price:
// nBlocks three-task chains with CLB sizes 34/35/36 (at most two tasks per
// 100-CLB partition, so packingNeed = ⌈3·nBlocks/2⌉ fathoms every lower
// probe) in two delay classes — even blocks below 32 run at base delay 60,
// the rest at 100, with per-layer offsets +0/+1/+2. The optimum is a
// same-class, same-layer block matching (any mismatched cross-chain pair
// costs strictly more), worth Σ D(t)/2. The pattern master's LP bound
// equals that optimum (dual λ_t = D(t)/2 is feasible: every pattern costs
// at least its delay average), so branch-and-price proves it in a handful
// of nodes, while the row formulation's fractional spreading collapses the
// max terms and leaves a bound too weak to close at 5000+ binaries.
func portfolioChainBlocks(nBlocks int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("chainblocks%d", 3*nBlocks))
	sizes := [3]int{34, 35, 36}
	for b := 0; b < nBlocks; b++ {
		base := 100.0
		if b%2 == 0 && b < 32 {
			base = 60
		}
		for j := 0; j < 3; j++ {
			g.MustAddTask(dfg.Task{Name: fmt.Sprintf("b%02d_%d", b, j), Type: "C",
				Resources: sizes[j], Delay: base + float64(j)})
		}
	}
	for b := 0; b < nBlocks; b++ {
		_ = g.AddEdgeByID(3*b, 3*b+1, 1)
		_ = g.AddEdgeByID(3*b+1, 3*b+2, 1)
	}
	return g
}

func portfolioFIR(channels int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("fir%d", channels))
	for c := 0; c < channels; c++ {
		fn, dn, en := fmt.Sprintf("fir%d", c), fmt.Sprintf("dec%d", c), fmt.Sprintf("eng%d", c)
		g.MustAddTask(dfg.Task{Name: fn, Type: "fir", Resources: 140, Delay: 1140, ReadEnv: 4})
		g.MustAddTask(dfg.Task{Name: dn, Type: "dec", Resources: 100, Delay: 420})
		g.MustAddTask(dfg.Task{Name: en, Type: "eng", Resources: 110, Delay: 800, WriteEnv: 1})
		g.MustAddEdge(fn, dn, 4)
		g.MustAddEdge(dn, en, 2)
	}
	return g
}

// PortfolioInstance is one manifest row of the committed hard-instance
// corpus: the fixture file, its board parameters, the solver knobs it is
// run under, and the pinned expectations. This is the single schema every
// consumer decodes — the portfolio tests, the root-package pack
// benchmarks, and the regeneration command — so a new manifest knob can
// never be honoured by one of them and silently ignored by another.
type PortfolioInstance struct {
	File       string `json:"file"`
	CLBs       int    `json:"clbs"`
	MemWords   int    `json:"mem_words"`
	ReconfigNS int    `json:"reconfig_ns"`
	MaxNodes   int    `json:"max_nodes"`
	// MaxParts caps the relax-N loop (tempart.Input.MaxPartitions); 0 keeps
	// the default lower-bound+8 window. Instances whose area floor sits far
	// below the packing need (chainblocks) must widen it.
	MaxParts   int  `json:"max_partitions,omitempty"`
	NoSymmetry bool `json:"no_symmetry"`
	NoWarm     bool `json:"no_warm_start"`
	// Formulation selects the solver backend (tempart.Input.Formulation):
	// "rows" pins the row model, "patterns" branch-and-price, and "" races
	// the two. Every committed row pins one, so node counts and the
	// benchmarks built on them measure one model's search.
	Formulation string `json:"formulation,omitempty"`
	// Expect pins the outcome: "solve" (proven optimum at WantN), "limit"
	// (the search budget binds with no feasible partitioning — a
	// search-limit error), or "gap" (a feasible partitioning at WantN is
	// returned under budget but optimality stays unproven — the
	// cannot-finish regime the pattern formulation exists to crack).
	Expect     string `json:"expect"`
	WantN      int    `json:"want_n"`
	MaxBBNodes int    `json:"max_bb_nodes"`
	Quick      bool   `json:"quick"`
	// ExpectProof asserts the infeasibility-proof machinery carried the
	// solve: DualBoundFathoms must be nonzero.
	ExpectProof bool   `json:"expect_proof"`
	Note        string `json:"note"`
}

// PortfolioManifest is the committed manifest: the generator seed the
// fixtures are pinned to, plus the instance rows.
type PortfolioManifest struct {
	GenSeed   int64               `json:"gen_seed"`
	Instances []PortfolioInstance `json:"instances"`
}

// LoadPortfolioManifest reads the manifest from the portfolio directory.
func LoadPortfolioManifest(dir string) (*PortfolioManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m PortfolioManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("portfolio manifest: %w", err)
	}
	return &m, nil
}

// PortfolioGraphs regenerates the hard-instance corpus for a pinned seed,
// in committed-file order. One RNG is consumed sequentially, so the output
// is a pure function of the seed.
func PortfolioGraphs(seed int64) []*dfg.Graph {
	rng := rand.New(rand.NewSource(seed))
	return []*dfg.Graph{
		portfolioPack(rng, 12), portfolioPack(rng, 15), portfolioPack(rng, 18),
		portfolioChain(rng, 9), portfolioChain(rng, 10), portfolioChain(rng, 11),
		portfolioFIR(6), portfolioFIR(8),
		// New generators append here: earlier fixtures are byte-pinned to
		// the RNG draw sequence above (pack2638/chainblocks draw nothing).
		portfolioMix2638(24), portfolioChainBlocks(34),
	}
}
