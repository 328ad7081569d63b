package service

import "repro/internal/tempart"

// SearchCounters is one solve's search effort, as Result reports it and
// Metrics aggregates it per engine. Every counter is declared here once:
// its JSON key, its mapping from tempart.SolveStats (searchCountersOf), and
// its /healthz and /metrics family (searchFamilies). Cache hits and shared
// results report the zero value — their search ran at most once, elsewhere.
type SearchCounters struct {
	// Branch-and-bound nodes whose LP relaxation was solved, nodes the
	// presolve's combinatorial bound fathomed, and all nodes discarded
	// without a simplex run.
	Nodes               int `json:"nodes,omitempty"`
	PrunedCombinatorial int `json:"nodes_pruned_combinatorial,omitempty"`
	LPSolvesSkipped     int `json:"lp_solves_skipped,omitempty"`
	// Cutting-plane engine: cuts admitted and the node LP re-solves they
	// triggered.
	CutsAdded        int `json:"cuts_added,omitempty"`
	SeparationRounds int `json:"separation_rounds,omitempty"`
	// Infeasibility-proof engine: Chvátal–Gomory cardinality rows built
	// into the winning row model and bin-packing dual-bound fathoms.
	CGCuts           int `json:"cg_cuts,omitempty"`
	DualBoundFathoms int `json:"dual_bound_fathoms,omitempty"`
	// Simplex kernel: pivots, basis reinversions the Forrest–Tomlin update
	// could not avoid, dual long-step bound flips, and basis solves on the
	// hyper-sparse path versus past its density gate (dense O(m) loops).
	LPIterations       int `json:"lp_iterations,omitempty"`
	LPRefactorizations int `json:"lp_refactorizations,omitempty"`
	LPBoundFlips       int `json:"lp_bound_flips,omitempty"`
	LPSparseFTRANs     int `json:"lp_sparse_ftrans,omitempty"`
	LPSparseBTRANs     int `json:"lp_sparse_btrans,omitempty"`
	LPDenseFallbacks   int `json:"lp_dense_fallbacks,omitempty"`
	// Branch-and-price: master columns generated and pricing-problem
	// invocations (zero under the row formulation).
	ColumnsGenerated int `json:"columns_generated,omitempty"`
	PricingRounds    int `json:"pricing_rounds,omitempty"`
	// Formulation race: relax-N probes that started a pattern-master
	// rival beside the row search (default-formulation solves only).
	RaceRivals int `json:"race_rivals,omitempty"`
}

// searchCountersOf maps a solve's statistics to its wire counters.
func searchCountersOf(st tempart.SolveStats) SearchCounters {
	return SearchCounters{
		Nodes:               st.Nodes,
		PrunedCombinatorial: st.PrunedCombinatorial,
		LPSolvesSkipped:     st.LPSolvesSkipped,
		CutsAdded:           st.CutsAdded,
		SeparationRounds:    st.SeparationRounds,
		CGCuts:              st.CGCuts,
		DualBoundFathoms:    st.DualBoundFathoms,
		LPIterations:        st.LPIterations,
		LPRefactorizations:  st.Solver.Refactorizations,
		LPBoundFlips:        st.Solver.BoundFlips,
		LPSparseFTRANs:      st.Solver.SparseFTRANs,
		LPSparseBTRANs:      st.Solver.SparseBTRANs,
		LPDenseFallbacks:    st.Solver.DenseFallbacks,
		ColumnsGenerated:    st.ColumnsGenerated,
		PricingRounds:       st.PricingRounds,
		RaceRivals:          st.RaceRivals,
	}
}

// searchFamily is one per-engine search counter Metrics exports: name is
// its /healthz key, and name+"_total" its /metrics family.
type searchFamily struct {
	name, help string
	get        func(*SearchCounters) int
}

// searchFamilies lists the exported search counters in exposition order.
// LPIterations stays out of /metrics (pivots are reported per solve only).
var searchFamilies = []searchFamily{
	// How much branch-and-bound work fresh solves did, and how much of it
	// the presolve pruned before the simplex ran: a healthy prune-first
	// deployment shows pruned+skipped growing much faster than nodes.
	{"bb_nodes", "Branch-and-bound nodes whose LP relaxation was solved.",
		func(c *SearchCounters) int { return c.Nodes }},
	{"bb_pruned_combinatorial", "Nodes fathomed by the combinatorial presolve bound.",
		func(c *SearchCounters) int { return c.PrunedCombinatorial }},
	{"lp_solves_skipped", "Nodes discarded without an LP solve.",
		func(c *SearchCounters) int { return c.LPSolvesSkipped }},
	// Branch-and-cut grows the model instead of the tree: rising cuts with
	// flat nodes is the engine working.
	{"cuts_added", "Cutting planes admitted by separation.",
		func(c *SearchCounters) int { return c.CutsAdded }},
	{"separation_rounds", "Node LP re-solves triggered by cut rounds.",
		func(c *SearchCounters) int { return c.SeparationRounds }},
	// Rising fathoms with flat nodes is the proof engine doing the pruning
	// (N probes and B&B nodes killed LP-free).
	{"cg_cuts", "Chvatal-Gomory cardinality rows built into the winning row model.",
		func(c *SearchCounters) int { return c.CGCuts }},
	{"dual_bound_fathoms", "Bin-packing dual-bound fathoms (LP-free).",
		func(c *SearchCounters) int { return c.DualBoundFathoms }},
	{"lp_refactorizations", "LP basis reinversions.",
		func(c *SearchCounters) int { return c.LPRefactorizations }},
	{"lp_bound_flips", "Dual long-step bound flips.",
		func(c *SearchCounters) int { return c.LPBoundFlips }},
	// A healthy sparse-dominated workload shows ftrans+btrans far above
	// fallbacks.
	{"lp_sparse_ftrans", "Hyper-sparse FTRAN solves completed.",
		func(c *SearchCounters) int { return c.LPSparseFTRANs }},
	{"lp_sparse_btrans", "Hyper-sparse BTRAN solves completed.",
		func(c *SearchCounters) int { return c.LPSparseBTRANs }},
	{"lp_dense_fallbacks", "Basis solves past the density gate (dense path).",
		func(c *SearchCounters) int { return c.LPDenseFallbacks }},
	// Rising columns with flat nodes is the pattern formulation closing
	// instances at the master LP instead of branching.
	{"columns_generated", "Branch-and-price master columns generated.",
		func(c *SearchCounters) int { return c.ColumnsGenerated }},
	{"pricing_rounds", "Branch-and-price pricing-problem invocations.",
		func(c *SearchCounters) int { return c.PricingRounds }},
	// Rivals per fresh solve is the share of default requests whose rows
	// root left a probe open; root-closing workloads stay at zero.
	{"race_rivals", "Relax-N probes that started a pattern-master rival.",
		func(c *SearchCounters) int { return c.RaceRivals }},
}
