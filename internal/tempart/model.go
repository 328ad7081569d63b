// Package tempart implements the paper's core contribution: optimal
// temporal partitioning of a behavior-level task graph over N run-time
// configurations of an FPGA, formulated as an integer linear program
// (Sec. 2.1, Eqs. 1-8) and solved by internal/ilp.
//
// The model, for a fixed partition bound N (partitions are 0-indexed here):
//
//	variables   y[t][p] ∈ {0,1}   task t placed in partition p
//	            w[p][e] ∈ [0,1]   edge e crosses boundary after partition p
//	            d[p]    ≥ 0       execution delay of partition p
//
//	uniqueness  Σ_p y[t][p] == 1                                    (Eq. 1)
//	order       y[t2][p2] + Σ_{p1>p2} y[t1][p1] <= 1  ∀ t1→t2, p2   (Eq. 2)
//	memory      Σ_e B(e)·w[p][e] <= M_max             ∀ boundary p  (Eq. 3)
//	linearize   w[p][e] >= Σ_{p1<=p} y[t1][p1] + Σ_{p2>p} y[t2][p2] - 1
//	                                                  (Eqs. 4-5 linearized)
//	resource    Σ_t R(t)·y[t][p] <= R_max             ∀ p           (Eq. 6)
//	path delay  Σ_{t∈π} D(t)·y[t][p] <= d[p]          ∀ path π, p   (Eq. 7)
//	objective   minimize Σ_p d[p]   (N·CT added as a constant)      (Eq. 8)
//
// A preprocessing step computes the partition lower bound
// N0 = ⌈Σ_t R(t) / R_max⌉ and the bound is relaxed by one partition at a
// time until the model is feasible, exactly as in the paper.
//
// The enumerated root-to-leaf paths exist only for the Eq. 7 rows (and the
// separator's longest-path chain seeds). Every evaluation of the Fig. 4
// delay model — a probe's answer, the warm start, ListPartition and the
// service's cache re-verification — is EvaluateDelays' longest-chain DP,
// which never lists a path.
//
// ListPartition is the list-based greedy baseline the paper compares
// against (Sec. 4); it shares its packing loop with the ILP's warm start.
package tempart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
)

// Input bundles the inputs of the partitioning tool: the behavior
// specification (the task graph, with synthesis costs already annotated by
// the HLS estimator), the target architecture parameters, and the few
// search settings a caller sets. The zero value of every setting is the
// paper's tool; cancellation and deadlines come from Solve's context.
type Input struct {
	Graph *dfg.Graph
	Board arch.Board

	// MaxPartitions caps the relax-N loop (default: lower bound + 8).
	MaxPartitions int
	// Formulation selects the solver backend each relax-N probe runs.
	// FormulationRows pins the Eqs. 1-8 y/w/d row model and
	// FormulationPatterns the branch-and-price partition-pattern master
	// (bprice.go). Both prove the same optima — the formulation-equivalence
	// tests pin that — but neither dominates: rows closes the DCT, FIR and
	// packing probes at its root, while the pattern master's
	// set-partitioning bound closes chain and mixed-cardinality instances
	// the row model crawls through. The default (the empty string) runs
	// rows on each probe and hands the probe off to the pattern master
	// when the rows root LP leaves it open, on the same goroutine: a
	// pattern proof answers the probe, and otherwise the row search carries
	// on from its root (handOffForN). Instances whose worst-case boundary
	// traffic exceeds the on-board memory (the pattern master has no Eq. 3
	// rows), or whose pattern space does not fit the pricer's pattern
	// tree, run rows alone, pinned or not, and report Stats.Formulation
	// "rows" (see patternsApplicable).
	Formulation string
	// NoSymmetryBreaking disables the ordering constraints between
	// provably interchangeable tasks. They are on by default: they never
	// change the optimum and substantially prune the search on regular
	// DSP graphs. Disable only to measure the ablation.
	NoSymmetryBreaking bool
	// DisableWarmStart suppresses the list-partitioner warm start (for
	// ablation benchmarks).
	DisableWarmStart bool
	// Trace, when non-nil, receives the solve's phase timeline: presolve /
	// relax-N probe / model-build / root-cut / search spans, LP kernel
	// counter deltas at search-span boundaries, and the ilp layer's
	// sampled node events (the recorder is handed down through
	// ilp.Options.Trace). A nil Trace is free — every recording site is a
	// nil-receiver no-op — so the batch and benchmark paths pay nothing.
	// A solve runs on one goroutine, so its probe spans never overlap; a
	// hand-off's model-build and search spans lie inside their probe's,
	// beside the row search's search spans rather than inside them.
	Trace *obs.Recorder
	// MaxNodes bounds each probe's branch-and-bound (or branch-and-price)
	// nodes (0 = the ilp default).
	MaxNodes int

	// testProbe, when non-nil, runs at the start of every relax-N probe
	// that reaches a search (tests only: it lets a test panic inside a
	// probe).
	testProbe func()
	// testHandOff, when non-nil, runs at each hand-off to the pattern
	// master, before the pattern tree's build, and returns the context
	// the hand-off runs under (tests only: it lets a test cancel the solve
	// there, or stop the hand-off alone).
	testHandOff func(ctx context.Context) context.Context
	// testMaxTreeNodes, when positive, replaces the pattern tree's node
	// cap maxTreeNodes (tests only: it makes a small instance's tree
	// overflow).
	testMaxTreeNodes int
	// testNoCuts switches off every cut but the aggregate presolve row
	// (Σ d_p ≥ combinatorial floor): the separators inside the branch and
	// bound and the boundary chain-area and CG root rows (tests only: cuts
	// are valid inequalities, so the optimum must not move; the
	// cut-validity tests compare against this reference search).
	testNoCuts bool
}

// SolveStats records model and search sizes for reporting.
type SolveStats struct {
	N            int
	Nodes        int
	LPIterations int
	BuildTime    time.Duration
	SolveTime    time.Duration
	RelaxSteps   int
	// PrunedCombinatorial counts B&B nodes fathomed by the presolve's
	// combinatorial bound (DAG longest chains + area packing) without an
	// LP solve.
	PrunedCombinatorial int
	// LPSolvesSkipped counts all B&B nodes discarded without running the
	// simplex (combinatorial fathoming plus incumbent-bound pruning).
	LPSolvesSkipped int
	// NProbesPruned counts candidate partition counts rejected by presolve
	// (packing infeasibility or greedy-feasibility dominance) without
	// building or solving a model.
	NProbesPruned int
	// CutsAdded counts the cutting planes the separators added to the
	// search (pool-deduplicated), and SeparationRounds the node LP
	// re-solves they triggered.
	CutsAdded        int
	SeparationRounds int
	// CGCuts counts the Chvátal–Gomory cardinality rows built into the
	// winning model (the root rows of cgFamilies), and DualBoundFathoms
	// how often the bin-packing dual bound fired across every relax-N
	// probe: N probes rejected because packingNeed exceeded the candidate
	// count, plus B&B nodes whose residual packing proved the box empty
	// LP-free.
	CGCuts           int
	DualBoundFathoms int
	// ColumnsGenerated and PricingRounds report the branch-and-price
	// engine's column-generation effort: master columns appended beyond
	// the artificials and pricing-problem invocations across the whole
	// search. Zero under the row formulation.
	ColumnsGenerated int
	PricingRounds    int
	// Solver aggregates the warm/cold solve and pivot counts of the
	// underlying simplex engine across the whole B&B search.
	Solver lp.SolverStats
	// RaceRivals counts the relax-N probes of a default-formulation solve
	// whose open rows root was handed off to the pattern master (see
	// handOffForN); zero when a formulation is pinned.
	RaceRivals int
	// Formulation names the model that supplied the winning probe's
	// verdict ("rows" or "patterns"); empty for non-ILP results. Under the
	// default it is "patterns" when that probe's hand-off was decisive,
	// and under a pin it can still differ from Input.Formulation when the
	// pattern backend declined the instance (inter-partition data, or a
	// pattern space past the tree's cap) and fell back to rows.
	Formulation string
}

// Partitioning is a temporal partitioning result.
type Partitioning struct {
	// N is the number of temporal partitions.
	N int
	// Assign maps task index -> partition (0-based, execution order).
	Assign []int
	// Delays holds d_p per partition in ns.
	Delays []float64
	// Latency is N*CT + Σ d_p in ns (Eq. 8).
	Latency float64
	// Optimal reports whether the ILP proved optimality.
	Optimal bool
	// Partial reports an anytime result: a wall-clock deadline stopped the
	// search and the best incumbent in hand was returned instead of a
	// proven optimum (Optimal is always false then). LatencyBound and Gap
	// quantify how far it can be from the true optimum.
	Partial bool
	// LatencyBound is the proven lower bound (ns) on the achievable
	// latency: equal to Latency for Optimal results, and derived from the
	// search's objective bound (plus the constant N·reconfig term), or the
	// presolve's floor where that is stronger, for truncated ones.
	LatencyBound float64
	// Gap is Latency - LatencyBound (0 when Optimal).
	Gap float64
	// BoundTrusted mirrors ilp.Solution.BoundTrusted: false when the
	// search had to discard nodes whose LP hit the iteration limit, which
	// degrades exhaustiveness claims but keeps LatencyBound valid.
	BoundTrusted bool
	// Fallback reports that the result came from the greedy list
	// partitioner after the ILP produced nothing before its deadline (set
	// by the service layer's degradation ladder, never by Solve itself).
	Fallback bool
	// Stats carries solver statistics.
	Stats SolveStats
}

// Errors.
var (
	ErrTaskTooLarge = errors.New("tempart: a task exceeds the FPGA resource capacity")
	ErrNoSolution   = errors.New("tempart: no feasible partitioning within the partition cap")
	// ErrDeadline reports that a wall-clock deadline expired before any
	// feasible partitioning was found — the caller should degrade to a
	// cheaper partitioner (the service layer falls back to ListPartition)
	// rather than retry.
	ErrDeadline = errors.New("tempart: deadline expired before any feasible partitioning was found")
)

// MinPartitions returns the preprocessing lower bound: the maximum of
//   - ⌈Σ demand / capacity⌉ per capped resource type (the paper's
//     ⌈Σ R(t) / R_max⌉ for the single-resource case), and
//   - the number of tasks larger than half the FPGA (no two such tasks
//     ever share a partition — a valid bin-packing bound that saves the
//     relax loop from expensive infeasibility proofs on coarse graphs).
func MinPartitions(g *dfg.Graph, board arch.Board) int {
	if g.NumTasks() == 0 {
		return 0
	}
	n := (g.TotalResources() + board.FPGA.CLBs - 1) / board.FPGA.CLBs
	for kind, cap := range board.FPGA.ExtraCapacity {
		if cap <= 0 {
			continue
		}
		if m := (g.TotalExtra(kind) + cap - 1) / cap; m > n {
			n = m
		}
	}
	big := 0
	for i := 0; i < g.NumTasks(); i++ {
		if 2*g.Task(i).Resources > board.FPGA.CLBs {
			big++
		}
	}
	if big > n {
		n = big
	}
	if n < 1 {
		n = 1
	}
	return n
}

// AnytimeLowerBound returns a cheap, sound lower bound (ns) on the latency
// of any feasible partitioning of g on board: MinPartitions·reconfig plus
// the presolve delay floor (DAG critical path vs layer-cake area×delay).
// The service layer uses it to report a finite gap when a deadline forces
// the greedy fallback before the ILP established any bound of its own.
func AnytimeLowerBound(g *dfg.Graph, board arch.Board) float64 {
	if g == nil || g.NumTasks() == 0 {
		return 0
	}
	pre := newPresolve(g, board)
	return float64(MinPartitions(g, board))*board.FPGA.ReconfigTime + pre.sumDelayFloor()
}

// Solve runs the full temporal partitioning tool: preprocessing, model
// generation for the lower-bound N, and the relax-N loop until feasibility.
//
// ctx bounds the search: cancelling it aborts the running search (the row
// search or a hand-off's pattern master) at its next limit check, and a
// cancelled solve returns ctx.Err() even when the aborted search had
// already found a feasible (but unproven) incumbent. Deadline expiry is different — that is the anytime
// contract: when ctx died of context.DeadlineExceeded and the
// solve still produced a partitioning (the best incumbent, marked Partial
// with a proven LatencyBound and Gap), the partitioning is returned instead
// of the error. A deadline that fires before any incumbent exists surfaces
// as an ErrDeadline-wrapped error so callers can degrade to ListPartition.
func Solve(ctx context.Context, in Input) (*Partitioning, error) {
	part, err := solve(ctx, in)
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.DeadlineExceeded) {
			if part != nil {
				return part, nil
			}
			if errors.Is(err, ErrDeadline) {
				return nil, err
			}
		}
		return nil, cerr
	}
	return part, err
}

func solve(ctx context.Context, in Input) (*Partitioning, error) {
	g := in.Graph
	if err := validateInput(g, in.Board); err != nil {
		return nil, err
	}
	if g.NumTasks() == 0 {
		return &Partitioning{}, nil
	}
	// The presolve span covers everything before the first N probe: path
	// enumeration for the Eq. 7 rows, the DAG/packing bound computation,
	// and the greedy dominance clamp. pprof segments the same region under
	// phase=presolve when a request context is present.
	preSpan := in.Trace.Begin(obs.PhasePresolve)
	var (
		pre     *presolve
		n0      int
		maxN    int
		prunedN int
		tally   *proofTally
		pathErr error
	)
	obs.Do(ctx, "phase", obs.PhasePresolve, func(context.Context) {
		var paths [][]int
		if paths, pathErr = g.Paths(MaxPaths); pathErr != nil {
			return
		}
		n0 = MinPartitions(g, in.Board)
		maxN = in.MaxPartitions
		if maxN == 0 {
			maxN = n0 + 8
		}
		pre = newPresolve(g, in.Board)
		pre.paths = paths
		// Dominance clamp: a feasible greedy partitioning at gn partitions
		// proves the ILP feasible at every N >= gn (feasibility is monotone
		// in N), so the relax loop never needs to probe beyond gn — those
		// candidate counts are rejected without building a model.
		if gn := pre.maxFeasibleN(); gn > 0 && gn >= n0 && gn < maxN {
			prunedN += maxN - gn
			maxN = gn
		}
		tally = &proofTally{packNeed: pre.packingNeed()}
	})
	if pathErr != nil {
		return nil, fmt.Errorf("tempart: %w (use the list partitioner for graphs this path-dense)", pathErr)
	}
	preSpan.End()
	return relaxN(ctx, in, pre, n0, maxN, prunedN, tally)
}

// validateInput checks the inputs both partitioners share: a well-formed
// acyclic graph, a valid board, and no task that a single configuration
// cannot hold on some capped resource (no partition count makes such a
// graph feasible, so it fails with ErrTaskTooLarge).
func validateInput(g *dfg.Graph, board arch.Board) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if err := board.Validate(); err != nil {
		return err
	}
	for i := 0; i < g.NumTasks(); i++ {
		if g.Task(i).Resources > board.FPGA.CLBs {
			return fmt.Errorf("%w: task %q needs %d CLBs, FPGA has %d",
				ErrTaskTooLarge, g.Task(i).Name, g.Task(i).Resources, board.FPGA.CLBs)
		}
		for kind, cap := range board.FPGA.ExtraCapacity {
			if d := g.Task(i).Extra[kind]; d > cap {
				return fmt.Errorf("%w: task %q needs %d %s, FPGA has %d",
					ErrTaskTooLarge, g.Task(i).Name, d, kind, cap)
			}
		}
	}
	return nil
}

// proofTally accumulates the infeasibility-proof telemetry of one Solve
// across every relax-N probe: bin-packing dual-bound fathoms (rejected N
// probes plus LP-free node fathoms) — including the probes that ended in
// an infeasibility proof, whose search effort would otherwise be
// invisible.
type proofTally struct {
	packNeed    int // instance-wide bin-packing dual bound (presolve)
	dualFathoms int
	rivals      int // probes handed off to the pattern master
}

// stampProofStats folds the tally into the winning partitioning's stats,
// after every lower-N probe has contributed.
func (tally *proofTally) stampProofStats(part *Partitioning) {
	part.Stats.DualBoundFathoms = tally.dualFathoms
	part.Stats.RaceRivals = tally.rivals
}

// relaxN is the relax-N loop: candidate partition counts are probed in
// ascending order, one at a time, and the first feasible one wins.
func relaxN(ctx context.Context, in Input, pre *presolve, n0, maxN, prunedN int, tally *proofTally) (*Partitioning, error) {
	for n := n0; n <= maxN; n++ {
		part, packPruned, err := probeN(ctx, in, pre, n, tally)
		if err != nil {
			return nil, err
		}
		if packPruned {
			prunedN++
		}
		if part != nil {
			part.Stats.RelaxSteps = n - n0 + 1
			part.Stats.NProbesPruned = prunedN
			tally.stampProofStats(part)
			return part, nil
		}
	}
	return nil, fmt.Errorf("%w (tried N=%d..%d)", ErrNoSolution, n0, maxN)
}

// probeN runs one relax-N probe under its own trace span. packPruned
// reports a candidate count rejected by the packing bounds alone.
func probeN(ctx context.Context, in Input, pre *presolve, n int, tally *proofTally) (part *Partitioning, packPruned bool, err error) {
	probeSpan := in.Trace.BeginArg(obs.PhaseProbe, int64(n))
	defer probeSpan.End()
	// Bin-packing dual bound: a candidate count below the packing need is
	// infeasible outright — cheaper than both the exact packing check below
	// and any branch-and-bound infeasibility proof. Ignoring temporal order
	// and memory can only make the problem easier, so multi-resource
	// packing infeasibility likewise proves ILP infeasibility at this N.
	switch {
	case n < tally.packNeed:
		tally.dualFathoms++
		return nil, true, nil
	case !pre.packingFeasibleAll(n):
		return nil, true, nil
	}
	if in.testProbe != nil {
		in.testProbe()
	}
	part, err = solveForN(ctx, in, pre, n, tally)
	return part, false, err
}

// tpModel is one generated instance of the Eqs. 1-8 model for a fixed
// partition bound, together with its variable layout.
type tpModel struct {
	prob    *lp.Problem
	ilp     *ilp.Problem
	nVars   int
	needMem bool
	cgRoot  int // Chvátal–Gomory cardinality rows baked in at build time
	yv      func(t, p int) int
	wv      func(p, e int) int
	dv      func(p int) int
}

// buildModel generates the temporal partitioning ILP for a fixed N.
// withPresolveCut controls the aggregate Σ d_p >= sumDelayFloor cut: solves
// always include it, while the presolve property tests build the raw
// relaxation without it so the combinatorial bounds can be compared against
// the pure LP bound.
func buildModel(in Input, pre *presolve, N int, withPresolveCut bool) *tpModel {
	g, paths := in.Graph, pre.paths
	nT := g.NumTasks()
	edges := g.Edges()
	nE := len(edges)
	nB := N - 1 // inter-partition boundaries

	// Presolve: when even the worst case (every edge crossing every
	// boundary) fits the on-board memory, the memory constraint (Eq. 3)
	// can never bind, so the w variables and their linearization rows are
	// dropped entirely. This is a pure dominance reduction — it never
	// changes the optimum — and it roughly halves the model for
	// memory-rich boards like the paper's 64K-word bank.
	totalEdgeData := 0
	for _, e := range edges {
		totalEdgeData += e.Data
	}
	needMem := totalEdgeData > in.Board.Memory.Words

	// Variable layout: y[t][p] = t*N+p; then w[p][e] if needed; d[p] last.
	yv := func(t, p int) int { return t*N + p }
	nW := 0
	if needMem {
		nW = nB * nE
	}
	wv := func(p, e int) int { return nT*N + p*nE + e }
	dv := func(p int) int { return nT*N + nW + p }
	nVars := nT*N + nW + N

	prob := lp.NewProblem(nVars)
	intVars := make([]int, 0, nT*N)
	sos := make([][]int, 0, nT)
	for t := 0; t < nT; t++ {
		grp := make([]int, 0, N)
		for p := 0; p < N; p++ {
			j := yv(t, p)
			prob.SetBounds(j, 0, 1)
			intVars = append(intVars, j)
			grp = append(grp, j)
		}
		sos = append(sos, grp)
	}
	// w relaxed to [0,1]: the linearization lower bound plus the memory
	// constraint make integral w unnecessary once y is integral.
	for p := 0; p < nB && needMem; p++ {
		for e := 0; e < nE; e++ {
			prob.SetBounds(wv(p, e), 0, 1)
		}
	}
	// d_p in [0, Σ D(t)].
	sumDelay := 0.0
	for t := 0; t < nT; t++ {
		sumDelay += g.Task(t).Delay
	}
	for p := 0; p < N; p++ {
		prob.SetBounds(dv(p), 0, sumDelay)
		prob.SetObj(dv(p), 1)
	}

	// Row construction goes through AddRowCols with one pair of scratch
	// slices and a pre-sized coefficient arena: the model builder is the
	// dominant allocator on small instances (the root solve of a regular
	// DSP graph runs a handful of pivots), so rows must not cost a map each.
	totalPathLen := 0
	for _, path := range paths {
		totalPathLen += len(path)
	}
	nExtraKinds := 0
	for _, kind := range g.ExtraTypes() {
		if _, capped := in.Board.FPGA.ExtraCapacity[kind]; capped {
			nExtraKinds++
		}
	}
	nRowsEst := nT + nE*(N-1) + N*(1+nExtraKinds) + len(paths)*N
	nCoeffEst := nT*N + nE*(N*(N+1)/2) + N*nT*(1+nExtraKinds) + N*(totalPathLen+len(paths))
	if needMem {
		nRowsEst += nB * (nE + 1)
		nCoeffEst += nB * nE * (N + 2)
	}
	prob.Reserve(nRowsEst, nCoeffEst)
	cols := make([]int, 0, 64)
	vals := make([]float64, 0, 64)
	reset := func() {
		cols = cols[:0]
		vals = vals[:0]
	}
	put := func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	}

	// Eq. 1: uniqueness.
	for t := 0; t < nT; t++ {
		reset()
		for p := 0; p < N; p++ {
			put(yv(t, p), 1)
		}
		prob.AddRowCols(lp.EQ, cols, vals, 1)
	}

	// Eq. 2: temporal order, grouped per (edge, p2):
	// y[t2][p2] + Σ_{p1 > p2} y[t1][p1] <= 1.
	for _, e := range edges {
		for p2 := 0; p2 < N-1; p2++ {
			reset()
			put(yv(e.To, p2), 1)
			for p1 := p2 + 1; p1 < N; p1++ {
				put(yv(e.From, p1), 1)
			}
			prob.AddRowCols(lp.LE, cols, vals, 1)
		}
	}

	// Eqs. 4/5 linearized: w[p][e] >= Σ_{p1<=p} y[t1][p1] + Σ_{p2>p} y[t2][p2] - 1.
	for p := 0; p < nB && needMem; p++ {
		for ei, e := range edges {
			reset()
			put(wv(p, ei), 1)
			for p1 := 0; p1 <= p; p1++ {
				put(yv(e.From, p1), -1)
			}
			for p2 := p + 1; p2 < N; p2++ {
				put(yv(e.To, p2), -1)
			}
			prob.AddRowCols(lp.GE, cols, vals, -1)
		}
	}

	// Eq. 3: memory per boundary.
	for p := 0; p < nB && needMem; p++ {
		reset()
		for ei, e := range edges {
			if e.Data != 0 {
				put(wv(p, ei), float64(e.Data))
			}
		}
		if len(cols) > 0 {
			prob.AddRowCols(lp.LE, cols, vals, float64(in.Board.Memory.Words))
		}
	}

	// Eq. 6: resources per partition — one constraint per capped resource
	// type ("similar equations can be added if multiple resource types
	// exist in the FPGA").
	for p := 0; p < N; p++ {
		reset()
		for t := 0; t < nT; t++ {
			if r := g.Task(t).Resources; r != 0 {
				put(yv(t, p), float64(r))
			}
		}
		prob.AddRowCols(lp.LE, cols, vals, float64(in.Board.FPGA.CLBs))
	}
	for _, kind := range g.ExtraTypes() {
		cap, capped := in.Board.FPGA.ExtraCapacity[kind]
		if !capped {
			continue
		}
		for p := 0; p < N; p++ {
			reset()
			for t := 0; t < nT; t++ {
				if r := g.Task(t).Extra[kind]; r != 0 {
					put(yv(t, p), float64(r))
				}
			}
			if len(cols) > 0 {
				prob.AddRowCols(lp.LE, cols, vals, float64(cap))
			}
		}
	}

	// Eq. 7: path delays per partition. Tasks on an enumerated path are
	// distinct, so no coefficient accumulation is needed (and AddRowCols
	// would merge duplicates anyway).
	for _, path := range paths {
		for p := 0; p < N; p++ {
			reset()
			put(dv(p), -1)
			for _, t := range path {
				if d := g.Task(t).Delay; d != 0 {
					put(yv(t, p), d)
				}
			}
			prob.AddRowCols(lp.LE, cols, vals, 0)
		}
	}

	// Root presolve cuts: Σ_p d_p >= max(critical path, layer-cake
	// area×delay bound) plus the boundary chain-area and Chvátal–Gomory
	// cardinality rows, expressed through the same cut-row representation
	// the separation layer uses (cuts.go). Valid for every integral
	// assignment (see presolve.go), so the optimum is unchanged, but they
	// lift every node's LP bound to at least the combinatorial floor —
	// and at a packing-infeasible N the CG rows contradict uniqueness, so
	// the root LP is infeasible with no branching at all.
	cgRoot := 0
	if withPresolveCut {
		cutSpan := in.Trace.BeginArg(obs.PhaseRootCut, int64(N))
		emitRootCuts(pre, N, yv, dv, !in.testNoCuts,
			func(name string, kind lp.RowKind, rcols []int, rvals []float64, rhs float64) {
				if strings.HasPrefix(name, "cg-") {
					cgRoot++
				}
				prob.AddRowCols(kind, rcols, rvals, rhs)
			})
		cutSpan.End()
	}

	// Symmetry breaking between interchangeable tasks: consecutive group
	// members a < b must satisfy part(a) <= part(b), written in the tight
	// per-partition prefix form
	//
	//	y[b][p] <= Σ_{q<=p} y[a][q]   for p = 0..N-2
	//
	// (the p = N-1 row is implied by uniqueness). The integral solution set
	// is exactly the lexicographically-least representative of each
	// permutation class — the same set the old aggregated form
	// Σ_p p·y[a][p] <= Σ_p p·y[b][p] admits — but the LP relaxation is
	// strictly tighter, which raises node bounds and shrinks the search.
	if !in.NoSymmetryBreaking {
		for _, group := range pre.groups {
			for i := 0; i+1 < len(group); i++ {
				a, b := group[i], group[i+1]
				for p := 0; p < N-1; p++ {
					reset()
					put(yv(b, p), 1)
					for q := 0; q <= p; q++ {
						put(yv(a, q), -1)
					}
					prob.AddRowCols(lp.LE, cols, vals, 0)
				}
			}
		}
	}

	return &tpModel{
		prob:    prob,
		ilp:     &ilp.Problem{LP: prob, Integers: intVars, SOS1: sos},
		nVars:   nVars,
		needMem: needMem,
		cgRoot:  cgRoot,
		yv:      yv,
		wv:      wv,
		dv:      dv,
	}
}

// MaxPaths caps the path enumeration behind the Eq. 7 rows: the ILP fails
// with dfg.ErrTooManyPaths on a graph with more root-to-leaf paths.
// ListPartition and EvaluateDelays list no path, so they have no cap.
const MaxPaths = 20000

// Formulation values for Input.Formulation (empty hands off between the
// two).
const (
	FormulationRows     = "rows"
	FormulationPatterns = "patterns"
)

// solveForN solves one relax-N probe under the requested formulation: a
// pinned model runs alone, and the default hands off between the two
// (handOffForN). It returns (nil, nil) when the model is infeasible at
// this N.
func solveForN(ctx context.Context, in Input, pre *presolve, N int, tally *proofTally) (*Partitioning, error) {
	switch {
	case in.Formulation == "":
		return handOffForN(ctx, in, pre, N, tally)
	case in.Formulation == FormulationPatterns && patternsApplicable(ctx, in, pre, N):
		return solveForNPatterns(ctx, in, pre, N)
	}
	return solveForNRows(ctx, in, pre, N, tally, nil)
}

// solveForNRows builds and solves the Eqs. 1-8 row model for a fixed
// partition bound, with solveForN's return contract. rootOpen, when
// non-nil, is the search's ilp.Options.RootOpen hook; it runs outside the
// probe's search span (searchProbe).
func solveForNRows(ctx context.Context, in Input, pre *presolve, N int, tally *proofTally, rootOpen func() bool) (*Partitioning, error) {
	g := in.Graph
	nT := g.NumTasks()
	buildStart := time.Now()
	buildSpan := in.Trace.BeginArg(obs.PhaseModelBuild, int64(N))
	var m *tpModel
	obs.Do(ctx, "phase", obs.PhaseModelBuild, func(context.Context) {
		m = buildModel(in, pre, N, true)
	})
	opts := ilp.Options{Context: ctx, MaxNodes: in.MaxNodes, Trace: in.Trace}
	if !in.DisableWarmStart {
		if inc := warmStart(pre, N, m.nVars, m.needMem, m.yv, m.wv, m.dv); inc != nil {
			opts.Incumbent = inc
		}
	}
	// LP-free fathoming: the presolve's combinatorial bound screens every
	// B&B node before its LP relaxation is solved; its bin-packing
	// dual-bound fathoms land in the tally.
	opts.NodeBound = pre.nodeBoundFunc(N, m.yv, &tally.dualFathoms)
	// Branch and cut: grow node LPs with violated temporal-order clique and
	// layer-cake subset cuts, branching only when separation dries up.
	if !in.testNoCuts {
		opts.Separate = newSeparator(pre, g, N, m.yv, m.dv).separate
	}
	buildTime := time.Since(buildStart)
	buildSpan.End()

	var sol *ilp.Solution
	solveTime, err := searchProbe(ctx, in, N, rootOpen, func(rootOpen func() bool) (int, lp.SolverStats, error) {
		var err error
		opts.RootOpen = rootOpen
		if sol, err = ilp.Solve(m.ilp, opts); err != nil {
			return 0, lp.SolverStats{}, err
		}
		return sol.Nodes, sol.Solver, nil
	})
	if err != nil {
		return nil, err
	}

	switch sol.Status {
	case ilp.Infeasible:
		return nil, nil // relax N
	case ilp.Limit:
		return nil, fmt.Errorf("tempart: search limit hit with no feasible partitioning at N=%d", N)
	case ilp.Unbounded:
		return nil, errors.New("tempart: model unbounded (internal error)")
	case ilp.Timeout:
		if sol.X == nil {
			return nil, fmt.Errorf("%w (N=%d)", ErrDeadline, N)
		}
		// Deadline stopped the search with an incumbent in hand: extract
		// it below as an anytime result, marked Partial with the search's
		// proven bound.
	}

	assign := make([]int, nT)
	for t := 0; t < nT; t++ {
		assign[t] = -1
		for p := 0; p < N; p++ {
			if sol.X[m.yv(t, p)] > 0.5 {
				assign[t] = p
				break
			}
		}
		if assign[t] < 0 {
			return nil, fmt.Errorf("tempart: task %d unassigned in ILP solution", t)
		}
	}
	part := probePartitioning(in, pre, assign, sol.Status == ilp.Optimal, sol.Bound, SolveStats{
		N: N, Nodes: sol.Nodes, LPIterations: sol.LPIterations,
		PrunedCombinatorial: sol.PrunedCombinatorial,
		LPSolvesSkipped:     sol.LPSolvesSkipped,
		CutsAdded:           sol.CutsAdded,
		SeparationRounds:    sol.SeparationRounds,
		// The tally-based counters are stamped by the relax loop at
		// acceptance time (stampProofStats), once every lower-N probe
		// has contributed.
		CGCuts:    m.cgRoot,
		BuildTime: buildTime, SolveTime: solveTime,
		Solver:      sol.Solver,
		Formulation: FormulationRows,
	})
	part.Partial, part.BoundTrusted = sol.Status == ilp.Timeout, sol.BoundTrusted
	return part, nil
}

// searchProbe runs one probe's search under its trace span and profile
// label, emits the node and LP kernel counters at the span's end, and
// returns the search's wall time. The search's Solver stats are already a
// delta: its lp.Solver is born inside the search. search receives
// rootOpen (nil stays nil) wrapped to run outside the search span, which
// ends before the hook and reopens after it: a hand-off's own spans are
// then no part of the row search's.
func searchProbe(ctx context.Context, in Input, N int, rootOpen func() bool, search func(rootOpen func() bool) (nodes int, lps lp.SolverStats, err error)) (time.Duration, error) {
	start := time.Now()
	span := in.Trace.BeginArg(obs.PhaseSearch, int64(N))
	var aside func() bool
	if rootOpen != nil {
		aside = func() bool {
			span.End()
			defer func() { span = in.Trace.BeginArg(obs.PhaseSearch, int64(N)) }()
			return rootOpen()
		}
	}
	var (
		nodes int
		lps   lp.SolverStats
		err   error
	)
	obs.Do(ctx, "phase", obs.PhaseSearch, func(context.Context) {
		nodes, lps, err = search(aside)
	})
	if err != nil {
		span.End()
		return 0, err
	}
	in.Trace.Counter(obs.CounterNodes, int64(nodes))
	in.Trace.Counter(obs.CounterLPPivots, int64(lps.Pivots))
	in.Trace.Counter(obs.CounterLPRefactor, int64(lps.Refactorizations))
	in.Trace.Counter(obs.CounterLPFlips, int64(lps.BoundFlips))
	span.End()
	return time.Since(start), nil
}

// probePartitioning maps a probe's task assignment to its Partitioning:
// delays, latency, the optimality claim, and the latency bound that the
// search's objective bound proves. The objective is Σ_p d_p with the
// N·reconfig term constant, so the bound translates directly. The
// presolve's floor on Σ_p d_p holds in every box, so it stands in for a
// weaker search bound: a deadline inside the root LP leaves the row search
// with -Inf, and an unconverged pattern root with 0.
func probePartitioning(in Input, pre *presolve, assign []int, optimal bool, bound float64, stats SolveStats) *Partitioning {
	N := stats.N
	delays := chainDelays(in.Graph, pre.topo, assign, N)
	part := &Partitioning{
		N:       N,
		Assign:  assign,
		Delays:  delays,
		Latency: Latency(in.Board, delays),
		Optimal: optimal,
		Stats:   stats,
	}
	part.LatencyBound = part.Latency
	if !optimal {
		lb := float64(N)*in.Board.FPGA.ReconfigTime + math.Max(bound, pre.sumDelayFloor())
		part.LatencyBound = math.Min(lb, part.Latency)
	}
	part.Gap = part.Latency - part.LatencyBound
	return part
}

// packingFeasible decides one-dimensional bin packing feasibility by
// depth-first search with symmetry pruning (items sorted descending; an
// item may only open the first empty bin). Exact for the small task counts
// the ILP handles; bails out optimistically after a node budget so it never
// wrongly reports infeasible.
func packingFeasible(items []int, cap, bins int) bool {
	sorted := append([]int(nil), items...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	if len(sorted) > 0 && sorted[0] > cap {
		return false
	}
	load := make([]int, bins)
	nodes := 0
	const nodeBudget = 200000
	var place func(i int) bool
	place = func(i int) bool {
		if i == len(sorted) {
			return true
		}
		nodes++
		if nodes > nodeBudget {
			return true // give up: let the ILP decide
		}
		seenEmpty := false
		for b := 0; b < bins; b++ {
			if load[b] == 0 {
				if seenEmpty {
					break // identical empty bins are symmetric
				}
				seenEmpty = true
			}
			if load[b]+sorted[i] > cap {
				continue
			}
			// Skip bins with identical load (symmetry).
			dup := false
			for b2 := 0; b2 < b; b2++ {
				if load[b2] == load[b] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			load[b] += sorted[i]
			if place(i + 1) {
				return true
			}
			load[b] -= sorted[i]
		}
		return false
	}
	return place(0)
}

// EvaluateDelays computes the paper's Fig. 4 delay model for an
// assignment of g's tasks to N partitions: d_p is the largest sum of D(t)
// over partition p's tasks along any one root-to-leaf path. It lists no
// path. A longest-chain DP over one topological order,
//
//	chain_p[t] = max_{u→t} chain_p[u] + [assign[t] = p]·D(t),   d_p = max_t chain_p[t],
//
// gives the path-sum number bit for bit, for every assignment (temporal
// order need not hold): rounding is monotone, so taking the max before
// adding D(t) equals adding D(t) on each path and taking the max after. An
// isolated task is its own chain. g must be acyclic.
func EvaluateDelays(g *dfg.Graph, assign []int, N int) []float64 {
	order, _ := g.TopoOrder() // fails only on a cycle, which g must not have
	return chainDelays(g, order, assign, N)
}

// chainDelays is EvaluateDelays over a topological order of g the caller
// already holds (the solver reuses its presolve's).
func chainDelays(g *dfg.Graph, order, assign []int, N int) []float64 {
	// The result and the per-task chain scratch share one allocation.
	buf := make([]float64, N+g.NumTasks())
	d, chain := buf[:N:N], buf[N:]
	for p := range d {
		for _, t := range order {
			c := 0.0
			for _, u := range g.Preds(t) {
				if chain[u] > c {
					c = chain[u]
				}
			}
			if assign[t] == p {
				c += g.Task(t).Delay
			}
			chain[t] = c
			if c > d[p] {
				d[p] = c
			}
		}
	}
	return d
}

// Latency computes Eq. 8's objective value N*CT + Σ d_p for a delay vector.
func Latency(board arch.Board, delays []float64) float64 {
	sum := 0.0
	for _, d := range delays {
		sum += d
	}
	return float64(len(delays))*board.FPGA.ReconfigTime + sum
}

// CheckFeasible verifies a partitioning against the architecture: resource
// capacity per partition, memory capacity per boundary, and temporal order.
// It returns nil when the assignment is a valid temporal partitioning.
func CheckFeasible(g *dfg.Graph, board arch.Board, assign []int, N int) error {
	if len(assign) != g.NumTasks() {
		return fmt.Errorf("tempart: assignment length %d != %d tasks", len(assign), g.NumTasks())
	}
	res := make([]int, N)
	extra := map[string][]int{}
	for t, p := range assign {
		if p < 0 || p >= N {
			return fmt.Errorf("tempart: task %d assigned to invalid partition %d", t, p)
		}
		res[p] += g.Task(t).Resources
		for kind, d := range g.Task(t).Extra {
			if extra[kind] == nil {
				extra[kind] = make([]int, N)
			}
			extra[kind][p] += d
		}
	}
	for p, r := range res {
		if r > board.FPGA.CLBs {
			return fmt.Errorf("tempart: partition %d uses %d CLBs > %d", p, r, board.FPGA.CLBs)
		}
	}
	for kind, perPart := range extra {
		cap, capped := board.FPGA.ExtraCapacity[kind]
		if !capped {
			continue
		}
		for p, r := range perPart {
			if r > cap {
				return fmt.Errorf("tempart: partition %d uses %d %s > %d", p, r, kind, cap)
			}
		}
	}
	for _, e := range g.Edges() {
		if assign[e.From] > assign[e.To] {
			return fmt.Errorf("tempart: edge %d->%d violates temporal order (%d > %d)",
				e.From, e.To, assign[e.From], assign[e.To])
		}
	}
	for b := 0; b < N-1; b++ {
		mem := 0
		for _, e := range g.Edges() {
			if assign[e.From] <= b && assign[e.To] > b {
				mem += e.Data
			}
		}
		if mem > board.Memory.Words {
			return fmt.Errorf("tempart: boundary %d stores %d words > %d", b, mem, board.Memory.Words)
		}
	}
	return nil
}

// bestGreedy returns a copy of the lower-latency of the presolve's cached
// greedy heuristics that fits N partitions, or nil when neither does. Two
// heuristics compete — plain topological packing, and type-homogeneous
// packing (which avoids mixing slow task types into fast partitions, the
// effect the paper's Sec. 4 comparison highlights). A heuristic feasible
// at usedN partitions is feasible at every N >= usedN (the extra
// partitions stay empty), so the cached certificates need no per-N
// re-validation.
func (pre *presolve) bestGreedy(N int) []int {
	var best []int
	bestLat := 0.0
	for _, gr := range pre.greedy {
		if !gr.ok || gr.usedN > N {
			continue
		}
		lat := Latency(pre.board, chainDelays(pre.g, pre.topo, gr.assign, N))
		if best == nil || lat < bestLat {
			best = gr.assign
			bestLat = lat
		}
	}
	// The cached assignments are shared across probes.
	return append([]int(nil), best...)
}

// warmStart builds a full ILP variable assignment from the best greedy
// heuristic (bestGreedy) when one fits N partitions, and nil otherwise.
func warmStart(pre *presolve, N, nVars int,
	needMem bool, yv func(t, p int) int, wv func(p, e int) int, dv func(p int) int) []float64 {

	g := pre.g
	best := pre.bestGreedy(N)
	if best == nil {
		return nil
	}
	// Canonicalize within interchangeable groups so the incumbent also
	// satisfies the symmetry-breaking ordering rows (permuting members of
	// a group across their partitions preserves feasibility and latency).
	for _, group := range pre.groups {
		ps := make([]int, len(group))
		for i, t := range group {
			ps[i] = best[t]
		}
		sort.Ints(ps)
		for i, t := range group {
			best[t] = ps[i]
		}
	}
	x := make([]float64, nVars)
	for t, p := range best {
		x[yv(t, p)] = 1
	}
	if needMem {
		for ei, e := range g.Edges() {
			for b := 0; b < N-1; b++ {
				if best[e.From] <= b && best[e.To] > b {
					x[wv(b, ei)] = 1
				}
			}
		}
	}
	delays := chainDelays(g, pre.topo, best, N)
	for p := 0; p < N; p++ {
		x[dv(p)] = delays[p]
	}
	return x
}

// ListPartition is the list-based baseline partitioner the paper compares
// against (Sec. 4): tasks are visited in topological order and packed into
// the current partition while the FPGA resources allow, opening a new
// partition otherwise. The latency is evaluated with the ILP's delay model
// (Fig. 4, EvaluateDelays), so no path is listed and no path cap applies.
//
// On the DCT case study this packs T2 tasks into partition 1's unused CLBs,
// which lengthens partition 1's critical path and gives a worse latency
// than the ILP — exactly the effect the paper describes.
func ListPartition(g *dfg.Graph, board arch.Board) (*Partitioning, error) {
	if err := validateInput(g, board); err != nil {
		return nil, err
	}
	if g.NumTasks() == 0 {
		return &Partitioning{}, nil
	}
	assign, n := greedyAssign(g, board, false)
	if err := CheckFeasible(g, board, assign, n); err != nil {
		return nil, fmt.Errorf("tempart: greedy result infeasible: %w", err)
	}
	delays := EvaluateDelays(g, assign, n)
	return &Partitioning{
		N:       n,
		Assign:  assign,
		Delays:  delays,
		Latency: Latency(board, delays),
		Stats:   SolveStats{N: n},
	}, nil
}

// greedyAssign is the list-based packing behind ListPartition (plain mode)
// and the ILP's warm start: topological-order bin packing into successive
// partitions under the resource constraint. In homogeneous mode a
// partition is also closed when the task type changes, which keeps fast
// and slow task types apart. An oversized task (see validateInput) gets a
// partition of its own, so the result fails CheckFeasible.
func greedyAssign(g *dfg.Graph, board arch.Board, homogeneous bool) ([]int, int) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0
	}
	assign := make([]int, g.NumTasks())
	cur, used := 0, 0
	usedExtra := map[string]int{}
	curType := ""
	first := true
	fits := func(t int) bool {
		if used+g.Task(t).Resources > board.FPGA.CLBs {
			return false
		}
		for kind, cap := range board.FPGA.ExtraCapacity {
			if usedExtra[kind]+g.Task(t).Extra[kind] > cap {
				return false
			}
		}
		return true
	}
	for _, t := range order {
		typ := g.Task(t).Type
		if !fits(t) || (homogeneous && !first && typ != curType) {
			cur++
			used = 0
			usedExtra = map[string]int{}
		}
		assign[t] = cur
		used += g.Task(t).Resources
		for kind, d := range g.Task(t).Extra {
			usedExtra[kind] += d
		}
		curType = typ
		first = false
	}
	return assign, cur + 1
}
