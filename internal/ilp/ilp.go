// Package ilp implements a branch-and-bound integer linear programming
// solver on top of the warm-started revised simplex solver in internal/lp.
//
// It supports mixed problems in which a subset of the variables is marked
// integral (in practice, the 0-1 placement variables of the temporal
// partitioning model). Branching fixes variable bounds — a B&B node is a
// bound delta, not a problem copy: the search owns a single lp.Solver,
// applies a node's bound fixes to it, and warm starts from the basis of
// the previously solved node (the dual simplex typically re-optimizes in a
// handful of pivots).
//
// The search is branch-and-cut: when Options.Separate is set, each node's
// fractional LP point is handed to the callback in rounds, violated valid
// inequalities it returns are appended to the live solver (lp.Solver.
// AddRows keeps the basis, so each round re-enters through the dual
// simplex), and branching happens only when separation dries up or the
// round budget is exhausted. Global cuts flow through a size-bounded pool
// — deduplicated by normalized row hash, aged by tight-at-optimum
// activity, compacted when full — so a cut found in one subtree
// strengthens every other; node-local cuts ride on the node and its
// descendants. See cuts.go for the validity contract.
//
// The search also learns from failure: a subtree fathomed INFEASIBLE (an
// empty bound box, an Options.NodeBound infeasibility proof, or an
// infeasible node LP) is encoded as a no-good cut over its fixed 0-1
// bounds and fed into the same pool, so symmetric copies of a dead
// arrangement prune without re-proving it — see conflict.go for the
// derivation, minimization, and why bound-dominated fathoms never learn.
//
// The search is organised prune-first: open nodes live on a bound-ordered
// priority heap (best-first, with LIFO tie-breaking so equal-bound children
// dive like DFS and keep the warm-start locality), every node is screened
// against the incumbent — and, when Options.NodeBound is set, against a
// caller-supplied combinatorial lower bound — before its LP relaxation is
// ever solved, and once the heap minimum cannot beat the incumbent the
// whole remaining frontier is discarded in one step. Branching prefers SOS1
// groups; leftover fractional integer variables are chosen by pseudo-cost
// scores learned during the search.
//
// The search is sequential: one Solve runs on the caller's goroutine. It
// keeps the best incumbent and its bound, honours its node budget and its
// context, and can report a proven-optimal or best-effort solution.
package ilp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Status reports the outcome of an ILP solve.
type Status int

const (
	// Optimal means the incumbent was proven optimal.
	Optimal Status = iota
	// Feasible means an incumbent was found but the search hit a limit
	// before proving optimality.
	Feasible
	// Infeasible means no integral feasible point exists.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
	// Limit means the node budget ran out, or the Context was cancelled,
	// before any incumbent was found.
	Limit
	// Timeout means the search was stopped by its Options.Context deadline
	// before proving its claim. X holds the best incumbent when one was
	// found (X == nil means the deadline fired first); Bound and Gap stay
	// valid and BoundTrusted keeps its usual meaning, so the caller can
	// report an honest anytime result.
	Timeout
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	case Timeout:
		return "timeout"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem couples an LP with integrality requirements.
type Problem struct {
	// LP is the underlying relaxation. Bounds on integer variables should
	// already be set (e.g. [0,1] for binaries).
	LP *lp.Problem
	// Integers lists the variable indices that must take integral values.
	Integers []int
	// SOS1 lists groups of binary variables of which exactly one is 1 in
	// any feasible solution (the caller must have added the corresponding
	// equality row). The solver branches on whole groups — one child per
	// member, fixing it to 1 and the rest to 0 — which is dramatically
	// stronger than single-variable branching for assignment structures
	// like the temporal partitioning y[t][p] variables.
	SOS1 [][]int
}

// Options tunes the branch-and-bound search. The zero value gives sensible
// defaults.
type Options struct {
	// MaxNodes bounds the number of explored B&B nodes (0 = default 200000).
	MaxNodes int
	// Incumbent optionally provides a known feasible point to warm-start
	// pruning. Its objective is evaluated against the LP objective.
	Incumbent []float64
	// NodeBound, when non-nil, supplies an LP-free combinatorial lower
	// bound on the objective over a node's bound box. bounds is the node's
	// variable-bound accessor (the root bounds with the node's branching
	// fixes applied). feasible=false asserts the box provably contains no
	// feasible point; otherwise bnd must be a valid lower bound on every
	// feasible objective value in the box (it is compared against the
	// incumbent to fathom the node before the simplex runs). A callback
	// that overclaims makes the search wrongly prune subtrees, so it must
	// err on the side of weaker bounds.
	NodeBound func(bounds func(j int) (lo, hi float64)) (bnd float64, feasible bool)
	// NodeBoundProbe, when non-nil, is used instead of NodeBound for
	// conflict-minimization probes (conflict.go re-queries the bound on fix
	// subsets, many times per learned conflict). It must implement exactly
	// the same bound, but a caller that counts NodeBound fathoms for
	// telemetry can supply an uncounted twin here so minimization probes do
	// not inflate the counters. Defaults to NodeBound.
	NodeBoundProbe func(bounds func(j int) (lo, hi float64)) (bnd float64, feasible bool)
	// Separate, when non-nil, turns the search into branch-and-cut: it is
	// invoked in rounds at every node whose LP relaxation is fractional,
	// before branching, and returns valid inequalities violated by the
	// node's LP point (see the Cut validity contract in cuts.go). Cuts the
	// point does not violate beyond a tolerance are dropped; the rest are
	// added to the node's live LP, which is re-solved warm, and the next
	// round begins. The node branches only when a round yields no new cut,
	// the point turns integral, or the round budget (maxCutRounds) is
	// exhausted.
	Separate func(pt *SeparationPoint) []Cut
	// MaxCuts bounds the global cut pool (0 = default 512). Past the bound
	// the pool evicts its least active half.
	MaxCuts int
	// Context, when non-nil, is besides MaxNodes the only way a search
	// stops short. A cancel ends the search at its next limit check,
	// reported exactly as if the node budget had run out (an HTTP job
	// cancel, or tempart stopping the loser of a formulation race). At its
	// deadline the search stops
	// cleanly and reports the best incumbent (or its absence) with Status
	// Timeout — the anytime contract. Any unproven stop after the
	// deadline, even one tripped by MaxNodes or a cancel, reports Timeout.
	Context context.Context
	// Trace, when non-nil, receives search telemetry: separation-round and
	// cut counters, incumbent improvements, and a sampled node event every
	// traceNodeSample-th explored node (depth, LP bound, incumbent,
	// frontier size). A nil Trace costs one nil check per node — the
	// allocation-free hot path is unchanged.
	Trace *obs.Recorder
	// RootOpen, when non-nil, is called once, on the goroutine running
	// Solve, when the root's first LP relaxation leaves the root open:
	// neither infeasible, nor bound-fathomed against the incumbent, nor
	// integral (an LP stopped at its iteration limit counts as open). The
	// search is about to cut and branch, or to give up on the root.
	// tempart starts its pattern-master rival here; it is a solver hook,
	// not a search setting.
	RootOpen func()

	// testCapturePool, when non-nil, receives the final global cut pool
	// contents after the search (validity property tests only; unexported
	// so it is invisible outside the package).
	testCapturePool func([]lp.CutRow)
}

const (
	// defaultMaxNodes is the node budget of a zero Options.MaxNodes.
	defaultMaxNodes = 200000
	// absGap closes the search once incumbent and bound are this close.
	absGap = 1e-6
)

// Solution is the result of an ILP solve.
type Solution struct {
	Status Status
	// X is the incumbent point (valid for Optimal and Feasible).
	X []float64
	// Obj is the incumbent objective value.
	Obj float64
	// Bound is the best proven lower bound on the optimum. See BoundTrusted.
	Bound float64
	// BoundTrusted is false when nodes had to be discarded because their LP
	// relaxation hit the simplex iteration limit. Bound remains valid (the
	// discarded subtrees' parent bounds enter it, so an incumbent within
	// 1e-6 of it may still be reported Optimal), but exhaustive-search
	// claims — Optimal via tree exhaustion, or Infeasible — are degraded.
	BoundTrusted bool
	// Dropped counts discarded (unexplorable) nodes.
	Dropped int
	// Nodes is the number of B&B nodes explored (LP relaxation solved).
	Nodes int
	// PrunedCombinatorial counts nodes fathomed by Options.NodeBound — the
	// combinatorial bound proved the box infeasible or no better than the
	// incumbent — without ever running the simplex.
	PrunedCombinatorial int
	// LPSolvesSkipped counts all nodes discarded without an LP solve:
	// combinatorially fathomed nodes plus nodes whose parent bound already
	// matched the incumbent when they were popped (including frontier
	// drains once the heap minimum cannot improve the incumbent).
	LPSolvesSkipped int
	// LPIterations accumulates simplex pivots across all nodes.
	LPIterations int
	// CutsAdded counts distinct cuts generated by Options.Separate and
	// admitted to the search (pool-deduplicated global cuts plus node-local
	// cuts). Conflict cuts are counted separately in ConflictCuts.
	CutsAdded int
	// SeparationRounds counts node LP re-solves triggered by cut rounds.
	SeparationRounds int
	// ConflictCuts counts no-good cuts learned from infeasibility-fathomed
	// subtrees and admitted to the cut pool (see conflict.go).
	ConflictCuts int
	// CutsByName breaks CutsAdded down by the separator-assigned Cut.Name
	// (nil when no cuts were admitted). This is what lets callers report
	// per-family telemetry (e.g. how many Chvátal–Gomory cuts fired)
	// without a side channel.
	CutsByName map[string]int
	// Solver is the search's lp.Solver activity (warm vs cold solves,
	// dual-repair pivots).
	Solver lp.SolverStats
}

// SeparationPoint is the node state handed to Options.Separate. X is the
// node's current (fractional) LP point; it must not be retained or
// modified. Bounds exposes the node's variable-bound box (the root bounds
// with the branching fixes applied) and is only valid during the call.
type SeparationPoint struct {
	X      []float64
	Obj    float64
	Depth  int
	Round  int
	Bounds func(j int) (lo, hi float64)
}

// maxCutRounds is the per-node separation round budget: root cuts are
// shared by the whole tree and get the larger one.
func maxCutRounds(depth int) int {
	if depth == 0 {
		return 8
	}
	return 2
}

// Gap returns Obj - Bound (0 for proven optimal solutions).
func (s *Solution) Gap() float64 {
	if s.X == nil {
		return math.Inf(1)
	}
	return s.Obj - s.Bound
}

const intTol = 1e-6

// pastDeadline reports whether a (non-zero) search deadline has passed.
func pastDeadline(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// stopRequested reports whether ctx (possibly nil) is done: cancelled or
// past its deadline.
func stopRequested(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// searchDeadline returns ctx's deadline (zero when ctx is nil or has none).
func searchDeadline(ctx context.Context) time.Time {
	if ctx == nil {
		return time.Time{}
	}
	deadline, _ := ctx.Deadline()
	return deadline
}

// node is one open branch-and-bound subproblem.
type node struct {
	fixes []fix   // bound changes relative to the root
	bound float64 // parent LP bound (heap priority, valid subtree bound)
	depth int
	seq   int64       // push order; ties on bound pop LIFO (dive like DFS)
	cuts  []lp.CutRow // node-local cuts inherited from ancestors (never mutated)

	// Pseudo-cost bookkeeping: the single-variable branch that created this
	// node (branchVar < 0 for the root and SOS1 children).
	branchVar  int
	branchUp   bool
	branchFrac float64 // fractional part of branchVar at the parent
}

type fix struct {
	j      int
	lo, hi float64
}

// searcher is the solver side of the search: one reusable solver plus the
// bookkeeping to apply and undo node bound fixes against the root bounds.
type searcher struct {
	p       *Problem
	opt     *Options
	st      *searchState
	solver  *lp.Solver
	rootLo  []float64
	rootHi  []float64
	applied []int // variables whose bounds currently differ from the root
	isInt   []bool

	// Cut bookkeeping: the solver's added-row block is the pool's prefix
	// [0, poolApplied) (at generation poolGen), optionally followed by the
	// current node's local cuts (localCuts rows). poolRows/poolHashes
	// mirror the applied pool prefix for activity scoring.
	poolApplied int
	poolGen     int
	poolRows    []lp.CutRow
	poolHashes  []uint64
	// localSet is the node-local cut slice currently applied (nd.cuts of
	// the node that installed it). Node cut slices are never mutated —
	// children copy-on-append — so slice identity (length + backing array)
	// decides whether a popped node's inherited set is already applied,
	// which keeps a whole subtree below a local cut warm instead of
	// rebuilding the solver at every descendant.
	localSet []lp.CutRow
}

// sameLocalCuts reports whether cuts is exactly the applied local set.
func (w *searcher) sameLocalCuts(cuts []lp.CutRow) bool {
	if len(cuts) != len(w.localSet) {
		return false
	}
	return len(cuts) == 0 || &cuts[0] == &w.localSet[0]
}

func newSearcher(p *Problem, opt *Options, st *searchState, isInt []bool) *searcher {
	n := p.LP.NumVars()
	w := &searcher{
		p:      p,
		opt:    opt,
		st:     st,
		solver: lp.NewSolver(p.LP),
		rootLo: make([]float64, n),
		rootHi: make([]float64, n),
		isInt:  isInt,
	}
	// Node re-solves share the solver-owned Solution buffer; everything the
	// search retains from a result (incumbents, rounding candidates) is
	// copied out explicitly.
	w.solver.SetReuseSolution(true)
	for j := 0; j < n; j++ {
		w.rootLo[j], w.rootHi[j] = p.LP.Bounds(j)
	}
	return w
}

// applyFixes rebinds the solver to nd's box: previously fixed variables are
// restored to their root bounds and the node's fixes are applied in order
// (repeated fixes of one variable intersect). Returns false when the box is
// empty.
func (w *searcher) applyFixes(fixes []fix) bool {
	for _, j := range w.applied {
		w.solver.SetVarBounds(j, w.rootLo[j], w.rootHi[j])
	}
	w.applied = w.applied[:0]
	for _, f := range fixes {
		lo, hi := w.solver.Bounds(f.j)
		nlo, nhi := math.Max(lo, f.lo), math.Min(hi, f.hi)
		w.applied = append(w.applied, f.j)
		if nlo > nhi {
			return false
		}
		w.solver.SetVarBounds(f.j, nlo, nhi)
	}
	return true
}

// dropCuts removes every added row from the solver and resets the pool
// bookkeeping (the basis goes cold; used on pool compaction and when the
// node-local cut set changes).
func (w *searcher) dropCuts() {
	w.solver.DropAddedRows()
	w.poolApplied = 0
	w.poolRows = w.poolRows[:0]
	w.poolHashes = w.poolHashes[:0]
	w.localSet = nil
}

// bindCuts makes the solver's added rows hold the pool's cuts plus
// exactly the given node-local set. It is the single rebind entry point:
// a pool generation change inside syncPool drops everything (including
// previously applied locals), and the re-check afterwards re-adds the
// local set, so the node never silently loses its inherited cuts.
func (w *searcher) bindCuts(cuts []lp.CutRow) error {
	if !w.sameLocalCuts(cuts) {
		w.dropCuts()
	}
	if err := w.syncPool(); err != nil {
		return err
	}
	if len(cuts) > 0 && !w.sameLocalCuts(cuts) {
		if err := w.solver.AddRows(cuts); err != nil {
			return fmt.Errorf("ilp: applying node-local cuts: %w", err)
		}
		w.localSet = cuts
	}
	return nil
}

// syncPool pulls global cuts this solver has not applied yet. On a pool
// generation change (compaction) the whole added-row block is rebuilt.
func (w *searcher) syncPool() error {
	cp := w.st.pool
	if cp == nil {
		return nil
	}
	rows, hashes, gen, total := cp.fetch(w.poolApplied, w.poolGen)
	if gen != w.poolGen {
		w.dropCuts()
		w.poolGen = gen
		rows, hashes, _, total = cp.fetch(0, gen)
	}
	if len(rows) > 0 {
		if err := w.solver.AddRows(rows); err != nil {
			return fmt.Errorf("ilp: applying pool cuts: %w", err)
		}
		w.poolRows = append(w.poolRows, rows...)
		w.poolHashes = append(w.poolHashes, hashes...)
		w.poolApplied = total
	}
	return nil
}

// recordCutActivity credits pool cuts binding at the node optimum x.
func (w *searcher) recordCutActivity(x []float64) {
	if w.st.pool == nil || len(w.poolRows) == 0 {
		return
	}
	var tight []uint64
	for i := range w.poolRows {
		r := &w.poolRows[i]
		if math.Abs(r.Eval(x)-r.RHS) <= cutTightTol {
			tight = append(tight, w.poolHashes[i])
		}
	}
	w.st.pool.touch(tight)
}

// applyCuts runs one separation round at a node: call Options.Separate on
// the LP point, admit the violated valid cuts (global ones to the pool,
// local ones to the solver and the node), and sync the solver with the
// pool. It returns (admitted, progressed): admitted counts distinct cuts
// this round generated, progressed reports whether the node's LP gained
// any row and a re-solve is worthwhile.
func (w *searcher) applyCuts(nd *node, res *lp.Solution, round int, r *nodeResult) (int, bool, error) {
	before := w.solver.AddedRows()
	cuts := w.opt.Separate(&SeparationPoint{
		X: res.X, Obj: res.Obj, Depth: nd.depth, Round: round,
		Bounds: w.solver.Bounds,
	})
	nVars := w.p.LP.NumVars()
	admitted := 0
	admit := func(name string) {
		admitted++
		if r.cutNames == nil {
			r.cutNames = make(map[string]int)
		}
		r.cutNames[name]++
	}
	var locals []lp.CutRow
	for i := range cuts {
		c := &cuts[i]
		if !validCut(nVars, c) || c.Violation(res.X) < cutViolationTol {
			continue
		}
		if c.Global {
			if w.st.pool.add(c.CutRow) {
				admit(c.Name)
			}
		} else {
			locals = append(locals, c.CutRow)
			admit(c.Name)
		}
	}
	// bindCuts (not a bare pool sync) so a pool compaction mid-round
	// re-establishes the node's inherited local cuts after the drop.
	if err := w.bindCuts(nd.cuts); err != nil {
		return 0, false, err
	}
	if len(locals) > 0 {
		if err := w.solver.AddRows(locals); err != nil {
			return 0, false, fmt.Errorf("ilp: applying node-local cuts: %w", err)
		}
		merged := make([]lp.CutRow, 0, len(nd.cuts)+len(locals))
		merged = append(append(merged, nd.cuts...), locals...)
		nd.cuts = merged // fresh slice: siblings keep the old view
		w.localSet = merged
	}
	// Progress means the node LP's row set changed and a re-solve is
	// worthwhile: we admitted something (even if a pool compaction shrank
	// the applied row count below `before`), or the rebind after a
	// compaction changed the applied rows.
	return admitted, admitted > 0 || w.solver.AddedRows() != before, nil
}

// integralPoint reports whether every integer variable is integral in x.
func integralPoint(x []float64, ints []int) bool {
	for _, j := range ints {
		f := x[j] - math.Floor(x[j])
		if f > intTol && f < 1-intTol {
			return false
		}
	}
	return true
}

// nodeResult is what processing one node produces. Exactly one of the
// following is meaningful depending on lpStatus:
// children/incumbent (Optimal), nothing (Infeasible/IterLimit/Unbounded),
// pruned (fathomed before the LP ran).
type nodeResult struct {
	lpStatus     lp.Status
	pruned       bool    // fathomed by the combinatorial bound; no LP was run
	obj          float64 // node LP bound (valid when lpStatus == Optimal)
	iters        int
	cutsAdded    int            // cuts generated at this node (see Solution.CutsAdded)
	cutNames     map[string]int // admitted cuts by separator name
	sepRounds    int            // LP re-solves triggered by separation at this node
	conflictCuts int            // no-goods learned from this node's fathoming
	children     []node
	// incumbent is a verified-feasible integral candidate with objective
	// incObj (nil when the node produced none worth keeping).
	incumbent []float64
	incObj    float64
}

// processNode screens one node (combinatorial bound first), then solves its
// LP and applies the branching rules. incObj is the incumbent objective
// (used for pruning and for filtering incumbent candidates).
func (w *searcher) processNode(nd *node, incObj float64) (*nodeResult, error) {
	r := &nodeResult{incObj: math.Inf(1)}

	if !w.applyFixes(nd.fixes) {
		r.lpStatus = lp.Infeasible
		r.conflictCuts = w.learnConflict(nd, false)
		return r, nil
	}

	// LP-free fathoming: if the caller's combinatorial bound already proves
	// the box infeasible or no better than the incumbent, the simplex never
	// runs for this node — and neither does the cut-view rebind below, so
	// fathomed nodes pay no AddRows reinversion. Only the infeasible case
	// learns a conflict: a bound-dominated box may still hold feasible
	// (just not better) points, which a no-good would wrongly cut off.
	if w.opt.NodeBound != nil {
		if bnd, feasible := w.opt.NodeBound(w.solver.Bounds); !feasible || bnd > incObj-absGap {
			r.pruned = true
			r.lpStatus = lp.Infeasible
			if !feasible {
				r.conflictCuts = w.learnConflict(nd, true)
			}
			return r, nil
		}
	}

	// Rebind the solver's added-row block to this node's cut view: the
	// pool's cuts plus the node's inherited local cuts. Nodes whose local
	// set is already applied (no local cuts anywhere, or a dive within one
	// subtree) reuse the standing rows and only append what other nodes
	// separated since.
	if err := w.bindCuts(nd.cuts); err != nil {
		return nil, err
	}

	solveLP := func() (*lp.Solution, error) {
		for attempt := 0; ; attempt++ {
			res, err := w.solver.Solve()
			if err != nil {
				return nil, fmt.Errorf("ilp: node LP: %w", err)
			}
			r.iters += res.Iterations
			r.lpStatus = res.Status
			if res.Status != lp.Optimal {
				return res, nil
			}
			// Guard against numerical drift of the incrementally updated
			// warm basis: an "optimal" point that violates the original
			// rows (or the node's cut rows) forces one from-scratch
			// re-solve of the node.
			if attempt == 0 && (!w.p.LP.RowsSatisfied(res.X, 1e-6) ||
				!w.solver.AddedRowsSatisfied(res.X, 1e-6)) {
				w.solver.Invalidate()
				continue
			}
			return res, nil
		}
	}

	res, err := solveLP()
	if err != nil {
		return nil, err
	}
	if nd.depth == 0 && w.opt.RootOpen != nil && (res.Status == lp.IterLimit ||
		res.Status == lp.Optimal && res.Obj <= incObj-absGap && !integralPoint(res.X, w.p.Integers)) {
		w.opt.RootOpen()
	}
	if res.Status != lp.Optimal {
		if res.Status == lp.Infeasible {
			// The node LP (original rows plus valid cuts) admits no point at
			// all, so the box holds no integral feasible solution either:
			// learn the no-good. The LP proof gives no subset certificate,
			// so the full fix set is kept (the pool dedups repeats).
			r.conflictCuts = w.learnConflict(nd, false)
		}
		return r, nil
	}

	// Separation rounds: while the point is fractional, could still beat
	// the incumbent, and the round budget lasts, grow the node LP with
	// violated cuts and re-solve warm (the dual simplex re-enters from the
	// current basis; the new rows' slacks are the only infeasibilities).
	// Branching below only happens when separation dries up.
	if w.opt.Separate != nil {
		maxRounds := maxCutRounds(nd.depth)
		for round := 0; round < maxRounds; round++ {
			if res.Obj > incObj-absGap || integralPoint(res.X, w.p.Integers) {
				break
			}
			admitted, progressed, err := w.applyCuts(nd, res, round, r)
			if err != nil {
				return nil, err
			}
			r.cutsAdded += admitted
			if !progressed {
				break
			}
			r.sepRounds++
			res, err = solveLP()
			if err != nil {
				return nil, err
			}
			if res.Status != lp.Optimal {
				// Valid cuts may legitimately empty a node box holding no
				// integral point: the node is fathomed (and, for a clean
				// Infeasible verdict, its no-good learned).
				if res.Status == lp.Infeasible {
					r.conflictCuts += w.learnConflict(nd, false)
				}
				return r, nil
			}
		}
	}
	w.recordCutActivity(res.X)
	r.obj = res.Obj

	if res.Obj > incObj-absGap {
		return r, nil // bound prune: no children
	}

	// Prefer SOS1 group branching: pick the most undecided group (the one
	// whose largest member value is smallest).
	bestGroup := -1
	bestMax := 2.0
	for gi, grp := range w.p.SOS1 {
		gmax, fractional := 0.0, false
		for _, j := range grp {
			v := res.X[j]
			if v > intTol && v < 1-intTol {
				fractional = true
			}
			if v > gmax {
				gmax = v
			}
		}
		if fractional && gmax < bestMax {
			bestMax = gmax
			bestGroup = gi
		}
	}

	// Pseudo-cost selection among the fractional integer variables: score
	// each candidate by the estimated objective degradation of its two
	// children (product rule); unobserved directions fall back to the
	// global average, and with no history at all the rule degrades to
	// most-fractional.
	branchVar := -1
	branchFrac := 0.0
	if bestGroup < 0 {
		bestScore := -1.0
		for _, j := range w.p.Integers {
			f := res.X[j] - math.Floor(res.X[j])
			if f <= intTol || f >= 1-intTol {
				continue
			}
			score := math.Max(w.st.pcDownEst(j)*f, 1e-9) * math.Max(w.st.pcUpEst(j)*(1-f), 1e-9)
			if score > bestScore*(1+1e-9) {
				bestScore = score
				branchVar = j
				branchFrac = f
			}
		}
	}

	if bestGroup < 0 && branchVar == -1 {
		// Integral: candidate incumbent.
		if res.Obj < incObj-absGap {
			r.incumbent = roundInts(res.X, w.isInt)
			r.incObj = res.Obj
		}
		return r, nil
	}

	if bestGroup >= 0 {
		grp := w.p.SOS1[bestGroup]
		// One child per member, fixing it to 1 and siblings to 0. Children
		// are ordered ascending by LP value so the most promising child is
		// pushed last and pops first among equal bounds.
		order := make([]int, len(grp))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return res.X[grp[order[a]]] < res.X[grp[order[b]]]
		})
		for _, oi := range order {
			pick := grp[oi]
			fixes := make([]fix, 0, len(nd.fixes)+len(grp))
			fixes = append(fixes, nd.fixes...)
			for _, j := range grp {
				if j == pick {
					fixes = append(fixes, fix{j, 1, 1})
				} else {
					fixes = append(fixes, fix{j, 0, 0})
				}
			}
			r.children = append(r.children, node{
				fixes: fixes, bound: res.Obj, depth: nd.depth + 1,
				branchVar: -1, cuts: nd.cuts,
			})
		}
		return r, nil
	}

	v := res.X[branchVar]
	fl := math.Floor(v)
	down := node{
		fixes:     appendFix(nd.fixes, fix{branchVar, math.Inf(-1), fl}),
		bound:     res.Obj,
		depth:     nd.depth + 1,
		cuts:      nd.cuts,
		branchVar: branchVar, branchUp: false, branchFrac: branchFrac,
	}
	up := node{
		fixes:     appendFix(nd.fixes, fix{branchVar, fl + 1, math.Inf(1)}),
		bound:     res.Obj,
		depth:     nd.depth + 1,
		cuts:      nd.cuts,
		branchVar: branchVar, branchUp: true, branchFrac: branchFrac,
	}
	// Push the side nearer the LP value last so it pops first on a tie.
	if v-fl > 0.5 {
		r.children = append(r.children, down, up)
	} else {
		r.children = append(r.children, up, down)
	}
	return r, nil
}

// Solve runs branch and bound and returns the best solution found.
func Solve(p *Problem, opt Options) (*Solution, error) {
	if opt.MaxNodes == 0 {
		opt.MaxNodes = defaultMaxNodes
	}
	nVars := p.LP.NumVars()
	isInt := make([]bool, nVars)
	for _, j := range p.Integers {
		if j < 0 || j >= nVars {
			return nil, fmt.Errorf("ilp: integer index %d out of range [0,%d)", j, nVars)
		}
		isInt[j] = true
	}

	st := &searchState{
		opt:          &opt,
		incObj:       math.Inf(1),
		droppedBound: math.Inf(1),
		pcUpSum:      make([]float64, nVars),
		pcDownSum:    make([]float64, nVars),
		pcUpN:        make([]int32, nVars),
		pcDownN:      make([]int32, nVars),
		deadline:     searchDeadline(opt.Context),
	}
	if opt.Separate != nil {
		st.pool = newCutPool(opt.MaxCuts)
	}

	if opt.Incumbent != nil {
		if ok, obj := checkFeasibleBounds(p, p.LP.Bounds, opt.Incumbent); ok {
			st.incumbent = append([]float64(nil), opt.Incumbent...)
			st.incObj = obj
		}
	}

	w := newSearcher(p, &opt, st, isInt)
	st.pushNode(node{bound: math.Inf(-1), branchVar: -1})

	// A context already done (a race loser already cancelled, or a request
	// past its deadline) skips even the root.
	if st.limitHit() {
		// The unexplored root is DROPPED, not exhausted: finish must not
		// read the empty heap as a completed proof (a pre-expired deadline
		// would otherwise claim Infeasible without solving anything).
		st.dropped += len(st.heap)
		st.heap = nil
	}
	for len(st.heap) > 0 && !st.limitHit() {
		if err := st.step(w); err != nil {
			return nil, err
		}
		if st.unbounded {
			return &Solution{Status: Unbounded, Bound: math.Inf(-1), Nodes: st.nodes,
				LPIterations: st.lpIters, BoundTrusted: true}, nil
		}
	}

	sol := st.finish()
	sol.Solver = w.solver.Stats
	return sol, nil
}

// searchState is the branch-and-bound state of one Solve.
type searchState struct {
	opt      *Options
	heap     []node // bound-ordered min-heap, ties pop LIFO
	seq      int64
	deadline time.Time
	limited  bool // limitHit tripped (sticky)

	incumbent []float64
	incObj    float64

	// Pseudo-cost tables (per integer variable, both directions). The g*
	// aggregates keep the unobserved-variable fallback O(1) per lookup.
	pcUpSum   []float64
	pcDownSum []float64
	pcUpN     []int32
	pcDownN   []int32
	gUpSum    float64
	gDownSum  float64
	gUpN      int32
	gDownN    int32

	// pool is the global-cut store (nil when Options.Separate is unset).
	pool *cutPool

	nodes        int
	lpIters      int
	dropped      int
	prunedComb   int
	lpSkipped    int
	cutsAdded    int
	cutNames     map[string]int
	sepRounds    int
	conflictCuts int
	// droppedBound tracks the min parent bound among dropped nodes so the
	// reported Bound stays valid even when subtrees are discarded.
	droppedBound float64

	rootSolved bool
	rootBound  float64
	unbounded  bool
}

// ---- bound-ordered node heap (min bound first, LIFO on ties) ----

// nodeBefore reports whether a should pop before b.
func nodeBefore(a, b *node) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.seq > b.seq
}

func (st *searchState) pushNode(nd node) {
	nd.seq = st.seq
	st.seq++
	st.heap = append(st.heap, nd)
	i := len(st.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !nodeBefore(&st.heap[i], &st.heap[p]) {
			break
		}
		st.heap[i], st.heap[p] = st.heap[p], st.heap[i]
		i = p
	}
}

func (st *searchState) popNode() node {
	h := st.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = node{} // release fix/cut references
	st.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && nodeBefore(&h[l], &h[best]) {
			best = l
		}
		if r < last && nodeBefore(&h[r], &h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// pcUpEst / pcDownEst estimate the per-unit objective degradation of
// branching variable j up/down. Unobserved variables fall back to the
// running average over all observations of that direction, or a neutral 1
// (reducing the product rule to most-fractional) at the very start.
func (st *searchState) pcUpEst(j int) float64 {
	return pcEst(st.pcUpSum, st.pcUpN, j, st.gUpSum, st.gUpN)
}

func (st *searchState) pcDownEst(j int) float64 {
	return pcEst(st.pcDownSum, st.pcDownN, j, st.gDownSum, st.gDownN)
}

func pcEst(sum []float64, n []int32, j int, gSum float64, gN int32) float64 {
	if n[j] > 0 {
		return sum[j] / float64(n[j])
	}
	if gN > 0 {
		return gSum / float64(gN)
	}
	return 1
}

// recordPseudoCost folds the observed LP degradation of a branched child
// into the tables.
func (st *searchState) recordPseudoCost(nd *node, childObj float64) {
	j := nd.branchVar
	if j < 0 || math.IsInf(nd.bound, -1) {
		return
	}
	delta := childObj - nd.bound
	if delta < 0 {
		delta = 0
	}
	f := nd.branchFrac
	if f <= intTol || f >= 1-intTol {
		return
	}
	if nd.branchUp {
		st.pcUpSum[j] += delta / (1 - f)
		st.pcUpN[j]++
		st.gUpSum += delta / (1 - f)
		st.gUpN++
	} else {
		st.pcDownSum[j] += delta / f
		st.pcDownN[j]++
		st.gDownSum += delta / f
		st.gDownN++
	}
}

// limitHit reports whether the search must stop: node budget, deadline, or
// cancelled context. Every trigger is monotone, so the first trip is
// cached. finish labels the stop by whether the deadline has passed, not by
// which trigger fired first.
func (st *searchState) limitHit() bool {
	if !st.limited {
		st.limited = st.nodes >= st.opt.MaxNodes || pastDeadline(st.deadline) ||
			stopRequested(st.opt.Context)
	}
	return st.limited
}

// pruneFrontier discards the popped node and — because the heap is
// bound-ordered — every other open node: none of them can improve the
// incumbent once the heap minimum cannot. The discarded count is folded
// into st.lpSkipped.
func (st *searchState) pruneFrontier() {
	st.lpSkipped += 1 + len(st.heap)
	clear(st.heap) // release fix/cut references
	st.heap = st.heap[:0]
}

// step pops and processes one node.
func (st *searchState) step(w *searcher) error {
	nd := st.popNode()

	if nd.bound > st.incObj-absGap && !math.IsInf(nd.bound, -1) {
		st.pruneFrontier()
		return nil
	}
	r, err := w.processNode(&nd, st.incObj)
	if err != nil {
		return err
	}
	st.lpIters += r.iters
	st.absorb(&nd, r)
	return nil
}

// traceNodeSample sets the node-event sampling stride: every Nth explored
// node emits one trace event, so even deep searches produce a bounded,
// representative progression instead of flooding the recorder.
const traceNodeSample = 64

// absorb merges one node's result into the search state.
func (st *searchState) absorb(nd *node, r *nodeResult) {
	st.conflictCuts += r.conflictCuts
	if r.pruned {
		st.prunedComb++
		st.lpSkipped++
		return
	}
	st.nodes++
	st.cutsAdded += r.cutsAdded
	st.sepRounds += r.sepRounds
	if tr := st.opt.Trace; tr != nil {
		if r.conflictCuts > 0 {
			tr.Counter(obs.CounterConflicts, int64(r.conflictCuts))
		}
		if r.cutsAdded > 0 {
			tr.Counter(obs.CounterCuts, int64(r.cutsAdded))
		}
		if r.sepRounds > 0 {
			tr.Counter(obs.CounterSepRounds, int64(r.sepRounds))
		}
	}
	if r.cutNames != nil {
		if st.cutNames == nil {
			st.cutNames = make(map[string]int)
		}
		for name, n := range r.cutNames {
			st.cutNames[name] += n
		}
	}
	switch r.lpStatus {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		if nd.depth == 0 {
			st.unbounded = true
		}
		return
	case lp.IterLimit:
		// The node's LP could not be solved within the iteration budget even
		// after the cold fallback. Drop it, but keep its parent bound in the
		// reported Bound and flag the result untrusted (see
		// Solution.BoundTrusted); without an incumbent the final status
		// degrades to Limit rather than claiming Infeasible.
		st.dropped++
		if nd.bound < st.droppedBound {
			st.droppedBound = nd.bound
		}
		return
	}

	st.recordPseudoCost(nd, r.obj)
	if nd.depth == 0 && !st.rootSolved {
		st.rootBound = r.obj
		st.rootSolved = true
	}
	if r.incumbent != nil && r.incObj < st.incObj-absGap {
		st.incObj = r.incObj
		st.incumbent = r.incumbent
		st.opt.Trace.Incumbent(int64(st.nodes), st.incObj)
	}
	if tr := st.opt.Trace; tr != nil && st.nodes%traceNodeSample == 1 {
		tr.Node(int64(st.nodes), nd.depth, len(st.heap), r.obj,
			st.incObj, !math.IsInf(st.incObj, 1))
	}
	for i := range r.children {
		st.pushNode(r.children[i])
	}
}

// finish assembles the Solution from the final search state.
func (st *searchState) finish() *Solution {
	sol := &Solution{
		Status:              Limit,
		Bound:               math.Inf(-1),
		Nodes:               st.nodes,
		LPIterations:        st.lpIters,
		Dropped:             st.dropped,
		PrunedCombinatorial: st.prunedComb,
		LPSolvesSkipped:     st.lpSkipped,
		CutsAdded:           st.cutsAdded,
		CutsByName:          st.cutNames,
		SeparationRounds:    st.sepRounds,
		ConflictCuts:        st.conflictCuts,
		BoundTrusted:        st.dropped == 0,
	}
	if st.opt.testCapturePool != nil && st.pool != nil {
		st.opt.testCapturePool(st.pool.snapshot())
	}
	exhausted := len(st.heap) == 0 && st.dropped == 0

	// The proven bound is the min over remaining open (and dropped) nodes;
	// when the tree was fully explored it equals the incumbent.
	bound := st.incObj
	if !exhausted {
		for i := range st.heap {
			if st.heap[i].bound < bound {
				bound = st.heap[i].bound
			}
		}
		if st.droppedBound < bound {
			bound = st.droppedBound
		}
		if !st.rootSolved {
			bound = math.Inf(-1)
		}
	}
	if math.IsInf(st.incObj, 1) && st.rootSolved && exhausted {
		sol.Status = Infeasible
		sol.Bound = st.rootBound
		return sol
	}

	sol.Bound = bound
	if st.incumbent != nil {
		sol.X = st.incumbent
		sol.Obj = st.incObj
		if exhausted || st.incObj-bound <= absGap {
			sol.Status = Optimal
			sol.Bound = st.incObj
		} else {
			sol.Status = Feasible
		}
	} else if exhausted {
		sol.Status = Infeasible
	}
	// A search that stops unproven once its deadline has passed is a
	// deadline stop, reported as Timeout whichever limit tripped first (a
	// node budget or a cancel can win that race). Optimal, Infeasible
	// and Unbounded stand on their own.
	if (sol.Status == Feasible || sol.Status == Limit) && pastDeadline(st.deadline) {
		sol.Status = Timeout
	}
	return sol
}

func appendFix(fs []fix, f fix) []fix {
	out := make([]fix, len(fs)+1)
	copy(out, fs)
	out[len(fs)] = f
	return out
}

func roundInts(x []float64, isInt []bool) []float64 {
	out := append([]float64(nil), x...)
	for j := range out {
		if isInt[j] {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// checkFeasibleBounds verifies x against all rows of the original problem
// and the node bounds supplied by the bounds accessor, returning its
// objective value.
func checkFeasibleBounds(p *Problem, bounds func(j int) (float64, float64), x []float64) (bool, float64) {
	if len(x) != p.LP.NumVars() {
		return false, 0
	}
	for j := 0; j < p.LP.NumVars(); j++ {
		lo, hi := bounds(j)
		if x[j] < lo-1e-6 || x[j] > hi+1e-6 {
			return false, 0
		}
	}
	if !p.LP.RowsSatisfied(x, 1e-6) {
		return false, 0
	}
	obj := 0.0
	for j := 0; j < p.LP.NumVars(); j++ {
		obj += p.LP.Obj(j) * x[j]
	}
	return true, obj
}

// Binary adds a new 0-1 variable to prob's LP and registers it as integral.
// It returns the variable index. This is a convenience for model builders.
func Binary(p *Problem) int {
	j := p.LP.AddVar()
	p.LP.SetBounds(j, 0, 1)
	p.Integers = append(p.Integers, j)
	return j
}

// SortIntegers normalizes the integer index list (useful after bulk model
// construction so branching order is deterministic).
func (p *Problem) SortIntegers() {
	sort.Ints(p.Integers)
}
