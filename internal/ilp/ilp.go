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
// round budget is exhausted. Every cut is globally valid and flows
// through a size-bounded pool — deduplicated by normalized row hash, aged
// by tight-at-optimum activity, compacted when full — so a cut found in
// one subtree strengthens every other. See cuts.go for the validity
// contract.
//
// The search is organised prune-first: open nodes live on a bound-ordered
// priority heap (best-first, with LIFO tie-breaking so equal-bound children
// dive like DFS and keep the warm-start locality), every node is screened
// against the incumbent — and, when Options.NodeBound is set, against a
// caller-supplied combinatorial lower bound — before its LP relaxation is
// ever solved, and once the heap minimum cannot beat the incumbent the
// whole remaining frontier is discarded in one step. Branching prefers SOS1
// groups; a fractional integer variable outside every group is branched on
// by the most-fractional rule.
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
	// Separate, when non-nil, turns the search into branch-and-cut: it is
	// invoked in rounds at every node whose LP relaxation is fractional,
	// before branching, with the node's LP point x (which it must not
	// retain or modify), and returns valid inequalities that x violates
	// (see the validity contract in cuts.go). Cuts the point does not
	// violate beyond a tolerance are dropped; the rest enter the cut pool
	// and the node's live LP, which is re-solved warm, and the next round
	// begins. The node branches only when a round yields no new cut,
	// the point turns integral, or the round budget (maxCutRounds) is
	// exhausted.
	Separate func(x []float64) []lp.CutRow
	// Context, when non-nil, is besides MaxNodes and RootOpen the only way
	// a search stops short. A cancel ends the search at its next limit
	// check, reported exactly as if the node budget had run out (an HTTP
	// job cancel). At its deadline the search stops cleanly and reports
	// the best incumbent (or its absence) with Status Timeout — the
	// anytime contract. Any unproven stop after the deadline, even one
	// tripped by MaxNodes or a cancel, reports Timeout.
	// A stop also ends the node LP in progress within a few dozen pivots
	// (lp.Solver.SetStop); that node is dropped, so BoundTrusted is false.
	Context context.Context
	// Trace, when non-nil, receives search telemetry: separation-round and
	// cut counters, incumbent improvements, and a sampled node event every
	// traceNodeSample-th explored node (depth, LP bound, incumbent,
	// frontier size). A nil Trace costs one nil check per node — the
	// allocation-free hot path is unchanged.
	Trace *obs.Recorder
	// RootOpen, when non-nil, is called once when the root's first LP
	// relaxation leaves the root open: neither infeasible, nor
	// bound-fathomed against the incumbent, nor integral (an LP stopped at
	// its iteration limit counts as open, one stopped by the Context does
	// not). The search is about to cut and branch, or to give up on the
	// root. It returns true when the caller has settled the problem
	// another way: the search then ends at once, before any separation
	// round or further node, with the root dropped, so the Solution is an
	// unproven stop (BoundTrusted false). tempart hands a probe off to its
	// pattern master here; it is a solver hook, not a search setting.
	RootOpen func() (stop bool)

	// testCapturePool, when non-nil, receives the final cut pool
	// contents after the search (validity property tests only; unexported
	// so it is invisible outside the package).
	testCapturePool func([]lp.CutRow)
	// testMaxCuts, when positive, replaces the pool bound maxPoolCuts so
	// tests can force compactions mid-search.
	testMaxCuts int
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
	// relaxation hit the simplex iteration limit or was stopped by the
	// Context. Bound remains valid (the
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
	// admitted to the pool (deduplicated by normalized row hash).
	CutsAdded int
	// SeparationRounds counts node LP re-solves triggered by cut rounds.
	SeparationRounds int
	// Solver is the search's lp.Solver activity (warm vs cold solves,
	// dual-repair pivots).
	Solver lp.SolverStats
}

// maxCutRounds is the per-node separation round budget: root cuts are
// shared by the whole tree and get the larger one.
func maxCutRounds(depth int) int {
	if depth == 0 {
		return 8
	}
	return 2
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
	seq   int64 // push order; ties on bound pop LIFO (dive like DFS)
}

type fix struct {
	j      int
	lo, hi float64
}

// searchState is one Solve's branch-and-bound search: the lp.Solver it
// owns, the root bounds that node fixes are applied against, the cut rows
// bound to the solver, the node heap, the incumbent and the counters.
type searchState struct {
	p        *Problem
	opt      *Options
	solver   *lp.Solver
	rootLo   []float64
	rootHi   []float64
	applied  []int // variables whose bounds currently differ from the root
	isInt    []bool
	heap     []node // bound-ordered min-heap, ties pop LIFO
	seq      int64
	deadline time.Time
	limited  bool // limitHit tripped (sticky)

	incumbent []float64
	incObj    float64

	// pool is the cut store (nil when Options.Separate is unset). The
	// solver's added-row block is the pool's prefix [0, poolApplied) at
	// generation poolGen.
	pool        *cutPool
	poolApplied int
	poolGen     int

	nodes      int
	lpIters    int
	dropped    int
	prunedComb int
	lpSkipped  int
	cutsAdded  int
	sepRounds  int
	// droppedBound tracks the min parent bound among dropped nodes so the
	// reported Bound stays valid even when subtrees are discarded.
	droppedBound float64

	rootSolved bool
	rootBound  float64
	unbounded  bool
}

// applyFixes rebinds the solver to nd's box: previously fixed variables are
// restored to their root bounds and the node's fixes are applied in order
// (repeated fixes of one variable intersect). Returns false when the box is
// empty.
func (st *searchState) applyFixes(fixes []fix) bool {
	for _, j := range st.applied {
		st.solver.SetVarBounds(j, st.rootLo[j], st.rootHi[j])
	}
	st.applied = st.applied[:0]
	for _, f := range fixes {
		lo, hi := st.solver.Bounds(f.j)
		nlo, nhi := math.Max(lo, f.lo), math.Min(hi, f.hi)
		st.applied = append(st.applied, f.j)
		if nlo > nhi {
			return false
		}
		st.solver.SetVarBounds(f.j, nlo, nhi)
	}
	return true
}

// syncPool appends the pool cuts the solver has not applied yet. On a pool
// generation change (compaction) the whole added-row block is dropped and
// rebuilt (the basis goes cold).
func (st *searchState) syncPool() error {
	cp := st.pool
	if cp == nil {
		return nil
	}
	if cp.gen != st.poolGen {
		st.solver.DropAddedRows()
		st.poolApplied = 0
		st.poolGen = cp.gen
	}
	if st.poolApplied == len(cp.rows) {
		return nil
	}
	if err := st.solver.AddRows(cp.rows[st.poolApplied:]); err != nil {
		return fmt.Errorf("ilp: applying pool cuts: %w", err)
	}
	st.poolApplied = len(cp.rows)
	return nil
}

// recordCutActivity credits the applied pool cuts binding at the node
// optimum x. The applied prefix is in sync with the pool here: every pool
// admission since the last syncPool was followed by a rebind.
func (st *searchState) recordCutActivity(x []float64) {
	for i := 0; i < st.poolApplied; i++ {
		r := &st.pool.rows[i]
		if math.Abs(r.Eval(x)-r.RHS) <= cutTightTol {
			st.pool.activity[i]++
		}
	}
}

// applyCuts runs one separation round at a node: call Options.Separate on
// the LP point, admit the violated valid cuts to the pool, and sync the
// solver with the pool. It reports whether the node's LP gained any row,
// which makes a re-solve worthwhile.
func (st *searchState) applyCuts(res *lp.Solution) (bool, error) {
	before := st.solver.AddedRows()
	cuts := st.opt.Separate(res.X)
	nVars := st.p.LP.NumVars()
	admitted := 0
	for i := range cuts {
		c := &cuts[i]
		if validCut(nVars, c) && c.Violation(res.X) >= cutViolationTol && st.pool.add(*c) {
			admitted++
		}
	}
	st.cutsAdded += admitted
	if err := st.syncPool(); err != nil {
		return false, err
	}
	// Progress means the node LP's row set changed and a re-solve is
	// worthwhile: we admitted something (even if a pool compaction shrank
	// the applied row count below `before`), or the rebuild after a
	// compaction changed the applied rows.
	return admitted > 0 || st.solver.AddedRows() != before, nil
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

// solveLP solves the node LP on the bound solver.
func (st *searchState) solveLP() (*lp.Solution, error) {
	for attempt := 0; ; attempt++ {
		res, err := st.solver.Solve()
		if err != nil {
			return nil, fmt.Errorf("ilp: node LP: %w", err)
		}
		st.lpIters += res.Iterations
		if res.Status != lp.Optimal {
			return res, nil
		}
		// Guard against numerical drift of the incrementally updated warm
		// basis: an "optimal" point that violates the original rows (or the
		// node's cut rows) forces one from-scratch re-solve of the node.
		if attempt == 0 && (!st.p.LP.RowsSatisfied(res.X, 1e-6) ||
			!st.solver.AddedRowsSatisfied(res.X, 1e-6)) {
			st.solver.Invalidate()
			continue
		}
		return res, nil
	}
}

// processNode screens one node (combinatorial bound first), solves its LP
// relaxation, runs its separation rounds, and records the outcome: the
// counters, the incumbent and the children it pushes.
func (st *searchState) processNode(nd *node) error {
	if !st.applyFixes(nd.fixes) {
		st.nodes++
		return nil
	}

	// LP-free fathoming: if the caller's combinatorial bound already proves
	// the box infeasible or no better than the incumbent, the simplex never
	// runs for this node — and neither does the cut-view rebind below, so
	// fathomed nodes pay no AddRows reinversion.
	if st.opt.NodeBound != nil {
		if bnd, feasible := st.opt.NodeBound(st.solver.Bounds); !feasible || bnd > st.incObj-absGap {
			st.prunedComb++
			st.lpSkipped++
			return nil
		}
	}
	st.nodes++

	// Bring the solver's added-row block up to the pool: the standing rows
	// stay, and only what other nodes separated since is appended.
	if err := st.syncPool(); err != nil {
		return err
	}
	res, err := st.solveLP()
	if err != nil {
		return err
	}
	if nd.depth == 0 && st.opt.RootOpen != nil && (res.Status == lp.IterLimit && !stopRequested(st.opt.Context) ||
		res.Status == lp.Optimal && res.Obj <= st.incObj-absGap && !integralPoint(res.X, st.p.Integers)) &&
		st.opt.RootOpen() {
		// The root is the only node: dropping it leaves nothing to search
		// and no proof to claim.
		st.dropped++
		return nil
	}
	if res.Status == lp.Optimal && st.opt.Separate != nil {
		if res, err = st.separate(nd, res); err != nil {
			return err
		}
	}
	switch res.Status {
	case lp.Infeasible:
		return nil
	case lp.Unbounded:
		if nd.depth == 0 {
			st.unbounded = true
		}
		return nil
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
		return nil
	}
	st.recordCutActivity(res.X)

	// A node that cannot beat the incumbent is bound-pruned: no children.
	var children []node
	if res.Obj <= st.incObj-absGap {
		children = st.branch(nd, res)
	}
	if nd.depth == 0 && !st.rootSolved {
		st.rootBound = res.Obj
		st.rootSolved = true
	}
	if children == nil && res.Obj < st.incObj-absGap {
		// Integral: the new incumbent.
		st.incObj = res.Obj
		st.incumbent = roundInts(res.X, st.isInt)
		st.opt.Trace.Incumbent(int64(st.nodes), st.incObj)
	}
	if tr := st.opt.Trace; tr != nil && st.nodes%traceNodeSample == 1 {
		tr.Node(int64(st.nodes), nd.depth, len(st.heap), res.Obj,
			st.incObj, !math.IsInf(st.incObj, 1))
	}
	for i := range children {
		st.pushNode(children[i])
	}
	return nil
}

// separate runs a node's separation rounds: while the point is fractional,
// could still beat the incumbent, and the round budget lasts, grow the
// node LP with violated cuts and re-solve warm (the dual simplex re-enters
// from the current basis; the new rows' slacks are the only
// infeasibilities). It returns the node's last LP solution; branching only
// happens once separation dries up. Valid cuts may legitimately empty a
// node box holding no integral point, which ends the rounds early with a
// non-optimal status for the caller to fathom.
func (st *searchState) separate(nd *node, res *lp.Solution) (*lp.Solution, error) {
	cuts0, rounds0 := st.cutsAdded, st.sepRounds
	for round := 0; round < maxCutRounds(nd.depth); round++ {
		if res.Obj > st.incObj-absGap || integralPoint(res.X, st.p.Integers) {
			break
		}
		progressed, err := st.applyCuts(res)
		if err != nil {
			return nil, err
		}
		if !progressed {
			break
		}
		st.sepRounds++
		if res, err = st.solveLP(); err != nil {
			return nil, err
		}
		if res.Status != lp.Optimal {
			break
		}
	}
	st.opt.Trace.Counter(obs.CounterCuts, int64(st.cutsAdded-cuts0))
	st.opt.Trace.Counter(obs.CounterSepRounds, int64(st.sepRounds-rounds0))
	return res, nil
}

// branch returns the children of a fractional node at its LP point res,
// or nil when res is integral.
func (st *searchState) branch(nd *node, res *lp.Solution) []node {
	// Prefer SOS1 group branching: pick the most undecided group (the one
	// whose largest member value is smallest).
	bestGroup := -1
	bestMax := 2.0
	for gi, grp := range st.p.SOS1 {
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

	if bestGroup >= 0 {
		grp := st.p.SOS1[bestGroup]
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
		var children []node
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
			children = append(children, node{
				fixes: fixes, bound: res.Obj, depth: nd.depth + 1,
			})
		}
		return children
	}

	// Every SOS1 group is integral: branch on the most fractional integer
	// variable (the first wins a tie).
	branchVar := -1
	bestScore := 0.0
	for _, j := range st.p.Integers {
		f := res.X[j] - math.Floor(res.X[j])
		if f <= intTol || f >= 1-intTol {
			continue
		}
		if score := f * (1 - f); score > bestScore {
			bestScore = score
			branchVar = j
		}
	}
	if branchVar < 0 {
		return nil
	}

	v := res.X[branchVar]
	fl := math.Floor(v)
	down := node{
		fixes: appendFix(nd.fixes, fix{branchVar, math.Inf(-1), fl}),
		bound: res.Obj,
		depth: nd.depth + 1,
	}
	up := node{
		fixes: appendFix(nd.fixes, fix{branchVar, fl + 1, math.Inf(1)}),
		bound: res.Obj,
		depth: nd.depth + 1,
	}
	// Push the side nearer the LP value last so it pops first on a tie.
	if v-fl > 0.5 {
		return []node{down, up}
	}
	return []node{up, down}
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
		p:            p,
		opt:          &opt,
		solver:       lp.NewSolver(p.LP),
		rootLo:       make([]float64, nVars),
		rootHi:       make([]float64, nVars),
		isInt:        isInt,
		incObj:       math.Inf(1),
		droppedBound: math.Inf(1),
		deadline:     searchDeadline(opt.Context),
	}
	for j := 0; j < nVars; j++ {
		st.rootLo[j], st.rootHi[j] = p.LP.Bounds(j)
	}
	// A cancel or deadline also ends the node LP in progress: the LP stops
	// at its iteration limit, so its node is dropped and the search stops
	// at its next limit check.
	if ctx := opt.Context; ctx != nil && ctx.Done() != nil {
		st.solver.SetStop(func() bool { return ctx.Err() != nil })
	}
	if opt.Separate != nil {
		st.pool = newCutPool(opt.testMaxCuts)
	}

	if opt.Incumbent != nil {
		if ok, obj := checkFeasibleBounds(p, p.LP.Bounds, opt.Incumbent); ok {
			st.incumbent = append([]float64(nil), opt.Incumbent...)
			st.incObj = obj
		}
	}

	st.pushNode(node{bound: math.Inf(-1)})

	// A context already done (a cancelled request, or one past its
	// deadline) skips even the root.
	if st.limitHit() {
		// The unexplored root is DROPPED, not exhausted: finish must not
		// read the empty heap as a completed proof (a pre-expired deadline
		// would otherwise claim Infeasible without solving anything).
		st.dropped += len(st.heap)
		st.heap = nil
	}
	for len(st.heap) > 0 && !st.limitHit() {
		if err := st.step(); err != nil {
			return nil, err
		}
		if st.unbounded {
			return &Solution{Status: Unbounded, Bound: math.Inf(-1), Nodes: st.nodes,
				LPIterations: st.lpIters, BoundTrusted: true}, nil
		}
	}

	sol := st.finish()
	sol.Solver = st.solver.Stats
	return sol, nil
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
	h[last] = node{} // release the fix slice
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
	clear(st.heap) // release fix slices
	st.heap = st.heap[:0]
}

// step pops and processes one node.
func (st *searchState) step() error {
	nd := st.popNode()

	if nd.bound > st.incObj-absGap && !math.IsInf(nd.bound, -1) {
		st.pruneFrontier()
		return nil
	}
	return st.processNode(&nd)
}

// traceNodeSample sets the node-event sampling stride: every Nth explored
// node emits one trace event, so even deep searches produce a bounded,
// representative progression instead of flooding the recorder.
const traceNodeSample = 64

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
		SeparationRounds:    st.sepRounds,
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
