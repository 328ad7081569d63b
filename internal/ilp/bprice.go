package ilp

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/lp"
)

// This file implements a generic branch-and-price driver over the lp
// package's dynamic-growth primitives: a restricted set-partitioning
// master (one EQ cover row per item, one LE count row) grows columns in
// place through lp.Solver.AddCols, a caller-supplied pricing problem
// generates negative-reduced-cost columns from the master's duals
// (lp.Solver.RowDuals), and integrality is enforced by Ryan–Foster
// branching on item pairs — the branching scheme under which the pricing
// problem stays the same problem with pair constraints, instead of the
// unpriceable "forbid this exact column" shape plain variable branching
// would create. Column fixing is kept as the fallback for the rare
// fractional points without a fractional Ryan–Foster pair, and refuted
// integral selections (CheckSelection) are cut off with no-good rows
// through the same AddRows arena the cutting-plane layer uses.

// BPColumn is one candidate column of the restricted master: a subset of
// items with its objective cost. The driver owns neither slice after the
// call that passed it in.
type BPColumn struct {
	Items []int
	Cost  float64
}

// BPPricer solves the pricing problem at one node: given the cover-row
// duals lambda (one per item), the count-row dual mu, and the node's
// Ryan–Foster state — same pairs must appear together-or-not-at-all,
// differ pairs never together, forbidden content keys (see BPKey) never at
// all — it returns candidate columns with negative reduced cost
// Cost - Σ lambda[item] - mu, best first. The second result reports an
// INEXACT round: the pricer exhausted its own search budget, so an empty
// return does not prove that no negative column exists and the driver must
// not treat the node bound as proven.
type BPPricer func(lambda []float64, mu float64, same, differ [][2]int, forbidden map[string]bool) ([]BPColumn, bool)

// BPOptions configures SolveBP.
type BPOptions struct {
	// NumItems is the number of items to cover (cover rows 0..NumItems-1).
	NumItems int
	// Count caps the number of selected columns (the LE count row).
	Count int
	// ArtCost is the big-M cost of the per-item artificial columns that
	// keep the restricted master feasible before pricing has produced a
	// cover. It must exceed MaxFeasObj.
	ArtCost float64
	// MaxFeasObj is a proven upper bound on the objective of every
	// artificial-free solution; a converged node bound above it proves the
	// subtree infeasible (only artificials could be carrying the cover).
	MaxFeasObj float64
	// Seeds are the initial columns of the restricted master.
	Seeds []BPColumn
	// Pricer generates columns; nil restricts the search to the seeds
	// (every node bound is then exact over the seed set only, so bounds
	// are reported untrusted unless the seed set is known complete).
	Pricer BPPricer
	// CheckSelection vets an integral selection (the cover/count rows are
	// already satisfied); returning false rejects it and the driver cuts
	// the exact selection off with a no-good row. The callback must be a
	// property of the selection alone (tempart: acyclic pattern
	// precedence), so the no-good is globally valid.
	CheckSelection func(selection [][]int) bool
	// ObjInteger asserts that every column cost is integral, so every
	// feasible objective is too: a converged node bound strictly above
	// incumbent-1 then prunes (the ceiling argument). This is what closes
	// proofs on instances whose LP bound is fractional — without it the
	// search must grind the gap below 1 by branching alone.
	ObjInteger bool

	MaxNodes int // node budget (default 10000)

	// Context, when non-nil, stops the search when it is cancelled or
	// passes its deadline, with the contract of Options.Context.
	Context context.Context
}

// BPSolution is the result of a branch-and-price search.
type BPSolution struct {
	Status Status
	// Columns holds the selected columns' item sets (Optimal/Feasible).
	Columns [][]int
	// Obj is the incumbent objective; Bound the proven global lower bound
	// (root relaxation), valid only when BoundTrusted.
	Obj          float64
	Bound        float64
	BoundTrusted bool

	Nodes            int
	PricingRounds    int
	ColumnsGenerated int
	LPIterations     int
	Solver           lp.SolverStats
}

// BPKey returns the canonical content key of an item set: the sorted
// items, comma-joined. The driver dedups generated columns and addresses
// forbidden content with it; pricers use it against the forbidden map.
func BPKey(items []int) string {
	sorted := append([]int(nil), items...)
	insertionSortInts(sorted)
	buf := make([]byte, 0, 4*len(sorted))
	for k, it := range sorted {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(it), 10)
	}
	return string(buf)
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// bpPattern is one registered master column: sorted items, a membership
// bitset for the Ryan–Foster filters, and the canonical key.
type bpPattern struct {
	items []int
	words []uint64
	key   string
}

func (p *bpPattern) has(item int) bool {
	return p.words[item>>6]&(1<<uint(item&63)) != 0
}

// bpDecision is one branching decision on the path to a node.
type bpDecision struct {
	kind uint8 // bpSame, bpDiffer, bpFixIn, bpFixOut
	a, b int32 // item pair (bpSame/bpDiffer)
	col  int32 // pattern index (bpFixIn/bpFixOut)
}

const (
	bpSame = uint8(iota)
	bpDiffer
	bpFixIn
	bpFixOut
)

// maxPricingRounds bounds the pricing re-solves at one node; past it the
// node's bound counts as unconverged.
const maxPricingRounds = 500

// bpState is the shared search state of one SolveBP call.
type bpState struct {
	opt     BPOptions
	sv      *lp.Solver
	pats    []bpPattern
	patCost []float64      // master objective coefficient per pattern
	byKey   map[string]int // content key -> pattern index
	words   int            // bitset words per pattern

	// Per-node scratch, rebuilt by applyNode.
	same      [][2]int
	differ    [][2]int
	forbidden map[string]bool

	incumbent    [][]int // selected pattern contents (copied)
	incumbentObj float64
	haveInc      bool

	rootBound     float64
	rootConverged bool
	untrusted     bool // a node was pruned without a proven bound

	nodes         int
	pricingRounds int
	colsGenerated int
	lpIters       int

	deadline time.Time
	stopped  bool // limitHit tripped (sticky)
	duals    []float64
}

// SolveBP runs branch-and-price on the set-partitioning master described
// by opts: minimize Σ Cost_S·x_S subject to Σ_{S∋t} x_S = 1 per item t,
// Σ_S x_S ≤ Count, x_S ∈ {0,1}. Columns are generated on demand by
// opts.Pricer; one lp.Solver carries the whole tree, with node re-entry
// through bound resets and the warm dual repair.
func SolveBP(opts BPOptions) (*BPSolution, error) {
	if opts.NumItems <= 0 {
		return nil, fmt.Errorf("ilp: SolveBP: NumItems must be positive")
	}
	if opts.Count <= 0 {
		return nil, fmt.Errorf("ilp: SolveBP: Count must be positive")
	}
	if opts.ArtCost <= opts.MaxFeasObj {
		return nil, fmt.Errorf("ilp: SolveBP: ArtCost %g must exceed MaxFeasObj %g", opts.ArtCost, opts.MaxFeasObj)
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 10000
	}
	deadline := searchDeadline(opts.Context)

	// Restricted master: artificial columns 0..NumItems-1 (cost ArtCost,
	// unit entry in their own cover row, no count-row entry — artificials
	// must never consume the count budget), then the cover and count rows.
	// Every real column arrives through AddCols.
	n := opts.NumItems
	p := lp.NewProblem(n)
	for t := 0; t < n; t++ {
		p.SetObj(t, opts.ArtCost)
		p.SetBounds(t, 0, 1)
	}
	for t := 0; t < n; t++ {
		p.AddRow(lp.EQ, map[int]float64{t: 1}, 1)
	}
	p.AddRow(lp.LE, nil, float64(opts.Count))

	st := &bpState{
		opt:       opts,
		sv:        lp.NewSolver(p),
		byKey:     make(map[string]int),
		words:     (n + 63) / 64,
		forbidden: make(map[string]bool),
		deadline:  deadline,
	}
	if err := st.addColumns(opts.Seeds); err != nil {
		return nil, err
	}

	// DFS over decision paths. Each stack entry owns its full decision
	// list; applyNode rebuilds the solver bounds from scratch at entry, so
	// no un-apply bookkeeping is needed.
	stack := [][]bpDecision{nil}
	for len(stack) > 0 {
		if st.nodes >= opts.MaxNodes {
			break
		}
		if st.limitHit() {
			break
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.nodes++

		children, err := st.processNode(node)
		if err != nil {
			return nil, err
		}
		stack = append(stack, children...)
	}

	sol := &BPSolution{
		Nodes:            st.nodes,
		PricingRounds:    st.pricingRounds,
		ColumnsGenerated: st.colsGenerated,
		LPIterations:     st.lpIters,
		Solver:           st.sv.Stats,
	}
	exhausted := len(stack) == 0 && !st.stopped && st.nodes <= opts.MaxNodes
	switch {
	case exhausted && st.haveInc:
		sol.Status = Optimal
		sol.Columns = st.incumbent
		sol.Obj = st.incumbentObj
		sol.Bound = st.incumbentObj
		sol.BoundTrusted = !st.untrusted
	case exhausted && !st.untrusted:
		sol.Status = Infeasible
		sol.Bound = math.Inf(1)
		sol.BoundTrusted = true
	default:
		// Past the deadline an unproven stop is a deadline stop, whichever
		// limit tripped first (as in the row search's finish).
		if pastDeadline(st.deadline) {
			sol.Status = Timeout
		} else {
			sol.Status = Limit
		}
		if st.haveInc {
			sol.Columns = st.incumbent
			sol.Obj = st.incumbentObj
		}
		sol.Bound = st.rootBound
		sol.BoundTrusted = st.rootConverged
	}
	return sol, nil
}

// limitHit checks the deadline and context limits (the node budget is
// checked by the caller).
func (st *bpState) limitHit() bool {
	if !st.stopped {
		st.stopped = pastDeadline(st.deadline) || stopRequested(st.opt.Context)
	}
	return st.stopped
}

// addColumns registers and appends new master columns, deduplicating by
// content key. Forbidden content is dropped outright.
func (st *bpState) addColumns(cols []BPColumn) error {
	var batch []lp.NewCol
	for _, c := range cols {
		key := BPKey(c.Items)
		if _, dup := st.byKey[key]; dup || st.forbidden[key] {
			continue
		}
		pat := bpPattern{
			items: append([]int(nil), c.Items...),
			words: make([]uint64, st.words),
			key:   key,
		}
		insertionSortInts(pat.items)
		rows := make([]int, 0, len(pat.items)+1)
		vals := make([]float64, 0, len(pat.items)+1)
		for _, it := range pat.items {
			if it < 0 || it >= st.opt.NumItems {
				return fmt.Errorf("ilp: SolveBP: column item %d out of range [0,%d)", it, st.opt.NumItems)
			}
			pat.words[it>>6] |= 1 << uint(it&63)
			rows = append(rows, it)
			vals = append(vals, 1)
		}
		rows = append(rows, st.opt.NumItems) // count row
		vals = append(vals, 1)
		st.byKey[key] = len(st.pats)
		st.pats = append(st.pats, pat)
		st.patCost = append(st.patCost, c.Cost)
		batch = append(batch, lp.NewCol{Obj: c.Cost, Lo: 0, Hi: 1, Rows: rows, Vals: vals})
	}
	if len(batch) == 0 {
		return nil
	}
	st.colsGenerated += len(batch)
	return st.sv.AddCols(batch)
}

// patCol maps a pattern index to its master LP column.
func (st *bpState) patCol(pi int) int { return st.opt.NumItems + pi }

// applyNode rebuilds the solver's pattern bounds and the pricing-side
// same/differ/forbidden state for one node. It returns false when the
// decision list is contradictory on the current column set (a fixed-in
// column refuted by a later decision), which prunes the node outright.
func (st *bpState) applyNode(node []bpDecision) bool {
	for pi := range st.pats {
		st.sv.SetVarBounds(st.patCol(pi), 0, 1)
	}
	st.same = st.same[:0]
	st.differ = st.differ[:0]
	clear(st.forbidden)
	ok := true
	for _, d := range node {
		switch d.kind {
		case bpSame:
			st.same = append(st.same, [2]int{int(d.a), int(d.b)})
		case bpDiffer:
			st.differ = append(st.differ, [2]int{int(d.a), int(d.b)})
		case bpFixIn:
			if lo, hi := st.sv.Bounds(st.patCol(int(d.col))); lo == 0 && hi == 0 {
				ok = false
			}
			st.sv.SetVarBounds(st.patCol(int(d.col)), 1, 1)
		case bpFixOut:
			if lo, _ := st.sv.Bounds(st.patCol(int(d.col))); lo == 1 {
				ok = false
			}
			st.sv.SetVarBounds(st.patCol(int(d.col)), 0, 0)
			st.forbidden[st.pats[d.col].key] = true
		}
	}
	// Ryan–Foster filters apply to every pattern, including ones generated
	// after the decision was taken (a descendant's pricer respects them,
	// but a sibling's need not).
	for pi := range st.pats {
		if st.patternCut(pi) {
			if lo, _ := st.sv.Bounds(st.patCol(pi)); lo == 1 {
				ok = false
			}
			st.sv.SetVarBounds(st.patCol(pi), 0, 0)
		}
	}
	return ok
}

// patternCut reports whether the node's Ryan–Foster decisions exclude
// pattern pi.
func (st *bpState) patternCut(pi int) bool {
	p := &st.pats[pi]
	for _, ab := range st.same {
		if p.has(ab[0]) != p.has(ab[1]) {
			return true
		}
	}
	for _, ab := range st.differ {
		if p.has(ab[0]) && p.has(ab[1]) {
			return true
		}
	}
	return false
}

// processNode solves one node to pricing convergence, handles integral
// selections, and returns the child decision lists to push (nil when the
// node is fathomed).
func (st *bpState) processNode(node []bpDecision) ([][]bpDecision, error) {
	if !st.applyNode(node) {
		return nil, nil
	}
	// No-good rows added for refuted selections re-enter here: the row
	// changes the LP, so the node is re-solved (and re-priced) until the
	// optimum is either fractional, accepted, or pruned. Each no-good cuts
	// off at least the selection that produced it, so the loop terminates;
	// the cap is a defensive backstop.
	for nogoods := 0; ; nogoods++ {
		sol, converged, err := st.solveAndPrice()
		if err != nil {
			return nil, err
		}
		if sol == nil {
			return nil, nil // LP infeasible at this node: proven prune
		}
		// When pricing did not converge, sol.Obj is only the restricted
		// bound, which may overestimate the true node bound: it must not
		// prune, and any prune forced anyway is recorded as untrusted. A
		// branch, by contrast, claims nothing — the children re-price.
		if len(node) == 0 && converged && nogoods == 0 && !st.rootConverged {
			st.rootBound = sol.Obj
			st.rootConverged = true
		}
		if converged {
			if sol.Obj > st.opt.MaxFeasObj+1e-6 {
				return nil, nil // only artificials can cost this much: infeasible subtree
			}
			if st.haveInc {
				cut := st.incumbentObj - 1e-9
				if st.opt.ObjInteger {
					cut = st.incumbentObj - 1 + 1e-6
				}
				if sol.Obj > cut {
					return nil, nil // bound prune
				}
			}
		}
		sel, fracPat, artMass := st.classify(sol)
		if fracPat < 0 && artMass <= intTol*float64(st.opt.NumItems) {
			// Integral selection covering every item.
			contents := make([][]int, len(sel))
			for k, pi := range sel {
				contents[k] = st.pats[pi].items
			}
			if st.opt.CheckSelection == nil || st.opt.CheckSelection(contents) {
				obj := 0.0
				for _, pi := range sel {
					obj += st.patObj(pi)
				}
				if !st.haveInc || obj < st.incumbentObj-1e-9 {
					st.incumbent = make([][]int, len(sel))
					for k, pi := range sel {
						st.incumbent[k] = append([]int(nil), st.pats[pi].items...)
					}
					st.incumbentObj = obj
					st.haveInc = true
				}
				if !converged {
					st.untrusted = true
				}
				return nil, nil
			}
			// Refuted selection: globally valid no-good (any selection
			// containing all of these columns is refuted by the same
			// property), then re-solve this node.
			if nogoods >= 50 {
				st.untrusted = true
				return nil, nil
			}
			cols := make([]int, len(sel))
			vals := make([]float64, len(sel))
			for k, pi := range sel {
				cols[k] = st.patCol(pi)
				vals[k] = 1
			}
			if err := st.sv.AddRows([]lp.CutRow{{Kind: lp.LE, Cols: cols, Vals: vals, RHS: float64(len(sel)) - 1}}); err != nil {
				return nil, err
			}
			continue
		}
		if fracPat < 0 {
			// Integral patterns but artificial mass: with the count row
			// binding this is an uncovered item. A converged bound above
			// MaxFeasObj was already pruned; landing here means pricing was
			// inexact — give up on the node without a proven bound.
			st.untrusted = true
			return nil, nil
		}
		return st.branch(node, sol, fracPat), nil
	}
}

// patObj returns pattern pi's master objective coefficient. The incumbent
// objective is summed from these instead of the LP objective so that the
// artificial columns' residual dust cannot leak into the reported value.
func (st *bpState) patObj(pi int) float64 { return st.patCost[pi] }

// classify scans the LP point: selected patterns (x > 1-intTol), the most
// fractional pattern (-1 when none), and the total artificial mass.
func (st *bpState) classify(sol *lp.Solution) (sel []int, fracPat int, artMass float64) {
	fracPat = -1
	bestDist := math.Inf(1)
	for pi := range st.pats {
		x := sol.X[st.patCol(pi)]
		if x > 1-intTol {
			sel = append(sel, pi)
		} else if x > intTol {
			if d := math.Abs(x - 0.5); d < bestDist {
				bestDist = d
				fracPat = pi
			}
		}
	}
	for t := 0; t < st.opt.NumItems; t++ {
		artMass += sol.X[t]
	}
	return sel, fracPat, artMass
}

// solveAndPrice iterates LP solve + pricing until no negative-reduced-cost
// column remains (converged=true), the pricer stalls or reports an inexact
// round (converged=false), or the LP proves the node infeasible (nil
// solution). The returned Solution aliases the solver's shared buffer.
func (st *bpState) solveAndPrice() (*lp.Solution, bool, error) {
	for round := 0; ; round++ {
		sol, err := st.sv.Solve()
		if err != nil {
			return nil, false, err
		}
		st.lpIters += sol.Iterations
		switch sol.Status {
		case lp.Infeasible:
			return nil, false, nil
		case lp.Optimal:
		default:
			// Iteration limit or numerical trouble: no proven anything.
			st.untrusted = true
			return nil, false, nil
		}
		if st.opt.Pricer == nil {
			return sol, true, nil
		}
		if round >= maxPricingRounds {
			return sol, false, nil
		}
		if st.limitHit() {
			return sol, false, nil
		}
		st.duals = st.sv.RowDuals(st.duals)
		if st.duals == nil {
			st.untrusted = true
			return nil, false, nil
		}
		st.pricingRounds++
		lambda := st.duals[:st.opt.NumItems]
		mu := st.duals[st.opt.NumItems]
		cand, inexact := st.opt.Pricer(lambda, mu, st.same, st.differ, st.forbidden)
		before := len(st.pats)
		if err := st.addColumns(cand); err != nil {
			return nil, false, err
		}
		if len(st.pats) == before {
			return sol, !inexact, nil
		}
		// New columns must obey the node's Ryan–Foster cuts even if the
		// pricer slipped (defense in depth; the bounds default to [0,1]).
		for pi := before; pi < len(st.pats); pi++ {
			if st.patternCut(pi) {
				st.sv.SetVarBounds(st.patCol(pi), 0, 0)
			}
		}
	}
}

// branch builds the two children for the current fractional point: a
// Ryan–Foster item pair with fractional together-mass when one exists
// (the pricing-friendly branching — children constrain pairs, which the
// pattern-tree walk enforces natively), otherwise a fix/forbid split on the
// most fractional pattern. The constraining side is returned last, so the
// LIFO stack dives into it first.
func (st *bpState) branch(node []bpDecision, sol *lp.Solution, fracPat int) [][]bpDecision {
	bestA, bestB := -1, -1
	bestDist := math.Inf(1)
	// Candidate pairs live inside fractional patterns; together-mass sums
	// over every pattern (integral ones included).
	for pi := range st.pats {
		x := sol.X[st.patCol(pi)]
		if x <= intTol || x >= 1-intTol {
			continue
		}
		items := st.pats[pi].items
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				a, b := items[i], items[j]
				w := 0.0
				for qi := range st.pats {
					if xq := sol.X[st.patCol(qi)]; xq > intTol && st.pats[qi].has(a) && st.pats[qi].has(b) {
						w += xq
					}
				}
				if w > intTol && w < 1-intTol {
					if d := math.Abs(w - 0.5); d < bestDist {
						bestA, bestB, bestDist = a, b, d
					}
				}
			}
		}
	}
	child := func(d bpDecision) []bpDecision {
		c := make([]bpDecision, len(node)+1)
		copy(c, node)
		c[len(node)] = d
		return c
	}
	if bestA >= 0 {
		return [][]bpDecision{
			child(bpDecision{kind: bpDiffer, a: int32(bestA), b: int32(bestB)}),
			child(bpDecision{kind: bpSame, a: int32(bestA), b: int32(bestB)}),
		}
	}
	return [][]bpDecision{
		child(bpDecision{kind: bpFixOut, col: int32(fracPat)}),
		child(bpDecision{kind: bpFixIn, col: int32(fracPat)}),
	}
}
