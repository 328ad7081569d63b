package tempart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
)

// This file implements the partition-pattern (branch-and-price) formulation
// of the temporal partitioning problem. Where the row formulation (Eqs. 1-8
// in model.go) decides y[t][p] for every task × partition pair, the pattern
// formulation decides which partition CONTENTS to use: a column is one
// feasible pattern — a DAG-convex, area-feasible task set S with cost
// d(S) = the longest delay-weighted chain inside S — and the restricted
// master selects at most N patterns that cover every task exactly once,
// minimizing Σ d(S). ilp.SolveBP drives the search: Ryan–Foster branching
// on task pairs, an exact DFS pricing problem over the presolve's
// reachability bitsets, and an acyclicity vet (CheckSelection) that cuts
// cyclic pattern-precedence selections off with no-good rows.
//
// Soundness rests on three facts about valid temporal partitionings:
//
//   - Convexity: a partition's content S is convex in the DAG order — if
//     u,v ∈ S and u ⤳ w ⤳ v, then w ∈ S (w's partition is sandwiched
//     between S's and S's). Pricing enumerates only convex sets.
//   - Delay: for a valid assignment, each root-leaf path's in-partition
//     restriction is a chain of S (intermediates cannot leave and return),
//     so d_p equals the longest delay-weighted chain in S — the pattern
//     cost, computable without the path enumeration.
//   - Sufficiency: disjoint convex area-feasible patterns covering all
//     tasks whose pattern-precedence digraph (S_a → S_b iff a DAG edge
//     crosses from S_a to S_b) is acyclic can be topologically ordered
//     into a valid temporal partitioning.
//
// The pattern master's LP bound is the Gilmore–Gomory set-partitioning
// bound, which dominates the area ratio and (with the convexity and chain
// costs) the row formulation's relaxation on mixed-cardinality packings —
// the regime where the row model's search degenerates into an exponential
// symmetric crawl. The formulation is gated to instances whose worst-case
// boundary traffic fits the on-board memory (patternsApplicable): exactly
// the instances whose memory rows the row model drops too, so neither
// formulation models Eq. 3 when they compete.

// patternPricer is the pricing problem of the pattern formulation: find
// feasible patterns with negative reduced cost d(S) − Σ λ_t − μ under the
// node's Ryan–Foster constraints. One pricer serves a whole SolveBP run.
type patternPricer struct {
	pre   *presolve
	words int
	desc  [][]uint64 // strict descendants bitset per task (dual of pre.reach)
	order []int      // topological candidate order (pre.topo)
	pos   []int      // task -> position in order
	// sufMinRes[i]: the smallest CLB demand among order[i:] — lets the DFS
	// abandon a branch as soon as no remaining task can fit the residual
	// area (emissions only happen at include steps).
	sufMinRes []int
	// unitCost prices every pattern at 1 instead of d(S): the master then
	// bounds the minimum number of patterns (the set-partitioning packing
	// bound patternPackBound exposes to the property tests).
	unitCost bool
	budget   int // DFS step budget per pricing call; exhausted => inexact
	// done is the solve's cancellation channel (nil: never cancelled). The
	// DFS polls it every pricerPollSteps steps and reports a cancelled
	// round inexact, so a cancelled solve never prices out a whole budget.
	done <-chan struct{}

	// scratch, reused across pricing calls (SolveBP prices sequentially)
	member   []uint64
	descAll  []uint64
	inSet    []bool
	chain    []float64
	saveDesc [][]uint64
}

// pricerBudget bounds one pricing call's DFS steps. Beyond it the round is
// reported inexact, which SolveBP handles soundly (no bound claims).
const pricerBudget = 1_000_000

// pricerPollSteps is the DFS stride between cancellation polls (a power of
// two: the poll is a mask test on the step count).
const pricerPollSteps = 1024

// maxPricedCols caps the columns returned per pricing round (best reduced
// cost first); more would bloat the master faster than it helps.
const maxPricedCols = 40

func newPatternPricer(pre *presolve, unitCost bool) *patternPricer {
	nT := len(pre.delays)
	words := (nT + 63) / 64
	pp := &patternPricer{
		pre:      pre,
		words:    words,
		desc:     make([][]uint64, nT),
		order:    pre.topo,
		pos:      make([]int, nT),
		unitCost: unitCost,
		budget:   pricerBudget,
		member:   make([]uint64, words),
		descAll:  make([]uint64, words),
		inSet:    make([]bool, nT),
		chain:    make([]float64, nT),
	}
	flat := make([]uint64, nT*words)
	for t := 0; t < nT; t++ {
		pp.desc[t] = flat[t*words : (t+1)*words]
	}
	// Strict-descendant bitsets in reverse topological order:
	// desc[t] = ∪_{t→v} desc[v] ∪ {v}.
	g := pre.g
	for i := len(pp.order) - 1; i >= 0; i-- {
		t := pp.order[i]
		dt := pp.desc[t]
		for _, v := range g.Succs(t) {
			dv := pp.desc[v]
			for w := range dt {
				dt[w] |= dv[w]
			}
			dt[v>>6] |= 1 << uint(v&63)
		}
	}
	pp.sufMinRes = make([]int, nT+1)
	pp.sufMinRes[nT] = 1 << 30
	for i := nT - 1; i >= 0; i-- {
		pp.sufMinRes[i] = pp.sufMinRes[i+1]
		if r := pre.res[pp.order[i]]; r < pp.sufMinRes[i] {
			pp.sufMinRes[i] = r
		}
	}
	for i, t := range pp.order {
		pp.pos[t] = i
	}
	pp.saveDesc = make([][]uint64, nT)
	saveFlat := make([]uint64, nT*words)
	for i := 0; i < nT; i++ {
		pp.saveDesc[i] = saveFlat[i*words : (i+1)*words]
	}
	return pp
}

// patternDelay computes d(S): the longest delay-weighted chain among the
// items (a chain in the ancestor order extends to a root-leaf path whose
// in-partition restriction is exactly the chain).
func (pp *patternPricer) patternDelay(items []int) float64 {
	ord := append([]int(nil), items...)
	sort.Slice(ord, func(a, b int) bool { return pp.pos[ord[a]] < pp.pos[ord[b]] })
	chain := make([]float64, len(ord))
	best := 0.0
	for i, t := range ord {
		c := 0.0
		rt := pp.pre.reach[t]
		for j := 0; j < i; j++ {
			u := ord[j]
			if rt[u>>6]&(1<<uint(u&63)) != 0 && chain[j] > c {
				c = chain[j]
			}
		}
		chain[i] = c + pp.pre.delays[t]
		if chain[i] > best {
			best = chain[i]
		}
	}
	return best
}

// patternCost is the master objective coefficient of a pattern.
func (pp *patternPricer) patternCost(items []int) float64 {
	if pp.unitCost {
		return 1
	}
	return pp.patternDelay(items)
}

// patternFeasible reports whether items is a feasible partition content:
// area-feasible in every capped dimension and convex in the DAG order.
func (pp *patternPricer) patternFeasible(items []int) bool {
	pre := pp.pre
	area := 0
	extra := make([]int, len(pre.extraCap))
	member := make([]uint64, pp.words)
	descAll := make([]uint64, pp.words)
	for _, t := range items {
		if t < 0 || t >= len(pre.delays) {
			return false
		}
		member[t>>6] |= 1 << uint(t&63)
		dt := pp.desc[t]
		for w := range descAll {
			descAll[w] |= dt[w]
		}
		area += pre.res[t]
		for k := range pre.extraDemand {
			extra[k] += pre.extraDemand[k][t]
		}
	}
	if area > pre.board.FPGA.CLBs {
		return false
	}
	for k, used := range extra {
		if used > pre.extraCap[k] {
			return false
		}
	}
	// Convexity: no excluded task may be both a descendant of a member and
	// an ancestor of a member.
	for _, t := range items {
		rt := pre.reach[t]
		for w := range rt {
			if rt[w]&descAll[w]&^member[w] != 0 {
				return false
			}
		}
	}
	return true
}

// price is the ilp.BPPricer: an exact DFS over the topological candidate
// order that enumerates every convex, area-feasible pattern compatible with
// the node's Ryan–Foster state, emitting the best negative-reduced-cost
// ones. Convexity is maintained by the taint rule — a task whose ancestor
// set intersects the current members' descendants outside the member set
// can never join (the intermediate was already decided out) — and the
// search is pruned by the suffix of positive duals (the reduced cost of any
// extension is bounded below by cost − λ(S) − μ − Σ_{j≥i, λ>0} λ_j, since
// the chain cost only grows along a branch). Exhausting the step budget,
// or a cancelled solve, reports the round inexact; SolveBP then makes no
// bound claims from it.
func (pp *patternPricer) price(lambda []float64, mu float64, same, differ [][2]int, forbidden map[string]bool) ([]ilp.BPColumn, bool) {
	pre := pp.pre
	nT := len(pre.delays)
	clbCap := pre.board.FPGA.CLBs
	const eps = 1e-9

	posSuf := make([]float64, nT+1)
	for i := nT - 1; i >= 0; i-- {
		posSuf[i] = posSuf[i+1]
		if l := lambda[pp.order[i]]; l > 0 {
			posSuf[i] += l
		}
	}
	samePart := make([][]int, nT)
	differPart := make([][]int, nT)
	for _, ab := range same {
		samePart[ab[0]] = append(samePart[ab[0]], ab[1])
		samePart[ab[1]] = append(samePart[ab[1]], ab[0])
	}
	for _, ab := range differ {
		differPart[ab[0]] = append(differPart[ab[0]], ab[1])
		differPart[ab[1]] = append(differPart[ab[1]], ab[0])
	}

	for w := range pp.member {
		pp.member[w] = 0
		pp.descAll[w] = 0
	}
	for t := 0; t < nT; t++ {
		pp.inSet[t] = false
	}
	cur := make([]int, 0, nT)
	extraUsed := make([]int, len(pre.extraCap))
	areaRes := 0
	lamSum := 0.0
	steps := 0
	inexact := false

	type cand struct {
		items []int
		cost  float64
		rc    float64
	}
	var best []cand
	worst := -1 // index of the worst (largest rc) kept candidate
	keeps := func(rc float64) bool { return len(best) < maxPricedCols || rc < best[worst].rc }
	// record keeps cur; the caller has checked keeps(rc).
	record := func(cost, rc float64) {
		items := append([]int(nil), cur...)
		if len(best) < maxPricedCols {
			best = append(best, cand{items, cost, rc})
			if worst < 0 || rc > best[worst].rc {
				worst = len(best) - 1
			}
			return
		}
		best[worst] = cand{items, cost, rc}
		worst = 0
		for k := 1; k < len(best); k++ {
			if best[k].rc > best[worst].rc {
				worst = k
			}
		}
	}

	var dfs func(i int, curDelay float64)
	dfs = func(i int, curDelay float64) {
		if inexact {
			return
		}
		steps++
		if steps > pp.budget || steps&(pricerPollSteps-1) == 0 && pp.cancelled() {
			inexact = true
			return
		}
		// Reduced-cost prune: no extension from here can go negative.
		costLB := curDelay
		if pp.unitCost {
			costLB = 1 // every emitted pattern is nonempty
		}
		if costLB-lamSum-mu-posSuf[i] >= -eps {
			return
		}
		if i == nT {
			return
		}
		// Area prune: emissions only happen at include steps, and no
		// remaining task fits the residual area.
		if areaRes+pp.sufMinRes[i] > clbCap {
			return
		}
		t := pp.order[i]

		// Include branch.
		canInclude := areaRes+pre.res[t] <= clbCap
		for k := range pre.extraDemand {
			if !canInclude {
				break
			}
			if extraUsed[k]+pre.extraDemand[k][t] > pre.extraCap[k] {
				canInclude = false
			}
		}
		if canInclude {
			// Taint rule: an excluded intermediate makes t unreachable.
			rt := pre.reach[t]
			for w := range rt {
				if rt[w]&pp.descAll[w]&^pp.member[w] != 0 {
					canInclude = false
					break
				}
			}
		}
		if canInclude {
			for _, u := range differPart[t] {
				if pp.inSet[u] {
					canInclude = false
					break
				}
			}
		}
		if canInclude {
			// A same-partner already decided out forbids t.
			for _, u := range samePart[t] {
				if pp.pos[u] < i && !pp.inSet[u] {
					canInclude = false
					break
				}
			}
		}
		if canInclude {
			copy(pp.saveDesc[i], pp.descAll)
			pp.member[t>>6] |= 1 << uint(t&63)
			pp.inSet[t] = true
			dt := pp.desc[t]
			for w := range pp.descAll {
				pp.descAll[w] |= dt[w]
			}
			areaRes += pre.res[t]
			for k := range pre.extraDemand {
				extraUsed[k] += pre.extraDemand[k][t]
			}
			lamSum += lambda[t]
			c := 0.0
			rt := pre.reach[t]
			for _, u := range cur {
				if rt[u>>6]&(1<<uint(u&63)) != 0 && pp.chain[u] > c {
					c = pp.chain[u]
				}
			}
			pp.chain[t] = c + pre.delays[t]
			nd := curDelay
			if pp.chain[t] > nd {
				nd = pp.chain[t]
			}
			cur = append(cur, t)

			cost := nd
			if pp.unitCost {
				cost = 1
			}
			if rc := cost - lamSum - mu; rc < -eps {
				complete := true
			emit:
				for _, u := range cur {
					for _, v := range samePart[u] {
						if !pp.inSet[v] {
							complete = false
							break emit
						}
					}
				}
				// The key is built only for a candidate the round
				// would keep, and only when a branch forbids columns.
				if complete && keeps(rc) && (len(forbidden) == 0 || !forbidden[ilp.BPKey(cur)]) {
					record(cost, rc)
				}
			}
			dfs(i+1, nd)

			cur = cur[:len(cur)-1]
			lamSum -= lambda[t]
			for k := range pre.extraDemand {
				extraUsed[k] -= pre.extraDemand[k][t]
			}
			areaRes -= pre.res[t]
			copy(pp.descAll, pp.saveDesc[i])
			pp.inSet[t] = false
			pp.member[t>>6] &^= 1 << uint(t&63)
		}

		// Exclude branch: dead when a same-partner is already in the set
		// (every deeper emission would carry the partner without t).
		for _, u := range samePart[t] {
			if pp.inSet[u] {
				return
			}
		}
		dfs(i+1, curDelay)
	}
	dfs(0, 0)

	sort.Slice(best, func(a, b int) bool { return best[a].rc < best[b].rc })
	cols := make([]ilp.BPColumn, len(best))
	for k, c := range best {
		cols[k] = ilp.BPColumn{Items: c.items, Cost: c.cost}
	}
	return cols, inexact
}

// cancelled reports whether the solve's context is done.
func (pp *patternPricer) cancelled() bool {
	select {
	case <-pp.done:
		return true
	default:
		return false
	}
}

// seedColumns builds the restricted master's initial columns: every
// singleton (feasible by task validation), the cached greedy heuristics'
// partition blocks (unless warm starts are disabled — they come from the
// list partitioner), and one antichain per Chvátal–Gomory cardinality
// family (pairwise-incomparable sets are trivially convex, and the CG
// families name exactly the task sets whose cardinality interplay drives
// the packing bound).
func (pp *patternPricer) seedColumns(withGreedy bool) []ilp.BPColumn {
	pre := pp.pre
	nT := len(pre.delays)
	var seeds []ilp.BPColumn
	add := func(items []int) {
		seeds = append(seeds, ilp.BPColumn{Items: items, Cost: pp.patternCost(items)})
	}
	for t := 0; t < nT; t++ {
		add([]int{t})
	}
	if withGreedy {
		for _, gr := range pre.greedy {
			if !gr.ok {
				continue
			}
			blocks := make([][]int, gr.usedN)
			for t, p := range gr.assign {
				blocks[p] = append(blocks[p], t)
			}
			for _, b := range blocks {
				if len(b) >= 2 && pp.patternFeasible(b) {
					add(b)
				}
			}
		}
	}
	incomparable := func(u, v int) bool {
		return pre.reach[u][v>>6]&(1<<uint(v&63)) == 0 &&
			pre.reach[v][u>>6]&(1<<uint(u&63)) == 0
	}
	for _, fam := range pre.cgFams {
		var anti []int
		area := 0
		extra := make([]int, len(pre.extraCap))
	fam:
		for _, t := range fam.tasks {
			if area+pre.res[t] > pre.board.FPGA.CLBs {
				continue
			}
			for k := range pre.extraDemand {
				if extra[k]+pre.extraDemand[k][t] > pre.extraCap[k] {
					continue fam
				}
			}
			for _, u := range anti {
				if !incomparable(t, u) {
					continue fam
				}
			}
			anti = append(anti, t)
			area += pre.res[t]
			for k := range pre.extraDemand {
				extra[k] += pre.extraDemand[k][t]
			}
		}
		if len(anti) >= 2 {
			add(anti)
		}
	}
	return seeds
}

// selectionOrder topologically orders a selection's patterns by their
// precedence digraph (S_a → S_b iff a DAG edge crosses from S_a to S_b).
// ok=false reports a cycle — the selection is not a valid partitioning.
// Ties break on the smallest member topological position, so the order is
// deterministic.
func (pp *patternPricer) selectionOrder(sel [][]int) ([]int, bool) {
	k := len(sel)
	nT := len(pp.pre.delays)
	patOf := make([]int, nT)
	for t := range patOf {
		patOf[t] = -1
	}
	minPos := make([]int, k)
	for pi, items := range sel {
		minPos[pi] = nT
		for _, t := range items {
			if t < 0 || t >= nT {
				return nil, false
			}
			patOf[t] = pi
			if pp.pos[t] < minPos[pi] {
				minPos[pi] = pp.pos[t]
			}
		}
	}
	adj := make([][]bool, k)
	indeg := make([]int, k)
	for pi := range adj {
		adj[pi] = make([]bool, k)
	}
	for _, e := range pp.pre.g.Edges() {
		a, b := patOf[e.From], patOf[e.To]
		if a >= 0 && b >= 0 && a != b && !adj[a][b] {
			adj[a][b] = true
			indeg[b]++
		}
	}
	order := make([]int, 0, k)
	done := make([]bool, k)
	for len(order) < k {
		pick := -1
		for pi := 0; pi < k; pi++ {
			if done[pi] || indeg[pi] != 0 {
				continue
			}
			if pick < 0 || minPos[pi] < minPos[pick] {
				pick = pi
			}
		}
		if pick < 0 {
			return nil, false // cycle
		}
		done[pick] = true
		order = append(order, pick)
		for qi := 0; qi < k; qi++ {
			if adj[pick][qi] {
				indeg[qi]--
			}
		}
	}
	return order, true
}

// selectionAcyclic is the ilp.BPOptions.CheckSelection callback: a
// property of the selection alone, so SolveBP's no-good rows are globally
// valid.
func (pp *patternPricer) selectionAcyclic(sel [][]int) bool {
	_, ok := pp.selectionOrder(sel)
	return ok
}

// patternsApplicable gates the pattern formulation to instances whose
// worst-case boundary traffic fits the on-board memory: exactly the
// instances whose memory rows buildModel drops as never-binding, so the
// pattern master (which has no memory rows) solves the same problem.
func patternsApplicable(g *dfg.Graph, board arch.Board) bool {
	total := 0
	for _, e := range g.Edges() {
		total += e.Data
	}
	return total <= board.Memory.Words
}

// solveForNPatterns is the pattern-formulation twin of solveForN: build the
// pricer, run branch-and-price at the fixed partition budget N, and map the
// winning selection back to a task assignment. The return contract matches
// solveForN exactly — (nil, nil) relaxes N, errors abort the relax loop,
// Timeout-with-incumbent yields an anytime Partial result.
func solveForNPatterns(ctx context.Context, in Input, pre *presolve, paths [][]int, N int) (*Partitioning, error) {
	g := in.Graph
	nT := g.NumTasks()
	buildStart := time.Now()
	buildSpan := in.Trace.BeginArg(obs.PhaseModelBuild, int64(N))
	pp := newPatternPricer(pre, false)
	pp.done = ctx.Done()
	sumDelay := 0.0
	integral := true
	for t := 0; t < nT; t++ {
		d := g.Task(t).Delay
		sumDelay += d
		if d != math.Trunc(d) {
			integral = false
		}
	}
	opts := ilp.BPOptions{
		NumItems: nT,
		Count:    N,
		// Artificial cost mirrors the ilp layer's big-M discipline: far above
		// any feasible objective (Σ d(S) ≤ Σ_t D(t) over an exact cover), far
		// below overflow.
		ArtCost:        4*sumDelay + 16,
		MaxFeasObj:     sumDelay,
		Seeds:          pp.seedColumns(!in.DisableWarmStart),
		Pricer:         pp.price,
		CheckSelection: pp.selectionAcyclic,
		ObjInteger:     integral,
		MaxNodes:       in.MaxNodes,
		Context:        ctx,
	}
	buildTime := time.Since(buildStart)
	buildSpan.End()

	var sol *ilp.BPSolution
	solveTime, err := searchProbe(ctx, in, N, func() (int, lp.SolverStats, error) {
		var err error
		if sol, err = ilp.SolveBP(opts); err != nil {
			return 0, lp.SolverStats{}, err
		}
		return sol.Nodes, sol.Solver, nil
	})
	if err != nil {
		return nil, err
	}

	switch sol.Status {
	case ilp.Infeasible:
		if !sol.BoundTrusted {
			return nil, fmt.Errorf("tempart: branch-and-price exhausted at N=%d without a trusted infeasibility proof", N)
		}
		return nil, nil // relax N
	case ilp.Unbounded:
		return nil, errors.New("tempart: pattern master unbounded (internal error)")
	case ilp.Timeout:
		if len(sol.Columns) == 0 {
			return nil, fmt.Errorf("%w (N=%d)", ErrDeadline, N)
		}
	case ilp.Limit:
		if len(sol.Columns) == 0 {
			return nil, fmt.Errorf("tempart: search limit hit with no feasible partitioning at N=%d", N)
		}
	}

	order, ok := pp.selectionOrder(sol.Columns)
	if !ok {
		return nil, errors.New("tempart: accepted selection has cyclic pattern precedence (internal error)")
	}
	assign := make([]int, nT)
	for t := range assign {
		assign[t] = -1
	}
	for idx, pi := range order {
		for _, t := range sol.Columns[pi] {
			assign[t] = idx
		}
	}
	for t, p := range assign {
		if p < 0 {
			return nil, fmt.Errorf("tempart: task %d uncovered in pattern selection", t)
		}
	}
	if err := CheckFeasible(g, in.Board, assign, N); err != nil {
		return nil, fmt.Errorf("tempart: pattern selection infeasible (internal error): %w", err)
	}
	// SolveBP's Bound is a valid lower bound on Σ d(S) (0 when the root
	// never converged — still sound, just weak).
	part := probePartitioning(in, paths, assign, sol.Status == ilp.Optimal && sol.BoundTrusted, sol.Bound, SolveStats{
		N: N, Vars: nT + sol.ColumnsGenerated, Rows: nT + 1, Paths: len(paths),
		Nodes: sol.Nodes, LPIterations: sol.LPIterations,
		ColumnsGenerated: sol.ColumnsGenerated,
		PricingRounds:    sol.PricingRounds,
		BuildTime:        buildTime, SolveTime: solveTime,
		Solver:      sol.Solver,
		Formulation: FormulationPatterns,
	})
	part.Partial, part.BoundTrusted = sol.Status == ilp.Timeout, sol.BoundTrusted
	return part, nil
}

// patternPackBound returns the unit-cost pattern master's root bound: the
// converged column-generation LP bound on the minimum number of patterns
// any cover needs. The property tests compare it against the combinatorial
// packingNeed floor — the pattern bound must dominate it (rounded up),
// since convexity only shrinks the pattern set. trusted=false reports that
// pricing did not converge at the root (budget), making the bound only
// restricted-master-valid.
func patternPackBound(g *dfg.Graph, board arch.Board) (float64, bool) {
	pre := newPresolve(g, board)
	pp := newPatternPricer(pre, true)
	// The probe is offline (property tests, not the solve path), so it can
	// afford a much deeper DFS: a converged root is the whole point here,
	// and wide unit-cost instances (parallel FIR banks) need the headroom.
	pp.budget = 16 * pricerBudget
	nT := g.NumTasks()
	if nT == 0 {
		return 0, true
	}
	sol, err := ilp.SolveBP(ilp.BPOptions{
		NumItems:   nT,
		Count:      nT,
		ArtCost:    4*float64(nT) + 16,
		MaxFeasObj: float64(nT),
		Seeds:      pp.seedColumns(true),
		Pricer:     pp.price,
		ObjInteger: true,
		MaxNodes:   1,
	})
	if err != nil {
		return 0, false
	}
	return sol.Bound, sol.BoundTrusted
}
