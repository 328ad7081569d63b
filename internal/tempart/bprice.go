package tempart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

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
// on task pairs, an exact pricing problem, and an acyclicity vet
// (CheckSelection) that cuts cyclic pattern-precedence selections off with
// no-good rows. Pricing enumerates the feasible patterns over the
// presolve's reachability bitsets into a static tree, built at most once
// per Solve and kept beside the presolve for every later probe, and each
// round walks that tree with the round's duals and branching state. A
// pattern space too large for the tree is not priced at all: the pattern
// master does not run on it (patternsApplicable).
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
// bound plus, for an odd task count, ilp.SolveBP's parity row (the
// ½-rounding of the cover rows), which dominates the area ratio and (with
// the convexity and chain costs) the row formulation's relaxation on
// mixed-cardinality packings — the regime where the row model's search
// degenerates into an exponential symmetric crawl. The parity row closes
// the odd-cardinality gap of instances whose patterns hold at most two
// tasks (near-half-board chains), where the set-partitioning LP alone is
// the matching LP and covers an odd task set with half-pairs. The
// formulation is gated (patternsApplicable) to instances whose worst-case
// boundary traffic fits the on-board memory — exactly the instances whose
// memory rows the row model drops too, so neither formulation models Eq. 3
// when they compete — and whose pattern tree fits, so every pricing round
// is exact.

// patternPricer is the pricing problem of the pattern formulation: find
// feasible patterns with negative reduced cost d(S) − Σ λ_t − μ −
// σ·⌊|S|/2⌋ under the node's Ryan–Foster constraints. One pricer serves
// every pattern probe of a Solve: patternsApplicable creates it and builds
// its tree, and keeps it on the presolve only when the tree fits.
//
// Pricing is split by what depends on the duals. The static include rules
// — CLB and extra-resource area, the convexity taint rule, the chain delay
// — do not, so buildTree enumerates every feasible pattern once into a
// tree, and each round walks that tree applying only the per-round rules:
// the reduced-cost prune, the Ryan–Foster checks and the emission (walk).
type patternPricer struct {
	pre   *presolve
	words int
	desc  [][]uint64 // strict descendants bitset per task (dual of pre.reach)
	order []int      // topological candidate order (pre.topo)
	pos   []int      // task -> position in order
	// sufMinRes[i]: the smallest CLB demand among order[i:] — lets the
	// enumeration abandon a set as soon as no remaining task can fit the
	// residual area (emissions only happen at include steps).
	sufMinRes []int
	// done is the running probe's cancellation channel (nil: never
	// cancelled). The walk polls it (stepper) and reports a cancelled round
	// inexact.
	done <-chan struct{}

	// tree is the static enumeration tree (buildTree).
	tree []patternNode

	// The enumeration's current set, reused across pricing calls (SolveBP
	// prices sequentially). join and leave keep cur and inSet, all the walk
	// needs; add and remove keep the rest for the static rules.
	cur       []int
	inSet     []bool
	member    []uint64
	descAll   []uint64
	saveDesc  [][]uint64 // descAll before the include at each position
	chain     []float64  // longest chain in the set ending at each member
	areaRes   int
	extraUsed []int
}

// patternNode is one feasible pattern of the enumeration tree: its
// parent's set plus the task order[pos], with d(S) = delay. Nodes are in
// the enumeration's pre-order, so a node's subtree is tree[index+1:end]
// and end is also the index of its next sibling, if it has one.
type patternNode struct {
	pos, end int32
	delay    float64
}

// maxTreeNodes caps the enumeration tree at 2^18 16-byte nodes (4 MiB);
// the pattern master does not run on a larger pattern space.
const maxTreeNodes = 1 << 18

// pricerBudget bounds the enumeration steps of one tree build; a build
// past it is abandoned like one past maxTreeNodes. A round's walk steps at
// most as often as the build did, so it never reaches the budget.
const pricerBudget = 1_000_000

// pricerPollSteps is the enumeration stride between cancellation polls (a
// power of two: the poll is a mask test on the step count).
const pricerPollSteps = 1024

// maxPricedCols caps the columns returned per pricing round (best reduced
// cost first); more would bloat the master faster than it helps.
const maxPricedCols = 40

// rcEps is the reduced-cost tolerance: a column prices out below −rcEps.
const rcEps = 1e-9

func newPatternPricer(pre *presolve) *patternPricer {
	nT := len(pre.delays)
	words := (nT + 63) / 64
	pp := &patternPricer{
		pre:       pre,
		words:     words,
		desc:      make([][]uint64, nT),
		order:     pre.topo,
		pos:       make([]int, nT),
		cur:       make([]int, 0, nT),
		inSet:     make([]bool, nT),
		member:    make([]uint64, words),
		descAll:   make([]uint64, words),
		chain:     make([]float64, nT),
		extraUsed: make([]int, len(pre.extraCap)),
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

// fits is the area prune at position i: some task of order[i:] still fits
// beside the current set.
func (pp *patternPricer) fits(i int) bool {
	return pp.areaRes+pp.sufMinRes[i] <= pp.pre.board.FPGA.CLBs
}

// canAdd applies the static include rules to task t beside the current
// set: CLB and extra-resource area, and the taint rule that keeps the set
// convex — t may not join when one of its ancestors is a descendant of a
// member outside the set (that intermediate was already decided out).
func (pp *patternPricer) canAdd(t int) bool {
	pre := pp.pre
	if pp.areaRes+pre.res[t] > pre.board.FPGA.CLBs {
		return false
	}
	for k := range pre.extraDemand {
		if pp.extraUsed[k]+pre.extraDemand[k][t] > pre.extraCap[k] {
			return false
		}
	}
	rt := pre.reach[t]
	for w := range rt {
		if rt[w]&pp.descAll[w]&^pp.member[w] != 0 {
			return false
		}
	}
	return true
}

// add includes t = order[i] in the current set, whose d(S) is delay, and
// returns the new set's d(S): the longest delay-weighted chain among the
// members (a chain in the ancestor order extends to a root-leaf path whose
// in-partition restriction is exactly the chain).
func (pp *patternPricer) add(i, t int, delay float64) float64 {
	pre := pp.pre
	copy(pp.saveDesc[i], pp.descAll)
	pp.member[t>>6] |= 1 << uint(t&63)
	dt := pp.desc[t]
	for w := range pp.descAll {
		pp.descAll[w] |= dt[w]
	}
	pp.areaRes += pre.res[t]
	for k := range pre.extraDemand {
		pp.extraUsed[k] += pre.extraDemand[k][t]
	}
	c := 0.0
	rt := pre.reach[t]
	for _, u := range pp.cur {
		if rt[u>>6]&(1<<uint(u&63)) != 0 && pp.chain[u] > c {
			c = pp.chain[u]
		}
	}
	pp.chain[t] = c + pre.delays[t]
	if pp.chain[t] > delay {
		delay = pp.chain[t]
	}
	pp.join(t)
	return delay
}

// remove undoes add(i, t, ·) of the set's last member t.
func (pp *patternPricer) remove(i, t int) {
	pre := pp.pre
	pp.leave(t)
	for k := range pre.extraDemand {
		pp.extraUsed[k] -= pre.extraDemand[k][t]
	}
	pp.areaRes -= pre.res[t]
	copy(pp.descAll, pp.saveDesc[i])
	pp.member[t>>6] &^= 1 << uint(t&63)
}

func (pp *patternPricer) join(t int) {
	pp.inSet[t] = true
	pp.cur = append(pp.cur, t)
}

func (pp *patternPricer) leave(t int) {
	pp.inSet[t] = false
	pp.cur = pp.cur[:len(pp.cur)-1]
}

// measure adds distinct items to the empty set in topological order, as
// the enumeration would reach them, and takes them out again. feasible
// reports whether every include passed canAdd (the set is area-feasible
// in every capped dimension and convex); delay is d(S).
func (pp *patternPricer) measure(items []int) (feasible bool, delay float64) {
	for _, t := range items {
		if t < 0 || t >= len(pp.order) {
			return false, 0
		}
	}
	ord := append([]int(nil), items...)
	sort.Slice(ord, func(a, b int) bool { return pp.pos[ord[a]] < pp.pos[ord[b]] })
	feasible = true
	for _, t := range ord {
		feasible = feasible && pp.canAdd(t)
		delay = pp.add(pp.pos[t], t, delay)
	}
	for k := len(ord) - 1; k >= 0; k-- {
		pp.remove(pp.pos[ord[k]], ord[k])
	}
	return feasible, delay
}

// patternCost is the master objective coefficient of a pattern: d(S).
func (pp *patternPricer) patternCost(items []int) float64 {
	_, delay := pp.measure(items)
	return delay
}

// patternFeasible reports whether items is a feasible partition content:
// area-feasible in every capped dimension and convex in the DAG order.
func (pp *patternPricer) patternFeasible(items []int) bool {
	feasible, _ := pp.measure(items)
	return feasible
}

// stepper counts enumeration steps against pricerBudget and polls the
// cancellation channel on the first step and every pricerPollSteps steps
// after it; once stopped it stays stopped.
type stepper struct {
	steps   int
	done    <-chan struct{}
	stopped bool
}

// step counts one step and reports whether the enumeration must stop.
func (s *stepper) step() bool {
	if s.stopped {
		return true
	}
	s.steps++
	if s.steps > pricerBudget || s.steps&(pricerPollSteps-1) == 1 && closed(s.done) {
		s.stopped = true
	}
	return s.stopped
}

// closed reports whether done is closed (a nil channel never is).
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// buildTree enumerates every feasible pattern once into pp.tree: the DFS
// over the topological order with only the static rules, which includes
// order[i] before it excludes it, so the tree is in the DFS's pre-order.
// A round's walk visits a subset of the tree's nodes, so it cannot run out
// of the budget the build fit in. It reports false, leaving no tree, when
// the enumeration exceeds pricerBudget steps or maxNodes nodes, or done is
// closed.
func (pp *patternPricer) buildTree(done <-chan struct{}, maxNodes int) bool {
	nT := len(pp.order)
	st := stepper{done: done}
	pp.tree = make([]patternNode, 0, nT)
	var enum func(i int, delay float64)
	enum = func(i int, delay float64) {
		if st.step() || i == nT || !pp.fits(i) {
			return
		}
		if t := pp.order[i]; pp.canAdd(t) {
			switch len(pp.tree) {
			case maxNodes:
				st.stopped = true
				return
			case cap(pp.tree):
				// Doubling keeps the discarded arrays below the tree's
				// own size, where append's growth for large slices would
				// allocate about five times the tree over a build.
				pp.tree = append(make([]patternNode, 0, min(2*cap(pp.tree), maxNodes)), pp.tree...)
			}
			at := len(pp.tree)
			nd := pp.add(i, t, delay)
			pp.tree = append(pp.tree, patternNode{pos: int32(i), delay: nd})
			enum(i+1, nd)
			pp.tree[at].end = int32(len(pp.tree))
			pp.remove(i, t)
		}
		enum(i+1, delay)
	}
	enum(0, 0)
	if st.stopped {
		pp.tree = nil
		return false
	}
	return true
}

// pricingRound is one pricing call's dual and branching state.
type pricingRound struct {
	pp        *patternPricer
	lambda    []float64
	mu, sigma float64
	posSuf    []float64 // posSuf[i] = Σ λ_t over t ∈ order[i:] with λ_t > 0
	same      [][2]int
	samePart  [][]int // task -> its same-partners
	differ    [][]int // task -> its differ-partners
	forbidden map[string]bool
	steps     stepper
	best      []pricedColumn
	worst     int // index of the worst (largest rc) kept column
}

type pricedColumn struct {
	items    []int
	cost, rc float64
}

// pruned is the reduced-cost prune at position i of the current set, with
// d(S) = delay and dual sum lamSum: no extension by order[i:] can price
// negative, since the cost only grows along a branch, the duals still to
// come add at most posSuf[i], and the parity term is at least
// parityFloor(σ, |S|, len(order)-i). posSuf shrinks and the parity floor
// grows as i grows, so a prune at i holds at every later position too.
func (r *pricingRound) pruned(i int, delay, lamSum float64) bool {
	pp := r.pp
	return delay-lamSum-r.mu-r.posSuf[i]+parityFloor(r.sigma, len(pp.cur), len(pp.order)-i) >= -rcEps
}

// parityFloor is a lower bound on the parity term −σ·⌊|S'|/2⌋ of every
// extension S' of a size-s set by 1 to rest more tasks. For σ ≤ 0 the term
// grows with |S'|, so the one-task extension bounds it; for σ > 0 (the
// LP's tolerance on a ≤ row's dual) it shrinks, so the largest does.
func parityFloor(sigma float64, s, rest int) float64 {
	if sigma <= 0 {
		return -sigma * float64((s+1)/2)
	}
	return -sigma * float64((s+rest)/2)
}

// admits applies the Ryan–Foster rules to including t = order[i]: no
// differ-partner may be in the set, and no same-partner may have been
// decided out at an earlier position.
func (r *pricingRound) admits(t, i int) bool {
	pp := r.pp
	for _, u := range r.differ[t] {
		if pp.inSet[u] {
			return false
		}
	}
	for _, u := range r.samePart[t] {
		if pp.pos[u] < i && !pp.inSet[u] {
			return false
		}
	}
	return true
}

// nextStop returns the exclusion stop of the set that t = order[i] just
// joined: the first position after i whose task has a same-partner in the
// set (len(order) when none). Excluding that task would leave every
// deeper set carrying the partner without it, so the enumeration excludes
// nothing there. stop is the set's stop before t joined, at or after i;
// only when t sat at it does the stop move past a member's partner, and
// the pairs are scanned again.
func (r *pricingRound) nextStop(stop, i, t int) int {
	pp := r.pp
	if i == stop {
		stop = len(pp.order)
		for _, ab := range r.same {
			for k, u := range ab {
				if p := pp.pos[ab[1-k]]; pp.inSet[u] && p > i && p < stop {
					stop = p
				}
			}
		}
		return stop
	}
	for _, v := range r.samePart[t] {
		if p := pp.pos[v]; p > i && p < stop {
			stop = p
		}
	}
	return stop
}

// offer keeps the current set, with d(S) = delay and dual sum lamSum,
// among the round's best maxPricedCols columns when it prices negative,
// holds every same-partner of its members, and is not forbidden.
func (r *pricingRound) offer(delay, lamSum float64) {
	pp := r.pp
	rc := delay - lamSum - r.mu - r.sigma*float64(len(pp.cur)/2)
	if rc >= -rcEps || len(r.best) == maxPricedCols && rc >= r.best[r.worst].rc {
		return
	}
	for _, u := range pp.cur {
		for _, v := range r.samePart[u] {
			if !pp.inSet[v] {
				return
			}
		}
	}
	// The key is built only for a column the round would keep, and only
	// when a branch forbids columns.
	if len(r.forbidden) > 0 && r.forbidden[ilp.BPKey(pp.cur)] {
		return
	}
	col := pricedColumn{append([]int(nil), pp.cur...), delay, rc}
	if len(r.best) < maxPricedCols {
		r.best = append(r.best, col)
		if len(r.best) == 1 || rc > r.best[r.worst].rc {
			r.worst = len(r.best) - 1
		}
		return
	}
	r.best[r.worst] = col
	r.worst = 0
	for k := 1; k < len(r.best); k++ {
		if r.best[k].rc > r.best[r.worst].rc {
			r.worst = k
		}
	}
}

// walk prices the children tree[lo:hi] of the current set, with d(S) =
// delay, dual sum lamSum and exclusion stop stop (see nextStop). Its
// reference is the per-round DFS that applies the static and the
// per-round rules at every step (referencePrice in the tests). The child
// at position i is that DFS's include step at i, which the DFS reaches
// only when no position from the parent's to i was pruned — the same as i
// not being pruned, since the prune only tightens as i grows — and i is
// not past the stop.
func (r *pricingRound) walk(lo, hi int, delay, lamSum float64, stop int) {
	pp := r.pp
	for c := lo; c < hi; c = int(pp.tree[c].end) {
		n := pp.tree[c]
		i := int(n.pos)
		if i > stop || r.pruned(i, delay, lamSum) || r.steps.step() {
			return
		}
		t := pp.order[i]
		if !r.admits(t, i) {
			continue
		}
		pp.join(t)
		lam := lamSum + r.lambda[t]
		r.offer(n.delay, lam)
		r.walk(c+1, int(n.end), n.delay, lam, r.nextStop(stop, i, t))
		pp.leave(t)
	}
}

// price is the ilp.BPPricer: an exact enumeration, in the topological
// candidate order, of every convex, area-feasible pattern compatible with
// the node's Ryan–Foster state, emitting the best negative-reduced-cost
// ones. It walks the tree buildTree built, which must have fit: the tree
// holds the reference DFS's include steps in its pre-order, so the walk
// offers the same sets in the same sequence, and it skips a child exactly
// when the DFS would not include that task (see walk). Each
// set's dual sum is the sum of its members' duals in inclusion order,
// carried by value, so a column's reduced cost does not depend on what the
// enumeration visited before it. A cancelled probe reports the round
// inexact; SolveBP then makes no bound claims from it.
func (pp *patternPricer) price(lambda []float64, mu, sigma float64, same, differ [][2]int, forbidden map[string]bool) ([]ilp.BPColumn, bool) {
	nT := len(pp.order)
	r := &pricingRound{
		pp:        pp,
		lambda:    lambda,
		mu:        mu,
		sigma:     sigma,
		posSuf:    make([]float64, nT+1),
		same:      same,
		samePart:  make([][]int, nT),
		differ:    make([][]int, nT),
		forbidden: forbidden,
		steps:     stepper{done: pp.done},
	}
	for i := nT - 1; i >= 0; i-- {
		r.posSuf[i] = r.posSuf[i+1]
		if l := lambda[pp.order[i]]; l > 0 {
			r.posSuf[i] += l
		}
	}
	for _, ab := range same {
		r.samePart[ab[0]] = append(r.samePart[ab[0]], ab[1])
		r.samePart[ab[1]] = append(r.samePart[ab[1]], ab[0])
	}
	for _, ab := range differ {
		r.differ[ab[0]] = append(r.differ[ab[0]], ab[1])
		r.differ[ab[1]] = append(r.differ[ab[1]], ab[0])
	}
	r.walk(0, len(pp.tree), 0, 0, nT)

	sort.Slice(r.best, func(a, b int) bool { return r.best[a].rc < r.best[b].rc })
	cols := make([]ilp.BPColumn, len(r.best))
	for k, c := range r.best {
		cols[k] = ilp.BPColumn{Items: c.items, Cost: c.cost}
	}
	return cols, r.steps.stopped
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

// patternsExcluded reports a solve the pattern master cannot run: its
// worst-case boundary traffic exceeds the on-board memory, or its pattern
// tree is known not to fit. The first is exactly the instances whose
// memory rows buildModel keeps, which the pattern master (it has no memory
// rows) would not solve. The check builds nothing.
func patternsExcluded(in Input, pre *presolve) bool {
	total := 0
	for _, e := range in.Graph.Edges() {
		total += e.Data
	}
	return total > in.Board.Memory.Words || pre.treeOverflow
}

// patternsApplicable decides whether the pattern master may run a probe of
// this solve: it is not excluded (patternsExcluded), and its pattern tree
// fits the step budget and the node cap, so every pricing round is exact.
//
// The tree is built at most once per solve, here, under ctx, and kept on
// the presolve (pre.pricer) when it fits; a tree that does not fit is
// remembered too (pre.treeOverflow), and the solve runs rows from then on.
// A build stopped by ctx leaves the tree unknown, so a later probe builds
// again. The build runs under a model-build span for the probe's N.
func patternsApplicable(ctx context.Context, in Input, pre *presolve, N int) bool {
	switch {
	case patternsExcluded(in, pre):
		return false
	case pre.pricer != nil:
		return true
	}
	maxNodes := maxTreeNodes
	if in.testMaxTreeNodes > 0 {
		maxNodes = in.testMaxTreeNodes
	}
	pp := newPatternPricer(pre)
	span := in.Trace.BeginArg(obs.PhaseModelBuild, int64(N))
	fits := pp.buildTree(ctx.Done(), maxNodes)
	span.End()
	switch {
	case fits:
		pre.pricer = pp
	case ctx.Err() == nil:
		pre.treeOverflow = true
	}
	return pre.pricer != nil
}

// delayStep is the objective granularity of the pattern master
// (ilp.BPOptions.ObjStep): the greatest common divisor of the task delays
// (non-negative, by graph validation) when every delay is a whole number
// that float64 holds exactly, else 0. Every d(S) is the delay sum of a
// chain, so every objective is a multiple of it.
func delayStep(delays []float64) float64 {
	var step int64
	for _, d := range delays {
		if d != math.Trunc(d) || d > 1<<53 {
			return 0
		}
		a, b := int64(d), step
		for b != 0 {
			a, b = b, a%b
		}
		step = a
	}
	return float64(step)
}

// solveForNPatterns is the pattern-formulation twin of solveForN: run
// branch-and-price at the fixed partition budget N over the solve's pricer,
// which patternsApplicable must have built, and map the winning selection
// back to a task assignment. The return contract matches solveForN exactly
// — (nil, nil) relaxes N, errors abort the relax loop, Timeout-with-
// incumbent yields an anytime Partial result.
func solveForNPatterns(ctx context.Context, in Input, pre *presolve, N int) (*Partitioning, error) {
	g := in.Graph
	nT := g.NumTasks()
	buildStart := time.Now()
	buildSpan := in.Trace.BeginArg(obs.PhaseModelBuild, int64(N))
	pp := pre.pricer
	pp.done = ctx.Done()
	sumDelay := 0.0
	for t := 0; t < nT; t++ {
		sumDelay += g.Task(t).Delay
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
		ObjStep:        delayStep(pre.delays),
		MaxNodes:       in.MaxNodes,
		Context:        ctx,
	}
	buildTime := time.Since(buildStart)
	buildSpan.End()

	var sol *ilp.BPSolution
	solveTime, err := searchProbe(ctx, in, N, nil, func(func() bool) (int, lp.SolverStats, error) {
		var err error
		if sol, err = ilp.SolveBP(opts); err != nil {
			return 0, lp.SolverStats{}, err
		}
		return sol.Nodes, sol.Solver, nil
	})
	if err != nil {
		return nil, err
	}

	var assign []int
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
			// The deadline beat the master's first integral selection: the
			// greedy warm start its seeds came from is the partial answer.
			if !in.DisableWarmStart {
				assign = pre.bestGreedy(N)
			}
			if assign == nil {
				return nil, fmt.Errorf("%w (N=%d)", ErrDeadline, N)
			}
		}
	case ilp.Limit:
		if len(sol.Columns) == 0 {
			return nil, fmt.Errorf("tempart: search limit hit with no feasible partitioning at N=%d", N)
		}
	}

	if assign == nil {
		order, ok := pp.selectionOrder(sol.Columns)
		if !ok {
			return nil, errors.New("tempart: accepted selection has cyclic pattern precedence (internal error)")
		}
		assign = make([]int, nT)
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
	}
	if err := CheckFeasible(g, in.Board, assign, N); err != nil {
		return nil, fmt.Errorf("tempart: pattern selection infeasible (internal error): %w", err)
	}
	// SolveBP's Bound is a valid lower bound on Σ d(S) (0 when the root
	// never converged — still sound, just weak).
	part := probePartitioning(in, pre, assign, sol.Status == ilp.Optimal && sol.BoundTrusted, sol.Bound, SolveStats{
		N: N, Nodes: sol.Nodes, LPIterations: sol.LPIterations,
		ColumnsGenerated: sol.ColumnsGenerated,
		PricingRounds:    sol.PricingRounds,
		BuildTime:        buildTime, SolveTime: solveTime,
		Solver:      sol.Solver,
		Formulation: FormulationPatterns,
	})
	part.Partial, part.BoundTrusted = sol.Status == ilp.Timeout, sol.BoundTrusted
	return part, nil
}
