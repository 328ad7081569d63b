package tempart

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/arch"
	"repro/internal/dfg"
)

// presolve holds the combinatorial view of one partitioning instance,
// computed once per Solve and shared by every relax-N probe and every
// branch-and-bound node. It exists so that the cheap, LP-free facts about
// the instance — DAG longest paths, transitive reachability, and area
// totals — can reject candidate partition counts and fathom B&B subtrees
// before the simplex ever runs:
//
//   - Relax loop: the area-packing lower bound (MinPartitions) and the
//     greedy-feasibility upper bound (maxFeasibleN) bracket the useful N
//     range, so infeasible and dominated N probes are rejected without an
//     LP solve.
//   - Search tree: nodeBoundFunc maps a node's y-variable box to a valid
//     lower bound on Σ d_p (critical path and per-partition longest fixed
//     chains) plus per-partition area feasibility; ilp uses it to skip the
//     LP entirely (Options.NodeBound).
//
// All bounds are conservative: they never exceed the true LP relaxation
// bound of the same box, which the presolve property tests pin down.
type presolve struct {
	g     *dfg.Graph
	board arch.Board

	topo        []int      // topological order of task indices
	reach       [][]uint64 // reach[t]: bitset of ancestors of t (tasks with a path to t)
	delays      []float64  // D(t)
	res         []int      // R(t)
	extraKinds  []string   // capped extra resource kinds, aligned with extraDemand
	extraDemand [][]int    // extraDemand[k][t]: demand of task t for kind k
	extraCap    []int      // board capacity per kind

	critical  float64 // max root-leaf path delay: max_t ancChain[t]
	areaDelay float64 // layer-cake area×delay lower bound on Σ_p d_p
	segments  []layerSeg
	totalRes  int

	// ancChain[t] / descChain[t]: longest delay-weighted chain ending /
	// starting at t (inclusive). A task placed in partition q drags its
	// whole ancestor chain into partitions <= q and its descendant chain
	// into partitions >= q, which is what the boundary chain-area cuts
	// exploit (see cuts.go).
	ancChain  []float64
	descChain []float64

	// cgFams caches the Chvátal–Gomory cardinality families (cuts.go):
	// they depend only on the instance, so every relax-N probe shares one
	// computation.
	cgFams []cgFamily

	// paths holds the root-to-leaf paths a solve enumerated (at most
	// MaxPaths): the Eq. 7 rows and the separator's longest-path chain
	// seeds read them, and nothing else does. Solve sets it; presolves
	// built for bounds alone leave it nil.
	paths [][]int

	// groups caches g.InterchangeableGroups(): the model builder consumes
	// it per relax-N probe (symmetry-breaking rows) and the warm start per
	// probe again (incumbent canonicalization), and the computation walks
	// every task pair.
	groups [][]int

	// greedy caches the two warm-start heuristics (plain and
	// type-homogeneous topological packing), each validated once at its own
	// partition count. Feasibility is monotone in N, so a cached certificate
	// at usedN serves every probe with N >= usedN — maxFeasibleN and every
	// warmStart call read these instead of re-running the packing.
	greedy [2]greedyResult

	// pricer is the pattern master's pricer with its pattern tree, and
	// treeOverflow records a tree that did not fit. patternsApplicable sets
	// them, at most once per solve; a solve runs on one goroutine, so
	// they need no lock.
	pricer       *patternPricer
	treeOverflow bool
}

// greedyResult is one cached warm-start heuristic outcome.
type greedyResult struct {
	assign []int // task -> partition; callers must not mutate
	usedN  int
	ok     bool // assign exists and CheckFeasible passed at usedN
}

// layerSeg is one slab of the layer-cake decomposition: tasks with delay
// >= delay occupy at least need partitions, and the slab spans the delay
// interval (next, delay]. areaDelayBound integrates need over the slabs;
// the per-subset layer-cake cuts reuse them with a subset-adjusted need
// (see subsetDelayFloor).
type layerSeg struct {
	delay float64 // threshold (a distinct task delay)
	next  float64 // next smaller distinct delay (0 past the last)
	need  int     // max over capped resource kinds of ⌈area(>=delay)/cap⌉
}

// newPresolve builds the presolve view. The graph must already be validated
// (acyclic).
func newPresolve(g *dfg.Graph, board arch.Board) *presolve {
	nT := g.NumTasks()
	topo, err := g.TopoOrder()
	if err != nil {
		topo = nil // unreachable for validated graphs
	}
	words := (nT + 63) / 64
	pr := &presolve{
		g:      g,
		board:  board,
		topo:   topo,
		reach:  make([][]uint64, nT),
		delays: make([]float64, nT),
		res:    make([]int, nT),
	}
	flat := make([]uint64, nT*words)
	for t := 0; t < nT; t++ {
		pr.reach[t] = flat[t*words : (t+1)*words]
		pr.delays[t] = g.Task(t).Delay
		pr.res[t] = g.Task(t).Resources
		pr.totalRes += pr.res[t]
	}
	// Ancestor bitsets in topological order: reach[t] = ∪_{u→t} reach[u] ∪ {u}.
	for _, t := range topo {
		rt := pr.reach[t]
		for _, u := range g.Preds(t) {
			ru := pr.reach[u]
			for w := range rt {
				rt[w] |= ru[w]
			}
			rt[u/64] |= 1 << uint(u%64)
		}
	}
	pr.segments = layerSegments(g, board)
	for _, s := range pr.segments {
		pr.areaDelay += (s.delay - s.next) * float64(s.need)
	}
	pr.ancChain = make([]float64, nT)
	pr.descChain = make([]float64, nT)
	for _, t := range topo {
		best := 0.0
		for _, u := range g.Preds(t) {
			if pr.ancChain[u] > best {
				best = pr.ancChain[u]
			}
		}
		pr.ancChain[t] = best + pr.delays[t]
		pr.critical = max(pr.critical, pr.ancChain[t])
	}
	for i := len(topo) - 1; i >= 0; i-- {
		t := topo[i]
		best := 0.0
		for _, u := range g.Succs(t) {
			if pr.descChain[u] > best {
				best = pr.descChain[u]
			}
		}
		pr.descChain[t] = best + pr.delays[t]
	}
	for _, kind := range g.ExtraTypes() {
		cap, capped := board.FPGA.ExtraCapacity[kind]
		if !capped {
			continue
		}
		demand := make([]int, nT)
		for t := 0; t < nT; t++ {
			demand[t] = g.Task(t).Extra[kind]
		}
		pr.extraKinds = append(pr.extraKinds, kind)
		pr.extraDemand = append(pr.extraDemand, demand)
		pr.extraCap = append(pr.extraCap, cap)
	}
	pr.cgFams = cgFamilies(pr)
	pr.groups = g.InterchangeableGroups()
	for i, homogeneous := range []bool{false, true} {
		assign, usedN := greedyAssign(g, board, homogeneous)
		ok := assign != nil && usedN > 0 && CheckFeasible(g, board, assign, usedN) == nil
		pr.greedy[i] = greedyResult{assign: assign, usedN: usedN, ok: ok}
	}
	return pr
}

// sumDelayFloor is the strongest instance-wide lower bound on Σ_p d_p the
// presolve knows: the DAG critical path and the layer-cake area×delay
// bound. Unlike the critical path, the layer-cake bound uses integrality
// (⌈area/capacity⌉ partitions must carry slow tasks), so it can exceed the
// LP relaxation bound — that is exactly what lets it fathom nodes the LP
// would have had to solve.
func (pr *presolve) sumDelayFloor() float64 {
	if pr.areaDelay > pr.critical {
		return pr.areaDelay
	}
	return pr.critical
}

// layerSegments computes the layer-cake decomposition behind the
// area×delay bound: for any threshold x, every partition holds at most the
// board capacity, so the tasks with delay ≥ x occupy at least need(x)
// distinct partitions, each of which has d_p ≥ x (a single task is a
// chain). Integrating over x:
//
//	Σ_p d_p  ≥  Σ_i (D_i − D_{i+1}) · need(D_i)
//
// over the distinct task delays D_1 > D_2 > … (D_{last+1} = 0). need(x) is
// the bin-packing dual bound packingNeedDim over the ≥x task set — not
// just the area ratio ⌈Σ demand / capacity⌉ of PR 3, but also the
// Chvátal–Gomory cardinality bounds (near-capacity items cap how many of
// them share a partition), which is what lifts the floor to the integer
// optimum on the pack portfolio. The segments are returned so the
// separation layer can re-integrate them with a subset-adjusted need
// (subsetDelayFloor).
func layerSegments(g *dfg.Graph, board arch.Board) []layerSeg {
	nT := g.NumTasks()
	if nT == 0 {
		return nil
	}
	order := make([]int, nT)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.Task(order[a]).Delay > g.Task(order[b]).Delay
	})
	kinds := make([]string, 0, len(board.FPGA.ExtraCapacity))
	for kind, cap := range board.FPGA.ExtraCapacity {
		if cap > 0 {
			kinds = append(kinds, kind)
		}
	}
	sort.Strings(kinds)
	// One incrementally sorted accumulator per capped dimension: tasks
	// arrive in descending delay order and each new positive demand is
	// inserted in place (binary search + shift), so need() never re-sorts.
	// The prefix sums ARE rebuilt per segment (an insertion invalidates
	// every entry past its position anyway, so that O(n) pass is the
	// floor); the win over the naive version is dropping the per-segment
	// O(n log n) sort and the O(n²) kappa scan, which packingNeedSorted
	// replaces with binary searches.
	type accum struct {
		cap    int
		demand func(t int) int
		sorted []int
		prefix []int
	}
	accums := make([]*accum, 0, 1+len(kinds))
	if board.FPGA.CLBs > 0 {
		accums = append(accums, &accum{
			cap:    board.FPGA.CLBs,
			demand: func(t int) int { return g.Task(t).Resources },
			prefix: []int{0},
		})
	}
	for _, kind := range kinds {
		kind := kind
		accums = append(accums, &accum{
			cap:    board.FPGA.ExtraCapacity[kind],
			demand: func(t int) int { return g.Task(t).Extra[kind] },
			prefix: []int{0},
		})
	}
	insert := func(a *accum, d int) {
		if d <= 0 {
			return
		}
		at := sort.SearchInts(a.sorted, d)
		a.sorted = append(a.sorted, 0)
		copy(a.sorted[at+1:], a.sorted[at:])
		a.sorted[at] = d
	}
	need := func() int {
		n := 0
		for _, a := range accums {
			a.prefix = a.prefix[:1]
			for i, it := range a.sorted {
				a.prefix = append(a.prefix, a.prefix[i]+it)
			}
			if m := packingNeedSorted(a.sorted, a.prefix, a.cap); m > n {
				n = m
			}
		}
		return n
	}
	var segs []layerSeg
	for i := 0; i < nT; {
		d := g.Task(order[i]).Delay
		for i < nT && g.Task(order[i]).Delay == d {
			for _, a := range accums {
				insert(a, a.demand(order[i]))
			}
			i++
		}
		next := 0.0
		if i < nT {
			next = g.Task(order[i]).Delay
		}
		if d > next {
			segs = append(segs, layerSeg{delay: d, next: next, need: need()})
		}
	}
	return segs
}

// packingNeedDim is the one-dimensional bin-packing dual bound: a lower
// bound on the number of capacity-cap bins any packing of the items needs
// (zero-demand items are ignored; they occupy no capacity). It is the max
// of three families, each valid on its own:
//
//   - area: ⌈Σ items / cap⌉ (the paper's preprocessing bound);
//   - CG cardinality: for every size threshold m, the items of size ≥ m fit
//     at most κ(m) per bin, where κ(m) is the largest k whose k smallest
//     such items still fit — so they need ⌈|≥m| / κ(m)⌉ bins. This is the
//     dual counterpart of the Chvátal–Gomory cardinality cuts in cuts.go
//     (rank-1 rounding of the resource row with multiplier 1/m), and it is
//     what the area ratio misses on near-capacity packings: items of 34..36
//     on a 100-cap bin pack two per bin, not 100/35 ≈ 2.9;
//   - Martello–Toth L2: for every threshold K ≤ cap/2, items larger than
//     cap−K get a bin each, items in (cap/2, cap−K] get a bin each and
//     leave cap − size residue, and the remaining [K, cap/2] area that
//     does not fit those residues needs ⌈·/cap⌉ more bins.
//
// Callers must have validated that every item fits a bin on its own.
func packingNeedDim(items []int, cap int) int {
	if cap <= 0 {
		return 0
	}
	sorted := make([]int, 0, len(items))
	for _, it := range items {
		if it > 0 {
			sorted = append(sorted, it)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Ints(sorted)
	prefix := make([]int, len(sorted)+1)
	for i, it := range sorted {
		prefix[i+1] = prefix[i] + it
	}
	return packingNeedSorted(sorted, prefix, cap)
}

// packingNeedSorted is the packingNeedDim core over pre-sorted positive
// items with their prefix sums (prefix[0] = 0): callers that accumulate
// items incrementally (layerSegments) skip the filter/sort/prefix work.
func packingNeedSorted(sorted, prefix []int, cap int) int {
	if len(sorted) == 0 || cap <= 0 {
		return 0
	}
	total := prefix[len(sorted)]
	need := (total + cap - 1) / cap

	// CG cardinality family over distinct size thresholds: κ for the
	// suffix set sorted[i:] is the largest k with prefix[i+k]−prefix[i] ≤
	// cap, found by binary search on the monotone prefix sums.
	for i := 0; i < len(sorted); i++ {
		if i > 0 && sorted[i] == sorted[i-1] {
			continue // same threshold set as the previous item
		}
		count := len(sorted) - i
		k := sort.SearchInts(prefix[i+1:], prefix[i]+cap+1)
		if k == 0 {
			k = 1 // unreachable for validated items; stay safe
		}
		if m := (count + k - 1) / k; m > need {
			need = m
		}
	}

	// Martello–Toth L2 over the same thresholds.
	for i := 0; i < len(sorted) && sorted[i]*2 <= cap; i++ {
		if i > 0 && sorted[i] == sorted[i-1] {
			continue
		}
		K := sorted[i]
		// Partition [K, cap/2], (cap/2, cap−K], (cap−K, ∞) by index.
		half := sort.SearchInts(sorted, cap/2+1) // first item > cap/2
		big := sort.SearchInts(sorted, cap-K+1)  // first item > cap−K
		n1 := len(sorted) - big                  // bin each, no sharing
		n2 := big - half                         // bin each, residue cap−s
		midArea := prefix[half] - prefix[i]      // [K, cap/2] area
		residue := n2*cap - (prefix[big] - prefix[half])
		m := n1 + n2
		if over := midArea - residue; over > 0 {
			m += (over + cap - 1) / cap
		}
		if m > need {
			need = m
		}
	}
	return need
}

// subsetDelayFloor is the per-subset generalization of the layer-cake
// bound, valid for EVERY subset S of s out of N partitions:
//
//	Σ_{p∈S} d_p  ≥  Σ_i (D_i − D_{i+1}) · max(0, need(D_i) − (N − s))
//
// Proof sketch: the N−s partitions outside S can absorb at most (N−s)
// partitions' worth of the area at delay ≥ D_i, so at least
// need(D_i) − (N−s) partitions *inside S* carry a task of delay ≥ D_i and
// therefore have d_p ≥ D_i; integrating over the thresholds gives the
// bound on the sum (equivalently: the j-th largest partition delay is at
// least X_j = max{D_i : need(D_i) ≥ j}, and any s delays sum to at least
// X_{N-s+1} + … + X_N). s = N recovers the aggregate area×delay bound.
func (pr *presolve) subsetDelayFloor(n, s int) float64 {
	slack := n - s
	sum := 0.0
	for _, seg := range pr.segments {
		if k := seg.need - slack; k > 0 {
			sum += (seg.delay - seg.next) * float64(k)
		}
	}
	return sum
}

// boundaryChainFloor bounds the partition delays on one side of boundary p
// of an n-partition model: Σ_{q<p} d_q (suffix=false) or Σ_{q>=p} d_q
// (suffix=true).
//
// The argument, for the prefix side: partitions p..n-1 absorb at most
// (n-p)·cap area per capped resource kind, so the prefix must hold at
// least A = total - (n-p)·cap of it. Any task t placed in the prefix has
// its entire ancestor chain in the prefix too (temporal order), and that
// chain decomposes into in-partition path segments, so
// Σ_{q<p} d_q ≥ ancChain(t). The tasks with ancChain below some threshold
// θ carry a bounded area; the smallest θ whose tasks reach A is therefore
// a valid floor: any prefix with enough area contains a task with
// ancChain ≥ θ. The suffix side is symmetric with descendant chains. The
// bound uses integrality (which tasks exist, not fractions of them), so —
// like the layer-cake bound — it can exceed the LP relaxation bound; the
// cut-validity property tests pin it against brute force.
func (pr *presolve) boundaryChainFloor(n, p int, suffix bool) float64 {
	chain := pr.ancChain
	outside := n - p
	if suffix {
		chain = pr.descChain
		outside = p
	}
	floor := 0.0
	dim := func(demand []int, cap int) {
		total := 0
		for _, d := range demand {
			total += d
		}
		need := total - outside*cap
		if need <= 0 {
			return
		}
		if th := minMaxChainForArea(chain, demand, need); th > floor && !math.IsInf(th, 1) {
			floor = th
		}
	}
	dim(pr.res, pr.board.FPGA.CLBs)
	for k := range pr.extraDemand {
		dim(pr.extraDemand[k], pr.extraCap[k])
	}
	return floor
}

// minMaxChainForArea returns the smallest achievable maximum chain value
// over any task set whose total demand reaches need: tasks sorted by
// ascending chain are taken greedily, and the chain value at which the
// running demand first reaches need is the threshold (any set with that
// much area must include a task at or above it). +Inf when even all tasks
// fall short (the caller's n is packing-infeasible and never solved).
func minMaxChainForArea(chain []float64, demand []int, need int) float64 {
	order := make([]int, len(chain))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return chain[order[a]] < chain[order[b]] })
	cum := 0
	for _, t := range order {
		cum += demand[t]
		if cum >= need {
			return chain[t]
		}
	}
	return math.Inf(1)
}

// maxFeasibleN returns the lowest partition count at which the greedy
// heuristics produce a feasible partitioning, or 0 when they fail. Because
// model feasibility is monotone in N (a partitioning using K ≤ N partitions
// is feasible for the N-partition model), the relax loop never needs to
// probe beyond this value: every higher N is dominated by the greedy
// certificate.
func (pr *presolve) maxFeasibleN() int {
	best := 0
	for _, gr := range pr.greedy {
		if gr.ok && (best == 0 || gr.usedN < best) {
			best = gr.usedN
		}
	}
	return best
}

// packingNeed is the instance-wide bin-packing dual bound: the max of
// packingNeedDim over every capped resource dimension. A candidate
// partition count below it is provably infeasible — no LP, no search, not
// even the exact packing DFS — which is how the relax loop fathoms the
// too-small N probes of near-capacity packings whose area bound undershoots
// the integral minimum.
func (pr *presolve) packingNeed() int {
	need := packingNeedDim(pr.res, pr.board.FPGA.CLBs)
	for k, demand := range pr.extraDemand {
		if m := packingNeedDim(demand, pr.extraCap[k]); m > need {
			need = m
		}
	}
	return need
}

// packingFeasibleAll runs the bin-packing feasibility pre-check for every
// capped resource dimension (CLBs plus the board's capped extra kinds).
// false proves the ILP infeasible at this N without an LP solve.
func (pr *presolve) packingFeasibleAll(n int) bool {
	if !packingFeasible(pr.res, pr.board.FPGA.CLBs, n) {
		return false
	}
	for k, demand := range pr.extraDemand {
		if !packingFeasible(demand, pr.extraCap[k], n) {
			return false
		}
	}
	return true
}

// nodeScratch is the workspace of the node bound, allocated once per
// callback because the callback runs on every B&B node.
type nodeScratch struct {
	assigned  []int     // task -> fixed partition, or -1
	used      []int     // CLBs fixed per partition
	chain     []float64 // longest fixed-chain delay ending at task t
	maxChain  []float64 // per-partition longest fixed chain
	extraUsed [][]int   // per kind: fixed demand per partition
	unfixed   []int     // residual-packing scratch: unfixed item sizes
	uprefix   []int     // prefix sums over the sorted unfixed sizes
}

// residualPackingInfeasible is the per-node bin-packing dual bound over one
// capped dimension: the node's unfixed items must fit — by area and by
// count — into the partitions' residual capacities. For the count bound,
// each partition p can host at most maxFit(p) unfixed items, where
// maxFit(p) is how many of the globally smallest unfixed items its residue
// cap − used[p] admits (an overestimate per bin, since the same small
// items are offered to every bin — which is exactly what keeps the bound
// conservative). Σ_p maxFit(p) < #unfixed proves the box empty: no
// completion can place every task. This is the node-level extension of
// packingNeedDim, driven by the branching fixes ("fixed-chain occupancy"):
// the deeper the node, the smaller the residues and the sooner a doomed
// subtree fathoms LP-free.
func residualPackingInfeasible(sc *nodeScratch, demand []int, used []int, cap, N int) bool {
	sc.unfixed = sc.unfixed[:0]
	totalUnfixed := 0
	for t, d := range demand {
		if sc.assigned[t] < 0 && d > 0 {
			sc.unfixed = append(sc.unfixed, d)
			totalUnfixed += d
		}
	}
	if len(sc.unfixed) == 0 {
		return false
	}
	sort.Ints(sc.unfixed)
	sc.uprefix = append(sc.uprefix[:0], 0)
	for _, d := range sc.unfixed {
		sc.uprefix = append(sc.uprefix, sc.uprefix[len(sc.uprefix)-1]+d)
	}
	totalResidue, fit := 0, 0
	for p := 0; p < N; p++ {
		rcap := cap - used[p]
		if rcap <= 0 {
			continue
		}
		totalResidue += rcap
		// Largest k with sum of the k smallest unfixed items <= rcap.
		fit += sort.SearchInts(sc.uprefix[1:], rcap+1)
	}
	return totalUnfixed > totalResidue || fit < len(sc.unfixed)
}

// nodeBoundFunc builds the ilp.Options.NodeBound callback for one model
// layout (partition count N, y-variable indexer yv). The returned bound is
// a valid lower bound on Σ_p d_p over the node's box:
//
//	Σ_p d_p  ≥  max( critical path delay,
//	                 Σ_p longest delay-weighted chain among tasks fixed to p )
//
// (a chain in the ancestor partial order extends to a root-leaf path, so
// each partition's delay d_p is at least the delay of any chain fixed to
// it). feasible=false is returned only on certain infeasibility: a task
// with no allowed partition left, a partition whose fixed tasks exceed a
// resource capacity, a task that no longer fits anywhere, or — the
// bin-packing dual bound — residual capacities that cannot absorb the
// unfixed items by area or by count (residualPackingInfeasible; these
// fathoms are tallied in *dualFathoms, feeding SolveStats.DualBoundFathoms).
func (pr *presolve) nodeBoundFunc(N int, yv func(t, p int) int, dualFathoms *int) func(bounds func(j int) (lo, hi float64)) (float64, bool) {
	nT := pr.g.NumTasks()
	// One scratch per callback, since each callback serves one sequential
	// ilp.Solve.
	sc := &nodeScratch{
		assigned: make([]int, nT),
		used:     make([]int, N),
		chain:    make([]float64, nT),
		maxChain: make([]float64, N),
	}
	for range pr.extraKinds {
		sc.extraUsed = append(sc.extraUsed, make([]int, N))
	}
	clbCap := pr.board.FPGA.CLBs
	return func(bounds func(j int) (lo, hi float64)) (float64, bool) {
		for p := 0; p < N; p++ {
			sc.used[p] = 0
			sc.maxChain[p] = 0
		}
		for k := range sc.extraUsed {
			for p := 0; p < N; p++ {
				sc.extraUsed[k][p] = 0
			}
		}
		// Decode the box: fixed partition (lo > ½) and allowed set per task.
		for t := 0; t < nT; t++ {
			sc.assigned[t] = -1
			allowed := 0
			for p := 0; p < N; p++ {
				lo, hi := bounds(yv(t, p))
				if hi > 0.5 {
					allowed++
				}
				if lo > 0.5 {
					sc.assigned[t] = p
				}
			}
			if allowed == 0 {
				return 0, false
			}
			if p := sc.assigned[t]; p >= 0 {
				sc.used[p] += pr.res[t]
				for k := range pr.extraDemand {
					sc.extraUsed[k][p] += pr.extraDemand[k][t]
				}
			}
		}
		// Area feasibility of the fixed assignment.
		for p := 0; p < N; p++ {
			if sc.used[p] > clbCap {
				return 0, false
			}
			for k := range sc.extraUsed {
				if sc.extraUsed[k][p] > pr.extraCap[k] {
					return 0, false
				}
			}
		}
		// Bin-packing dual bound on the residual packing: the unfixed items
		// of every capped dimension must fit the partitions' residues by
		// area and by count.
		if residualPackingInfeasible(sc, pr.res, sc.used, clbCap, N) {
			(*dualFathoms)++
			return 0, false
		}
		for k := range pr.extraDemand {
			if residualPackingInfeasible(sc, pr.extraDemand[k], sc.extraUsed[k], pr.extraCap[k], N) {
				(*dualFathoms)++
				return 0, false
			}
		}
		// Every unfixed task must still fit in some allowed partition next
		// to the tasks already fixed there.
		for t := 0; t < nT; t++ {
			if sc.assigned[t] >= 0 {
				continue
			}
			fits := false
			for p := 0; p < N && !fits; p++ {
				if _, hi := bounds(yv(t, p)); hi <= 0.5 {
					continue
				}
				if sc.used[p]+pr.res[t] > clbCap {
					continue
				}
				ok := true
				for k := range pr.extraDemand {
					if sc.extraUsed[k][p]+pr.extraDemand[k][t] > pr.extraCap[k] {
						ok = false
						break
					}
				}
				fits = ok
			}
			if !fits {
				return 0, false
			}
		}
		// Longest fixed chain per partition: chains in the ancestor order
		// extend to root-leaf paths, so d_p ≥ maxChain[p] for any
		// completion of this box.
		for _, t := range pr.topo {
			p := sc.assigned[t]
			if p < 0 {
				continue
			}
			best := 0.0
			rt := pr.reach[t]
			for w, word := range rt {
				for word != 0 {
					u := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					if sc.assigned[u] == p && sc.chain[u] > best {
						best = sc.chain[u]
					}
				}
			}
			sc.chain[t] = best + pr.delays[t]
			if sc.chain[t] > sc.maxChain[p] {
				sc.maxChain[p] = sc.chain[t]
			}
		}
		sum := 0.0
		for p := 0; p < N; p++ {
			sum += sc.maxChain[p]
		}
		if floor := pr.sumDelayFloor(); floor > sum {
			sum = floor
		}
		return sum, true
	}
}
