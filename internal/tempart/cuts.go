package tempart

import (
	"math"
	"sort"

	"repro/internal/dfg"
	"repro/internal/lp"
)

// This file is the cutting-plane side of the temporal partitioning model:
// the uniform cut-row representation shared by the presolve (root cuts
// baked into the model at build time) and the separation callback (cuts
// added to the live node LPs during branch and bound), plus the two
// separator families over the ilp.Options.Separate hook:
//
//   - temporal-order clique cuts: for a chain a_1 ≺ a_2 ≺ … ≺ a_k in the
//     ancestor partial order (straight from the presolve's reachability
//     bitsets) and descending partition bands I_1 > I_2 > … > I_k, at most
//     one of the variables {y[a_i][p] : p ∈ I_i} can be 1 — an ancestor
//     placed late excludes every descendant placed early — so
//     Σ_i Σ_{p∈I_i} y[a_i][p] ≤ 1. The band choice per chain is an exact
//     O(k·N²) DP on the fractional point. Chains are seeded two ways:
//     the k longest (delay-weighted) enumerated paths — the cheap stand-in
//     for a k-longest-paths enumeration since the model already owns the
//     full path list — and chains grown greedily through the most
//     fractional tasks using the bitsets ("path" vs "clique" tags);
//   - per-subset lifted layer-cake cuts Σ_{p∈S} d_p ≥ c_{|S|},
//     generalizing the aggregate presolve row to every partition subset
//     (see presolve.subsetDelayFloor for the validity argument; the
//     lifting is the integrality ceiling inside need()).
//
// Both families are globally valid — derived from the instance data and
// integrality alone, never from branching decisions — as the ilp cut pool
// requires: a cut separated at one node strengthens every later node's
// relaxation. The cut-validity property tests brute-force this against
// all integral feasible assignments of random instances.

// modelCut is the uniform cut-row representation: an lp.CutRow named by
// the family that produced it. Separation hands the rows to the
// branch-and-cut layer; the names are for the validity tests' messages.
type modelCut struct {
	name string
	lp.CutRow
}

// cgFamily is one Chvátal–Gomory cardinality family: a task set S (a size
// threshold in one capped resource dimension, or a delay threshold
// restricted to the dimension's positive demands) of which at most kappa
// fit any single partition — kappa is the largest k whose k smallest
// members still fit the capacity, i.e. the integer-rounding strengthening
// ⌊cap/minsize(S)⌋ of the rank-1 CG cut tightened by the actual sizes. Two
// rows follow per partition p:
//
//	cardinality   Σ_{t∈S} y[t][p] ≤ κ
//	delay-coupled δ·Σ_{t∈S} y[t][p] ≤ κ·d_p   (δ = min delay over S)
//
// The first is the CG rounding of the resource row Σ R(t)·y[t][p] ≤ cap
// (every member has ⌊R(t)/m⌋ ≥ 1); summed over p against the uniqueness
// rows it proves LP infeasibility outright when |S| > N·κ. The second is
// its sequential lifting into the objective space: an integral partition
// hosting k ≤ κ members has d_p ≥ δ (a single task is a chain), so
// δ·k ≤ κ·d_p — which is what stops the LP from spreading near-capacity
// items fractionally while keeping every d_p at the layer-cake floor.
type cgFamily struct {
	name  string
	nameD string // name + "-d", precomputed off the model-build hot path
	tasks []int
	kappa int
	delta float64 // min delay over tasks; 0 disables the delay-coupled row
}

// maxFitCount returns the largest k such that the k smallest of sizes sum
// to at most cap (sizes must be sorted ascending). 0 when none fit.
func maxFitCount(sizes []int, cap int) int {
	sum, k := 0, 0
	for k < len(sizes) && sum+sizes[k] <= cap {
		sum += sizes[k]
		k++
	}
	return k
}

// cgFamilies derives the instance's CG cardinality families: for every
// capped dimension, the size-threshold sets (one per distinct kappa, the
// largest such set winning — a superset with equal kappa strictly
// dominates) and the delay-threshold sets from the layer-cake segments.
// Families with kappa ≥ |S| are trivial (the cut cannot bind below the
// uniqueness rows) and dropped, and families with identical (task set,
// kappa) are merged keeping the larger delay floor (on uniform-delay
// instances the first segment's set IS the full size-threshold set, and
// duplicate rows would otherwise be baked into every model twice).
// Independent of N, so they are computed once per presolve and shared by
// root emission and separation.
func cgFamilies(pre *presolve) []cgFamily {
	var fams []cgFamily
	dims := presolveDims(pre)
	for _, dim := range dims {
		type ts struct {
			t, size int
		}
		items := make([]ts, 0, len(dim.demand))
		for t, d := range dim.demand {
			if d > 0 {
				items = append(items, ts{t, d})
			}
		}
		if len(items) < 2 {
			continue
		}
		sort.Slice(items, func(a, b int) bool { return items[a].size < items[b].size })
		sizes := make([]int, len(items))
		for i, it := range items {
			sizes[i] = it.size
		}
		// Size thresholds ascending: S shrinks, kappa never grows. Keep the
		// first (largest) S per kappa value.
		lastKappa := -1
		for i := 0; i < len(items); i++ {
			if i > 0 && items[i].size == items[i-1].size {
				continue
			}
			kappa := maxFitCount(sizes[i:], dim.cap)
			if kappa < 1 {
				kappa = 1 // unreachable for validated tasks
			}
			if kappa == lastKappa || kappa >= len(items)-i {
				continue
			}
			lastKappa = kappa
			fam := cgFamily{name: "cg-card-" + dim.name, kappa: kappa, delta: math.Inf(1)}
			for _, it := range items[i:] {
				fam.tasks = append(fam.tasks, it.t)
				if d := pre.delays[it.t]; d < fam.delta {
					fam.delta = d
				}
			}
			if math.IsInf(fam.delta, 1) || fam.delta < 0 {
				fam.delta = 0
			}
			fams = append(fams, fam)
		}
		// Delay thresholds from the layer-cake segments: the tasks with
		// delay ≥ δ and positive demand in this dimension.
		for _, seg := range pre.segments {
			var tasks []int
			var segSizes []int
			for t, d := range dim.demand {
				if d > 0 && pre.delays[t] >= seg.delay {
					tasks = append(tasks, t)
					segSizes = append(segSizes, d)
				}
			}
			if len(tasks) < 2 {
				continue
			}
			sort.Ints(segSizes)
			kappa := maxFitCount(segSizes, dim.cap)
			if kappa < 1 {
				kappa = 1
			}
			if kappa >= len(tasks) {
				continue
			}
			fams = append(fams, cgFamily{
				name: "cg-delay-" + dim.name, tasks: tasks, kappa: kappa, delta: seg.delay,
			})
		}
	}
	fams = dedupeCGFamilies(fams)
	for i := range fams {
		fams[i].nameD = fams[i].name + "-d"
	}
	return fams
}

// dedupeCGFamilies merges families with identical (task set, kappa),
// keeping the largest valid delay floor (both candidates' deltas are ≤ the
// set's minimum delay, so the larger one gives the strictly stronger
// delay-coupled row).
func dedupeCGFamilies(fams []cgFamily) []cgFamily {
	index := make(map[string]int, len(fams))
	out := fams[:0]
	var key []byte
	var ids []int
	for _, fam := range fams {
		// Canonical key: kappa + the SORTED member ids (the size- and
		// delay-threshold builders enumerate the same set in different
		// orders).
		ids = append(ids[:0], fam.tasks...)
		sort.Ints(ids)
		key = key[:0]
		key = append(key, byte(fam.kappa), byte(fam.kappa>>8))
		for _, t := range ids {
			key = append(key, byte(t), byte(t>>8), byte(t>>16))
		}
		if at, dup := index[string(key)]; dup {
			if fam.delta > out[at].delta {
				out[at].delta = fam.delta
			}
			continue
		}
		index[string(key)] = len(out)
		out = append(out, fam)
	}
	return out
}

// resDim is one capped resource dimension (CLBs or an extra kind).
type resDim struct {
	name   string
	demand []int
	cap    int
}

// presolveDims lists the capped resource dimensions of an instance in the
// uniform form cgFamilies consumes (CLBs first, then the board's capped
// extra kinds).
func presolveDims(pre *presolve) []resDim {
	var dims []resDim
	if pre.board.FPGA.CLBs > 0 {
		dims = append(dims, resDim{name: "clb", demand: pre.res, cap: pre.board.FPGA.CLBs})
	}
	for k, kind := range pre.extraKinds {
		dims = append(dims, resDim{name: kind, demand: pre.extraDemand[k], cap: pre.extraCap[k]})
	}
	return dims
}

// emitRootCuts streams the presolve cuts added to every model at build
// time: the aggregate Σ_p d_p ≥ max(critical path, layer-cake) row that
// PR 3 introduced, plus — when withCuts is set — one boundary chain-area
// cut per prefix/suffix of the partition sequence (see boundaryChainFloor)
// and the per-partition Chvátal–Gomory cardinality rows (cgFamilies: the
// cardinality row always, the delay-coupled row when the family has a
// positive delay floor). The boundary cuts are what close the FIR-bank
// root; the CG rows are what make near-capacity packing infeasibility
// visible to the LP itself — at a too-small N they contradict the
// uniqueness rows, so the root relaxation is infeasible with no search at
// all, and at the feasible N the delay-coupled forms hold every
// partition's d_p to its share of the cardinality floor. withCuts=false is
// the Input.testNoCuts reference model: the aggregate row alone.
//
// The cols/vals slices passed to emit are scratch, reused across calls —
// consumers must copy what they keep. The model builder feeds them
// straight to lp.Problem.AddRowCols, so the whole root-cut layer costs two
// scratch slices per build instead of a materialized cut list.
func emitRootCuts(pre *presolve, N int, yv func(t, p int) int, dv func(p int) int, withCuts bool,
	emit func(name string, kind lp.RowKind, cols []int, vals []float64, rhs float64)) {

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
	if floor := pre.sumDelayFloor(); floor > 0 {
		reset()
		for p := 0; p < N; p++ {
			put(dv(p), 1)
		}
		emit("presolve-aggregate", lp.GE, cols, vals, floor)
	}
	if !withCuts {
		return
	}
	for p := 1; p < N; p++ {
		if floor := pre.boundaryChainFloor(N, p, false); floor > 0 {
			reset()
			for q := 0; q < p; q++ {
				put(dv(q), 1)
			}
			emit("chain-prefix", lp.GE, cols, vals, floor)
		}
		if floor := pre.boundaryChainFloor(N, p, true); floor > 0 {
			reset()
			for q := p; q < N; q++ {
				put(dv(q), 1)
			}
			emit("chain-suffix", lp.GE, cols, vals, floor)
		}
	}
	for _, fam := range pre.cgFams {
		for p := 0; p < N; p++ {
			reset()
			for _, t := range fam.tasks {
				put(yv(t, p), 1)
			}
			emit(fam.name, lp.LE, cols, vals, float64(fam.kappa))
			if fam.delta > 0 {
				reset()
				for _, t := range fam.tasks {
					put(yv(t, p), fam.delta)
				}
				put(dv(p), -float64(fam.kappa))
				emit(fam.nameD, lp.LE, cols, vals, 0)
			}
		}
	}
}

// rootCuts materializes the emitRootCuts stream as a cut list (the
// representation the validity property tests brute-force).
func rootCuts(pre *presolve, N int, yv func(t, p int) int, dv func(p int) int, withCuts bool) []modelCut {
	var cuts []modelCut
	emitRootCuts(pre, N, yv, dv, withCuts, func(name string, kind lp.RowKind, cols []int, vals []float64, rhs float64) {
		cuts = append(cuts, modelCut{name: name, CutRow: lp.CutRow{
			Kind: kind,
			Cols: append([]int(nil), cols...),
			Vals: append([]float64(nil), vals...),
			RHS:  rhs,
		}})
	})
	return cuts
}

const (
	// sepMinViolation is the separator-side violation filter; weaker cuts
	// are noise that costs LP rows without moving the bound.
	sepMinViolation = 1e-4
	// sepMaxCutsPerRound caps what one separation round may return (the
	// most violated cuts win).
	sepMaxCutsPerRound = 24
	// sepKLongestPaths seeds the path-based clique cuts with the k
	// longest delay-weighted root-leaf paths.
	sepKLongestPaths = 16
	// sepMaxChains bounds the bitset-grown fractional chains per round.
	sepMaxChains = 6
)

// separator owns the per-model separation state: the variable layout, the
// longest-path chain seeds, and the precomputed per-subset layer-cake
// floors. It is stateless per call.
type separator struct {
	pre *presolve
	N   int
	nT  int
	yv  func(t, p int) int
	dv  func(p int) int

	longPaths [][]int
	subsetRHS []float64 // subsetRHS[s]: layer-cake floor for s-subsets, s in [1,N)
}

// newSeparator builds the separator for one generated model.
func newSeparator(pre *presolve, g *dfg.Graph, N int, yv func(t, p int) int, dv func(p int) int) *separator {
	s := &separator{pre: pre, N: N, nT: g.NumTasks(), yv: yv, dv: dv}
	paths := pre.paths
	// k longest delay-weighted paths (the full path set is already
	// enumerated for Eq. 7, so "k longest" is a sort, not a search).
	type pw struct {
		i int
		d float64
	}
	pws := make([]pw, 0, len(paths))
	for i, path := range paths {
		if len(path) < 2 {
			continue
		}
		d := 0.0
		for _, t := range path {
			d += g.Task(t).Delay
		}
		pws = append(pws, pw{i, d})
	}
	sort.Slice(pws, func(a, b int) bool { return pws[a].d > pws[b].d })
	for i := 0; i < len(pws) && i < sepKLongestPaths; i++ {
		s.longPaths = append(s.longPaths, paths[pws[i].i])
	}
	s.subsetRHS = make([]float64, N)
	for sz := 1; sz < N; sz++ {
		s.subsetRHS[sz] = pre.subsetDelayFloor(N, sz)
	}
	return s
}

// scoredCut pairs a candidate cut with its violation at the current point.
type scoredCut struct {
	mc   modelCut
	viol float64
}

// separate is the ilp.Options.Separate callback: the rows of the most
// violated candidates at the fractional point x.
func (s *separator) separate(x []float64) []lp.CutRow {
	cand := s.candidates(x)
	out := make([]lp.CutRow, len(cand))
	for i := range cand {
		out[i] = cand[i].mc.CutRow
	}
	return out
}

// candidates runs every family on the fractional point x and returns the
// sepMaxCutsPerRound most violated cuts, most violated first.
func (s *separator) candidates(x []float64) []scoredCut {
	cand := s.chainCuts(x, nil)
	cand = s.layerCakeCuts(x, cand)
	sort.Slice(cand, func(a, b int) bool { return cand[a].viol > cand[b].viol })
	if len(cand) > sepMaxCutsPerRound {
		cand = cand[:sepMaxCutsPerRound]
	}
	return cand
}

// chainCuts separates the temporal-order clique cuts over chains from the
// long-path seeds and from chains grown through the most fractional tasks.
func (s *separator) chainCuts(x []float64, cand []scoredCut) []scoredCut {
	for _, chain := range s.longPaths {
		cand = s.bandCut(x, chain, "path", cand)
	}
	for _, chain := range s.grownChains(x) {
		cand = s.bandCut(x, chain, "clique", cand)
	}
	return cand
}

// grownChains builds up to sepMaxChains chains through the comparability
// order, greedily extending from the most fractionally-placed tasks using
// the presolve's ancestor bitsets. Unlike the path seeds these chains may
// use transitive (non-edge) comparabilities.
func (s *separator) grownChains(x []float64) [][]int {
	if s.nT == 0 || len(s.pre.reach) == 0 {
		return nil
	}
	frac := make([]float64, s.nT)
	for t := 0; t < s.nT; t++ {
		maxv := 0.0
		for p := 0; p < s.N; p++ {
			if v := x[s.yv(t, p)]; v > maxv {
				maxv = v
			}
		}
		frac[t] = 1 - maxv
	}
	seeds := make([]int, s.nT)
	for t := range seeds {
		seeds[t] = t
	}
	sort.Slice(seeds, func(a, b int) bool { return frac[seeds[a]] > frac[seeds[b]] })

	isAncestor := func(a, t int) bool { // a ≺ t?
		return s.pre.reach[t][a/64]&(1<<uint(a%64)) != 0
	}
	var chains [][]int
	for _, seed := range seeds {
		if len(chains) >= sepMaxChains || frac[seed] < 0.05 {
			break
		}
		chain := []int{seed}
		// Extend toward descendants of the tail...
		for {
			tail, best := chain[len(chain)-1], -1
			for u := 0; u < s.nT; u++ {
				if u != tail && isAncestor(tail, u) && (best < 0 || frac[u] > frac[best]) {
					best = u
				}
			}
			if best < 0 {
				break
			}
			chain = append(chain, best)
		}
		// ...and ancestors of the head (transitivity keeps it a chain).
		for {
			head, best := chain[0], -1
			for u := 0; u < s.nT; u++ {
				if u != head && isAncestor(u, head) && (best < 0 || frac[u] > frac[best]) {
					best = u
				}
			}
			if best < 0 {
				break
			}
			chain = append([]int{best}, chain...)
		}
		if len(chain) >= 2 {
			chains = append(chains, chain)
		}
	}
	return chains
}

// bandCut runs the exact band-assignment DP for one chain: choose a
// subsequence of the chain and strictly descending partition intervals
// (ancestors get the high bands — an ancestor placed late conflicts with
// every descendant placed early) maximizing the fractional mass
// Σ_i Σ_{p∈I_i} x[y[a_i][p]]. Mass > 1 is a violated clique cut
// Σ_i Σ_{p∈I_i} y[a_i][p] ≤ 1.
func (s *separator) bandCut(x []float64, chain []int, tag string, cand []scoredCut) []scoredCut {
	k, N := len(chain), s.N
	if k < 2 || N < 2 {
		return cand
	}
	// prefix[i][p+1] = Σ_{q<=p} x[y[chain[i]][q]]
	prefix := make([][]float64, k)
	for i, t := range chain {
		row := make([]float64, N+1)
		for p := 0; p < N; p++ {
			row[p+1] = row[p] + x[s.yv(t, p)]
		}
		prefix[i] = row
	}
	// g[i][t]: best mass from chain[i:] with all bands inside [0..t].
	// Chain position i takes band [l..t] (or is skipped), later positions
	// continue inside [0..l-1] — descendants strictly below ancestors.
	g := make([][]float64, k+1)
	choice := make([][]int, k) // chosen l for band [l..t], or -1 = skip
	g[k] = make([]float64, N+1)
	for i := k - 1; i >= 0; i-- {
		g[i] = make([]float64, N+1)
		choice[i] = make([]int, N+1)
		for t := 0; t < N; t++ {
			best, bestL := g[i+1][t+1], -1
			for l := 0; l <= t; l++ {
				v := prefix[i][t+1] - prefix[i][l]
				if l > 0 {
					v += g[i+1][l]
				}
				if v > best+1e-12 {
					best, bestL = v, l
				}
			}
			g[i][t+1] = best
			choice[i][t+1] = bestL
		}
	}
	viol := g[0][N] - 1
	if viol <= sepMinViolation {
		return cand
	}
	mc := modelCut{name: "order-" + tag, CutRow: lp.CutRow{Kind: lp.LE, RHS: 1}}
	tasks := 0
	t := N
	for i := 0; i < k && t > 0; i++ {
		l := choice[i][t]
		if l < 0 {
			continue
		}
		tasks++
		for p := l; p < t; p++ {
			mc.Cols = append(mc.Cols, s.yv(chain[i], p))
			mc.Vals = append(mc.Vals, 1)
		}
		t = l
	}
	if tasks < 2 {
		return cand // single-task band: implied by the uniqueness row
	}
	cand = append(cand, scoredCut{mc: mc, viol: viol})
	return cand
}

// layerCakeCuts separates the per-subset layer-cake cuts: for every
// subset size s the most violated subset under the current point is the s
// partitions with the smallest d values; if their sum undercuts the
// subset floor c_s, emit Σ_{p∈S} d_p ≥ c_s.
func (s *separator) layerCakeCuts(x []float64, cand []scoredCut) []scoredCut {
	N := s.N
	if N < 2 {
		return cand
	}
	order := make([]int, N)
	for p := range order {
		order[p] = p
	}
	sort.Slice(order, func(a, b int) bool { return x[s.dv(order[a])] < x[s.dv(order[b])] })
	lhs := 0.0
	for sz := 1; sz < N; sz++ {
		lhs += x[s.dv(order[sz-1])]
		rhs := s.subsetRHS[sz]
		if rhs <= 0 {
			continue
		}
		if viol := rhs - lhs; viol > sepMinViolation {
			mc := modelCut{name: "layercake", CutRow: lp.CutRow{Kind: lp.GE, RHS: rhs}}
			for _, p := range order[:sz] {
				mc.Cols = append(mc.Cols, s.dv(p))
				mc.Vals = append(mc.Vals, 1)
			}
			cand = append(cand, scoredCut{mc: mc, viol: viol})
		}
	}
	return cand
}
