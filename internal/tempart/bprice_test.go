package tempart

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/ilp"
	"repro/internal/jpeg"
)

// naiveReach computes path existence u ⤳ v by plain DFS on the graph,
// independent of the presolve's bitsets.
func naiveReach(g *dfg.Graph) [][]bool {
	n := g.NumTasks()
	reach := make([][]bool, n)
	for u := 0; u < n; u++ {
		reach[u] = make([]bool, n)
		stack := []int{u}
		seen := make([]bool, n)
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Succs(t) {
				if !seen[v] {
					seen[v] = true
					reach[u][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return reach
}

// naiveColumnCheck verifies a priced column against first-principles
// definitions: in-range distinct items, per-dimension area, DAG convexity
// (no excluded task on a path between two members), and the cost equal to
// the longest delay-weighted chain found by exhaustive subset enumeration.
func naiveColumnCheck(t *testing.T, g *dfg.Graph, b arch.Board, col ilp.BPColumn) {
	t.Helper()
	n := g.NumTasks()
	reach := naiveReach(g)
	in := make([]bool, n)
	area := 0
	extra := map[string]int{}
	for _, it := range col.Items {
		if it < 0 || it >= n || in[it] {
			t.Fatalf("column %v: bad or duplicate item %d", col.Items, it)
		}
		in[it] = true
		area += g.Task(it).Resources
		for kind, d := range g.Task(it).Extra {
			extra[kind] += d
		}
	}
	if area > b.FPGA.CLBs {
		t.Fatalf("column %v: area %d > %d", col.Items, area, b.FPGA.CLBs)
	}
	for kind, used := range extra {
		if cap, capped := b.FPGA.ExtraCapacity[kind]; capped && used > cap {
			t.Fatalf("column %v: %s %d > %d", col.Items, kind, used, cap)
		}
	}
	for _, u := range col.Items {
		for _, v := range col.Items {
			for w := 0; w < n; w++ {
				if !in[w] && reach[u][w] && reach[w][v] {
					t.Fatalf("column %v: not convex (%d ⤳ %d ⤳ %d with %d outside)",
						col.Items, u, w, v, w)
				}
			}
		}
	}
	// Longest delay-weighted chain by exhaustive subset enumeration: a
	// chain is a subset whose members are pairwise comparable under ⤳.
	best := 0.0
	k := len(col.Items)
	for mask := 1; mask < 1<<k; mask++ {
		var sub []int
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, col.Items[i])
			}
		}
		chain := true
		for i := 0; i < len(sub) && chain; i++ {
			for j := i + 1; j < len(sub); j++ {
				if !reach[sub[i]][sub[j]] && !reach[sub[j]][sub[i]] {
					chain = false
					break
				}
			}
		}
		if !chain {
			continue
		}
		d := 0.0
		for _, u := range sub {
			d += g.Task(u).Delay
		}
		if d > best {
			best = d
		}
	}
	if math.Abs(col.Cost-best) > 1e-9 {
		t.Fatalf("column %v: cost %v, want longest chain %v", col.Items, col.Cost, best)
	}
}

// TestPatternPricerColumnsFeasible is the ISSUE's first property test:
// every column the pricing DFS emits is a feasible partition content —
// checked against brute-force definitions on random DAGs, with and without
// Ryan–Foster constraints in force.
func TestPatternPricerColumnsFeasible(t *testing.T) {
	b := board(100, 100000, 10)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		n := g.NumTasks()
		pp := builtPricer(t, g, b)
		// Duals generous enough that every feasible pattern prices negative:
		// λ_t = D(t) + Σ D — each single inclusion already beats any chain.
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += g.Task(i).Delay
		}
		lambda := make([]float64, n)
		for i := 0; i < n; i++ {
			lambda[i] = g.Task(i).Delay + sum + 1
		}
		var same, differ [][2]int
		if n >= 2 && rng.Intn(2) == 0 {
			a, c := rng.Intn(n), rng.Intn(n)
			if a != c {
				if rng.Intn(2) == 0 {
					same = append(same, [2]int{a, c})
				} else {
					differ = append(differ, [2]int{a, c})
				}
			}
		}
		cols, inexact := pp.price(lambda, 0, same, differ, nil)
		if inexact {
			t.Errorf("seed %d: pricing inexact on a %d-task graph", seed, n)
			return false
		}
		if len(cols) == 0 {
			t.Errorf("seed %d: no columns under maximal duals", seed)
			return false
		}
		for _, col := range cols {
			naiveColumnCheck(t, g, b, col)
			if !pp.patternFeasible(col.Items) {
				t.Errorf("seed %d: pricer emitted %v but patternFeasible rejects it", seed, col.Items)
				return false
			}
			inCol := make(map[int]bool, len(col.Items))
			for _, it := range col.Items {
				inCol[it] = true
			}
			for _, ab := range same {
				if inCol[ab[0]] != inCol[ab[1]] {
					t.Errorf("seed %d: column %v splits same-pair %v", seed, col.Items, ab)
					return false
				}
			}
			for _, ab := range differ {
				if inCol[ab[0]] && inCol[ab[1]] {
					t.Errorf("seed %d: column %v joins differ-pair %v", seed, col.Items, ab)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternRootBoundDominatesPackingNeed is the ISSUE's second property
// test: the unit-cost pattern master's converged root bound dominates the
// presolve's combinatorial packing floor on the whole committed portfolio
// (the set-partitioning LP bound subsumes area ratios and dual-feasible-
// function bounds, and convexity only shrinks the pattern set further).
func TestPatternRootBoundDominatesPackingNeed(t *testing.T) {
	if testing.Short() {
		t.Skip("deep unit-cost pricing probes; skipped under -short (the chaos lane)")
	}
	entries := loadPortfolio(t)
	type inst struct {
		name  string
		g     *dfg.Graph
		board arch.Board
	}
	var insts []inst
	for _, e := range entries {
		insts = append(insts, inst{e.File, e.graph, e.board})
	}
	hard := hardInput(24)
	insts = append(insts, inst{"hard2638", hard.Graph, hard.Board})
	for _, is := range insts {
		bound, trusted := patternPackBound(is.g, is.board)
		if !trusted {
			t.Errorf("%s: pattern root bound did not converge", is.name)
			continue
		}
		need := newPresolve(is.g, is.board).packingNeed()
		if got := int(math.Ceil(bound - 1e-6)); got < need {
			t.Errorf("%s: pattern bound ⌈%v⌉ = %d below combinatorial packing need %d",
				is.name, bound, got, need)
		}
	}
}

// TestPatternFormulationEquivalence pins the tentpole's correctness claim:
// both formulations prove the same minimum N and the same optimal latency,
// with a trusted bound, on random DAGs and on seeded 9- and 10-task
// portfolio chains. The random DAGs have 3-6 tasks and close in a few
// nodes; the chains are near-capacity items whose row search branches
// through dozens of nodes, so they keep every pruning rule of the deep
// search honest against the pattern master.
func TestPatternFormulationEquivalence(t *testing.T) {
	equal := func(name string, g *dfg.Graph, b arch.Board) bool {
		rows, err := Solve(context.Background(), Input{Graph: g, Board: b, Formulation: FormulationRows})
		if err != nil {
			t.Errorf("%s rows: %v", name, err)
			return false
		}
		pats, err := Solve(context.Background(), Input{Graph: g, Board: b, Formulation: FormulationPatterns})
		if err != nil {
			t.Errorf("%s patterns: %v", name, err)
			return false
		}
		if !rows.Optimal || !pats.Optimal || !rows.BoundTrusted || !pats.BoundTrusted {
			t.Errorf("%s: optimal/trusted rows=%v/%v patterns=%v/%v",
				name, rows.Optimal, rows.BoundTrusted, pats.Optimal, pats.BoundTrusted)
			return false
		}
		if rows.N != pats.N || math.Abs(rows.Latency-pats.Latency) > 1e-6 {
			t.Errorf("%s: rows N=%d lat=%v, patterns N=%d lat=%v",
				name, rows.N, rows.Latency, pats.N, pats.Latency)
			return false
		}
		if err := CheckFeasible(g, b, pats.Assign, pats.N); err != nil {
			t.Errorf("%s: pattern assignment infeasible: %v", name, err)
			return false
		}
		return true
	}
	random := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		return equal(fmt.Sprintf("seed %d", seed), g, board(100, 100000, 10))
	}
	if err := quick.Check(random, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		return // the chains are sequential searches the chaos lane need not repeat
	}
	// The portfolio chains' board: 100 CLBs, 1024 words, 1 ms reconfiguration.
	chainBoard := board(100, 1024, 1e6)
	for _, n := range []int{9, 10} {
		for seed := int64(1); seed <= 8; seed++ {
			g := portfolioChain(rand.New(rand.NewSource(seed)), n)
			equal(fmt.Sprintf("chain%d seed %d", n, seed), g, chainBoard)
		}
	}
}

// TestPatternMixedCardinality2638 is the headline acceptance test: the
// 24-task 26/38 mixed-cardinality instance, which the row formulation
// cannot finish inside hundreds of thousands of nodes, solves to a proven
// optimum within a 200-node budget under branch-and-price — the
// set-partitioning bound is exactly 9, so the N=8 probe dies at its root
// and N=9 closes at the integral LP optimum.
func TestPatternMixedCardinality2638(t *testing.T) {
	in := hardInput(24)
	in.Formulation = FormulationPatterns
	in.MaxNodes = 200
	part, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if part.N != 9 {
		t.Fatalf("N = %d, want 9", part.N)
	}
	if !part.Optimal || !part.BoundTrusted {
		t.Fatalf("want proven optimum, got Optimal=%v BoundTrusted=%v", part.Optimal, part.BoundTrusted)
	}
	wantLat := 9*in.Board.FPGA.ReconfigTime + 900
	if math.Abs(part.Latency-wantLat) > 1e-6 {
		t.Fatalf("latency %v, want %v (Σd = 900)", part.Latency, wantLat)
	}
	if part.Stats.Nodes > 200 {
		t.Fatalf("branch-and-price used %d nodes, budget 200", part.Stats.Nodes)
	}
	if part.Stats.ColumnsGenerated == 0 || part.Stats.PricingRounds == 0 {
		t.Fatalf("column generation idle: %d cols / %d rounds",
			part.Stats.ColumnsGenerated, part.Stats.PricingRounds)
	}
	if err := CheckFeasible(in.Graph, in.Board, part.Assign, part.N); err != nil {
		t.Fatal(err)
	}
}

// TestPatternFormulationFallsBackToRows: an instance whose worst-case
// boundary traffic exceeds the on-board memory must take the row path even
// when patterns are requested (the pattern master has no Eq. 3 rows), and
// still solve correctly.
func TestPatternFormulationFallsBackToRows(t *testing.T) {
	g := dfg.New("mem")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60, Delay: 100})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 60, Delay: 100})
	g.MustAddEdge("a", "b", 200) // 200 words > 100-word memory
	b := board(100, 100, 0)
	if patternsApplicable(context.Background(), Input{Graph: g, Board: b}, newPresolve(g, b), 1) {
		t.Fatal("patternsApplicable should reject 200 words > 100")
	}
	part, err := Solve(context.Background(), Input{Graph: g, Board: b, Formulation: FormulationPatterns})
	if err == nil {
		// The row model enforces Eq. 3; with 200 words crossing any
		// boundary no 2-partition split is feasible, and 1 partition
		// overflows area — so this instance has no solution at all.
		t.Fatalf("expected infeasibility through the row path, got %+v", part)
	}
}

// TestPatternChainBlocks102 proves the tentpole's scale claim: a 102-task
// chain-of-blocks instance solves to a proven optimum under branch-and-
// price within a small node budget, while the row formulation — over five
// thousand binaries at N=51 — exhausts the same class of budget without a
// proof (the committed portfolio pins the row-side limit; here we pin the
// pattern-side solve).
func TestPatternChainBlocks102(t *testing.T) {
	if testing.Short() {
		t.Skip("102-task instance under -short")
	}
	g := portfolioChainBlocks(34)
	b := board(100, 100000, 100)
	in := Input{
		Graph:       g,
		Board:       b,
		Formulation: FormulationPatterns,
		// The area floor is only ⌈3570/100⌉ = 36; the packing need 51 prunes
		// the 36..50 probes, but the relax cap must reach 51.
		MaxPartitions: 60,
		MaxNodes:      500,
	}
	part, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if part.N != 51 {
		t.Fatalf("N = %d, want 51", part.N)
	}
	if !part.Optimal || !part.BoundTrusted {
		t.Fatalf("want proven optimum, got Optimal=%v BoundTrusted=%v (gap %v)",
			part.Optimal, part.BoundTrusted, part.Gap)
	}
	// Optimum: same-class same-layer block matching, Σd = Σ D(t)/2 =
	// (16·(60+61+62) + 18·(100+101+102)) / 2 = 4191.
	wantLat := 51*b.FPGA.ReconfigTime + 4191
	if math.Abs(part.Latency-wantLat) > 1e-6 {
		t.Fatalf("latency %v, want %v (Σd = 4191)", part.Latency, wantLat)
	}
	if err := CheckFeasible(g, b, part.Assign, part.N); err != nil {
		t.Fatal(err)
	}
}

// referencePrice is the pricing DFS the tree walk replaced, kept as the
// reference the pricer must match exactly: every round enumerates the
// topological order afresh, applying the static and the per-round rules at
// every step, and carries each set's dual sum by value. It has its own
// scratch and reads only the pricer's static fields. unitCost prices every
// pattern at 1 instead of d(S) (patternPackBound's master), and a round
// past budget steps is reported inexact.
func referencePrice(pp *patternPricer, unitCost bool, budget int, lambda []float64, mu float64, same, differ [][2]int, forbidden map[string]bool) ([]ilp.BPColumn, bool) {
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

	member := make([]uint64, pp.words)
	descAll := make([]uint64, pp.words)
	inSet := make([]bool, nT)
	chain := make([]float64, nT)
	saveDesc := make([][]uint64, nT)
	for i := range saveDesc {
		saveDesc[i] = make([]uint64, pp.words)
	}
	cur := make([]int, 0, nT)
	extraUsed := make([]int, len(pre.extraCap))
	areaRes := 0
	steps := 0
	inexact := false

	type cand struct {
		items    []int
		cost, rc float64
	}
	var best []cand
	worst := -1
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

	var dfs func(i int, curDelay, lamSum float64)
	dfs = func(i int, curDelay, lamSum float64) {
		if inexact {
			return
		}
		steps++
		if steps > budget {
			inexact = true
			return
		}
		costLB := curDelay
		if unitCost {
			costLB = 1
		}
		if costLB-lamSum-mu-posSuf[i] >= -eps || i == nT || areaRes+pp.sufMinRes[i] > clbCap {
			return
		}
		t := pp.order[i]
		canInclude := areaRes+pre.res[t] <= clbCap
		for k := range pre.extraDemand {
			if extraUsed[k]+pre.extraDemand[k][t] > pre.extraCap[k] {
				canInclude = false
			}
		}
		rt := pre.reach[t]
		for w := range rt {
			if rt[w]&descAll[w]&^member[w] != 0 {
				canInclude = false
			}
		}
		for _, u := range differPart[t] {
			if inSet[u] {
				canInclude = false
			}
		}
		for _, u := range samePart[t] {
			if pp.pos[u] < i && !inSet[u] {
				canInclude = false
			}
		}
		if canInclude {
			copy(saveDesc[i], descAll)
			member[t>>6] |= 1 << uint(t&63)
			inSet[t] = true
			for w := range descAll {
				descAll[w] |= pp.desc[t][w]
			}
			areaRes += pre.res[t]
			for k := range pre.extraDemand {
				extraUsed[k] += pre.extraDemand[k][t]
			}
			c := 0.0
			for _, u := range cur {
				if rt[u>>6]&(1<<uint(u&63)) != 0 && chain[u] > c {
					c = chain[u]
				}
			}
			chain[t] = c + pre.delays[t]
			nd := curDelay
			if chain[t] > nd {
				nd = chain[t]
			}
			cur = append(cur, t)
			lam := lamSum + lambda[t]

			cost := nd
			if unitCost {
				cost = 1
			}
			if rc := cost - lam - mu; rc < -eps {
				complete := true
				for _, u := range cur {
					for _, v := range samePart[u] {
						if !inSet[v] {
							complete = false
						}
					}
				}
				keeps := len(best) < maxPricedCols || rc < best[worst].rc
				if complete && keeps && !forbidden[ilp.BPKey(cur)] {
					record(cost, rc)
				}
			}
			dfs(i+1, nd, lam)

			cur = cur[:len(cur)-1]
			for k := range pre.extraDemand {
				extraUsed[k] -= pre.extraDemand[k][t]
			}
			areaRes -= pre.res[t]
			copy(descAll, saveDesc[i])
			inSet[t] = false
			member[t>>6] &^= 1 << uint(t&63)
		}
		for _, u := range samePart[t] {
			if inSet[u] {
				return
			}
		}
		dfs(i+1, curDelay, lamSum)
	}
	dfs(0, 0, 0)

	sort.Slice(best, func(a, b int) bool { return best[a].rc < best[b].rc })
	cols := make([]ilp.BPColumn, len(best))
	for k, c := range best {
		cols[k] = ilp.BPColumn{Items: c.items, Cost: c.cost}
	}
	return cols, inexact
}

// layeredGraph is a random layered DAG of nT tasks with integral delays:
// each task draws edges from a few tasks of the layer above, so the
// pattern space holds thousands of convex sets without exhausting the
// pricing budget.
func layeredGraph(rng *rand.Rand, nT int) *dfg.Graph {
	g := dfg.New("layered")
	width := 2 + rng.Intn(3)
	for i := 0; i < nT; i++ {
		g.MustAddTask(dfg.Task{
			Name:      fmt.Sprintf("t%d", i),
			Resources: 10 + rng.Intn(30),
			Delay:     float64(10 * (1 + rng.Intn(5))),
		})
		if layer := i / width; layer > 0 {
			for k := 0; k < 1+rng.Intn(2); k++ {
				_ = g.AddEdgeByID((layer-1)*width+rng.Intn(width), i, 1)
			}
		}
	}
	return g
}

// pricingDuals draws signed duals on a grid of tenths, scaled to the cost
// of a pattern, so many columns tie in exact arithmetic and any drift in a
// dual sum reorders them; and a signed μ.
func pricingDuals(rng *rand.Rand, g *dfg.Graph) ([]float64, float64) {
	nT := g.NumTasks()
	scale := 0.0
	for t := 0; t < nT; t++ {
		scale += g.Task(t).Delay
	}
	scale /= float64(nT)
	lambda := make([]float64, nT)
	for t := range lambda {
		lambda[t] = scale * float64(rng.Intn(21)-5) / 10
	}
	return lambda, scale * float64(rng.Intn(11)-5) / 10
}

// ryanFosterPairs draws a few distinct same and differ task pairs.
func ryanFosterPairs(rng *rand.Rand, nT int) (same, differ [][2]int) {
	draw := func() [][2]int {
		var pairs [][2]int
		for k := rng.Intn(5); k > 0; k-- {
			if a, b := rng.Intn(nT), rng.Intn(nT); a != b {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		return pairs
	}
	return draw(), draw()
}

// builtPricer returns a pricer for g on b whose pattern tree fits.
func builtPricer(t *testing.T, g *dfg.Graph, b arch.Board) *patternPricer {
	t.Helper()
	pp := newPatternPricer(newPresolve(g, b))
	if !pp.buildTree(nil, maxTreeNodes) {
		t.Fatalf("%s: the pattern tree does not fit", g.Name)
	}
	return pp
}

// checkPricingRounds prices several rounds on one built pricer and
// compares each round with the reference under ==: items, costs, order and
// the inexact flag. Every other round also forbids a random share of the
// previous round's columns.
func checkPricingRounds(t *testing.T, name string, rng *rand.Rand, pp *patternPricer, rounds int) {
	t.Helper()
	g := pp.pre.g
	var prev []ilp.BPColumn
	for round := 0; round < rounds; round++ {
		lambda, mu := pricingDuals(rng, g)
		var same, differ [][2]int
		if round > 0 {
			same, differ = ryanFosterPairs(rng, g.NumTasks())
		}
		var forbidden map[string]bool
		if round%2 == 1 {
			forbidden = map[string]bool{}
			for _, c := range prev {
				if rng.Intn(2) == 0 {
					forbidden[ilp.BPKey(c.Items)] = true
				}
			}
		}
		want, wantInexact := referencePrice(pp, false, pricerBudget, lambda, mu, same, differ, forbidden)
		got, gotInexact := pp.price(lambda, mu, same, differ, forbidden)
		if gotInexact != wantInexact || !equalColumns(got, want) {
			t.Fatalf("%s round %d (same %v differ %v, %d forbidden):\n got %v inexact=%v\nwant %v inexact=%v",
				name, round, same, differ, len(forbidden), got, gotInexact, want, wantInexact)
		}
		prev = got
	}
}

func equalColumns(a, b []ilp.BPColumn) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Cost != b[k].Cost || len(a[k].Items) != len(b[k].Items) {
			return false
		}
		for j := range a[k].Items {
			if a[k].Items[j] != b[k].Items[j] {
				return false
			}
		}
	}
	return true
}

// TestPatternPricerMatchesReference pins the pricer to the per-round DFS:
// on random layered DAGs and every portfolio fixture whose tree fits,
// under random signed duals, Ryan–Foster pairs and forbidden keys, each
// round returns exactly the reference's columns in the reference's order.
// The reference carries dual sums by value, so a pricer whose reduced
// costs drift with the visit history fails here on tied columns. The
// fixtures in treeOverflows must overflow instead.
func TestPatternPricerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	b := board(100, 100000, 10)
	for k := 0; k < 40; k++ {
		g := layeredGraph(rng, 8+rng.Intn(12))
		checkPricingRounds(t, fmt.Sprintf("layered#%d", k), rng, builtPricer(t, g, b), 6)
	}
	if testing.Short() {
		return // the portfolio rounds are sequential work the chaos lane need not repeat
	}
	for _, e := range loadPortfolio(t) {
		pp := newPatternPricer(newPresolve(e.graph, e.board))
		if fits := pp.buildTree(nil, maxTreeNodes); fits == treeOverflows[e.File] {
			t.Fatalf("%s: tree fits = %v, want %v", e.File, fits, !treeOverflows[e.File])
		}
		if !treeOverflows[e.File] {
			checkPricingRounds(t, e.File, rng, pp, 3)
		}
	}
}

// treeOverflows names the portfolio fixtures whose pattern space is past
// the tree's cap: the pattern master does not run on them.
var treeOverflows = map[string]bool{"fir8.json": true}

// TestPatternTreeOverflowsOnWideLayers builds the pattern trees of the
// paper's DCT and of fir8, whose wide independent layers hold more
// convex, area-feasible sets than the tree's cap: both builds overflow,
// and a solve that asks for the pattern master gets the row model.
func TestPatternTreeOverflowsOnWideLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("cap-sized tree builds under -short")
	}
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	fir8 := portfolioFile(t, "fir8.json")
	for name, in := range map[string]Input{
		"dct":  {Graph: dct, Board: arch.PaperXC4044Board()},
		"fir8": {Graph: fir8.graph, Board: fir8.board},
	} {
		pre := newPresolve(in.Graph, in.Board)
		if patternsApplicable(context.Background(), in, pre, 1) || !pre.treeOverflow || pre.pricer != nil {
			t.Errorf("%s: pattern master applies (overflow=%v); want the tree to overflow", name, pre.treeOverflow)
		}
	}
}

// patternPackBound returns the unit-cost pattern master's root bound: the
// converged column-generation LP bound on the minimum number of patterns
// any cover needs. TestPatternRootBoundDominatesPackingNeed compares it
// against the combinatorial packingNeed floor — the pattern bound must
// dominate it (rounded up), since convexity only shrinks the pattern set.
// trusted=false reports that pricing did not converge at the root
// (budget), making the bound only restricted-master-valid. It prices with
// referencePrice, which needs no tree, at 16 times the build's budget:
// a converged root is the whole point here, and wide unit-cost instances
// (parallel FIR banks) need the headroom.
func patternPackBound(g *dfg.Graph, board arch.Board) (float64, bool) {
	nT := g.NumTasks()
	if nT == 0 {
		return 0, true
	}
	pp := newPatternPricer(newPresolve(g, board))
	seeds := pp.seedColumns(true)
	for k := range seeds {
		seeds[k].Cost = 1
	}
	sol, err := ilp.SolveBP(ilp.BPOptions{
		NumItems:   nT,
		Count:      nT,
		ArtCost:    4*float64(nT) + 16,
		MaxFeasObj: float64(nT),
		Seeds:      seeds,
		Pricer: func(lambda []float64, mu float64, same, differ [][2]int, forbidden map[string]bool) ([]ilp.BPColumn, bool) {
			return referencePrice(pp, true, 16*pricerBudget, lambda, mu, same, differ, forbidden)
		},
		ObjInteger: true,
		MaxNodes:   1,
	})
	if err != nil {
		return 0, false
	}
	return sol.Bound, sol.BoundTrusted
}
