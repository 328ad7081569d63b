package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// board mirrors the sparcsd board preset a request names: the three
// parameters the partitioning constraints and the latency objective use.
type board struct {
	name  string  // preset name sent on the wire
	clbs  int     // CLBs per partition
	words int     // memory words per partition boundary
	ctNS  float64 // reconfiguration time per partition
}

var (
	paperBoard = board{name: "paper", clbs: 1600, words: 64 * 1024, ctNS: 100e6}
	smallBoard = board{name: "small", clbs: 100, words: 1024, ctNS: 1e6}
)

// wireTask, wireEdge and wireGraph are the dfg JSON schema sparcsd decodes.
type wireTask struct {
	Name      string  `json:"name"`
	Type      string  `json:"type,omitempty"`
	Resources int     `json:"resources"`
	Delay     float64 `json:"delay"`
	ReadEnv   int     `json:"read_env,omitempty"`
	WriteEnv  int     `json:"write_env,omitempty"`
}

type wireEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Data int    `json:"data"`
}

type wireGraph struct {
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
	Edges []wireEdge `json:"edges"`
}

type edge struct{ from, to, data int }

// knobs are the request options an instance is sent with. They are part of
// sparcsd's cache key, so every view of an instance carries the same ones.
type knobs struct {
	formulation   string // "" (the default row model) or "patterns"
	maxPartitions int    // 0 keeps the daemon's relax-N window
}

// instance is one partitioning problem. Tasks are indexed in topological
// order (every edge goes from a lower to a higher index). The optimum is
// computed on first use by the family's own method, independently of
// sparcsd.
type instance struct {
	name    string
	board   board
	knobs   knobs
	tasks   []wireTask
	edges   []edge
	preds   [][]int
	optimum func(*instance) float64
	opt     float64 // optimal latency N*CT + sum of partition delays, ns
	solved  bool    // opt is set
}

func newInstance(name string, b board, tasks []wireTask, edges []edge, optimum func(*instance) float64) *instance {
	in := &instance{name: name, board: b, tasks: tasks, edges: edges, preds: make([][]int, len(tasks)), optimum: optimum}
	for _, e := range edges {
		in.preds[e.to] = append(in.preds[e.to], e.from)
	}
	return in
}

// optimal returns the instance's optimal latency. Not safe for concurrent
// use: answers are checked on one goroutine, after the traffic that
// produced them.
func (in *instance) optimal() float64 {
	if !in.solved {
		in.opt, in.solved = in.optimum(in), true
	}
	return in.opt
}

// dctInstance is the paper's 8x8 DCT task graph (four blocks, each a
// complete bipartite 4x4 stage of T1 row transforms feeding T2 column
// transforms) on the XC4044 board, with every delay raised by off ns so
// that each offset is a distinct structure to the solve cache. The optimum
// keeps the pinned shape 16 T1 | 8 T2 | 8 T2: N=3 and delays
// (350+off) + 2*(490+off).
func dctInstance(off int) *instance {
	var tasks []wireTask
	var edges []edge
	for b := 0; b < 4; b++ {
		for i := 0; i < 4; i++ {
			tasks = append(tasks, wireTask{Name: fmt.Sprintf("T1_%d%d", b, i), Type: "T1",
				Resources: 70, Delay: float64(350 + off), ReadEnv: 1})
		}
	}
	for b := 0; b < 4; b++ {
		for j := 0; j < 4; j++ {
			to := len(tasks)
			tasks = append(tasks, wireTask{Name: fmt.Sprintf("T2_%d%d", b, j), Type: "T2",
				Resources: 180, Delay: float64(490 + off), WriteEnv: 1})
			for i := 0; i < 4; i++ {
				edges = append(edges, edge{from: 4*b + i, to: to, data: 1})
			}
		}
	}
	return newInstance(fmt.Sprintf("dct%d", off), paperBoard, tasks, edges, func(*instance) float64 {
		return 3*paperBoard.ctNS + float64(350+off) + 2*float64(490+off)
	})
}

// packInstance is the portfolio's packNN family on the small board: m
// independent items of 34-36 CLBs (every pair fits, no triple does)
// sharing one random delay. The presolve's packing bound closes it.
func packInstance(rng *rand.Rand, m int) *instance {
	delay := float64(50 + rng.Intn(101))
	tasks := make([]wireTask, m)
	for i := range tasks {
		tasks[i] = wireTask{Name: fmt.Sprintf("t%02d", i), Type: "T", Resources: 34 + rng.Intn(3),
			Delay: delay, ReadEnv: 1, WriteEnv: 1}
	}
	return newInstance(fmt.Sprintf("pack%d", m), smallBoard, tasks, nil, packingOptimum)
}

// chainInstance is the portfolio's chainNN family: n near-capacity items
// (34-36 CLBs, delays 80/100/120 ns) in 3-task chains on the small board,
// where the row model's temporal-order and cover separators do the work.
func chainInstance(rng *rand.Rand, n int) *instance {
	delays := [3]float64{80, 100, 120}
	tasks := make([]wireTask, n)
	for i := range tasks {
		tasks[i] = wireTask{Name: fmt.Sprintf("t%02d", i), Type: "T", Resources: 34 + rng.Intn(3),
			Delay: delays[rng.Intn(3)], ReadEnv: 1, WriteEnv: 1}
	}
	var edges []edge
	for i := 0; i+1 < n; i += 3 {
		edges = append(edges, edge{from: i, to: i + 1, data: 1})
		if i+2 < n {
			edges = append(edges, edge{from: i + 1, to: i + 2, data: 1})
		}
	}
	return newInstance(fmt.Sprintf("chain%d", n), smallBoard, tasks, edges, exactOptimum)
}

// layeredInstance is the graph `tgen -kind layered -n n -seed seed` writes
// with its default resource (40) and delay (100) bases, task for task and
// in the same order: a random layered DAG of 1-4 tasks per layer, the
// shape of a DSP data flow.
func layeredInstance(n int, seed int64) *instance {
	const res, delay = 40, 100
	rng := rand.New(rand.NewSource(seed))
	var tasks []wireTask
	var edges []edge
	var prev []int
	for layer := 0; len(tasks) < n; layer++ {
		width := 1 + rng.Intn(4)
		if len(tasks)+width > n {
			width = n - len(tasks)
		}
		var cur []int
		for w := 0; w < width; w++ {
			cur = append(cur, len(tasks))
			tasks = append(tasks, wireTask{Name: fmt.Sprintf("l%d_%d", layer, w), Type: fmt.Sprintf("L%d", layer),
				Resources: res/2 + rng.Intn(res), Delay: delay/2 + float64(rng.Intn(delay)), ReadEnv: b2i(layer == 0)})
		}
		for _, c := range cur {
			if len(prev) == 0 {
				continue
			}
			p := prev[rng.Intn(len(prev))]
			edges = append(edges, edge{from: p, to: c, data: 1 + rng.Intn(4)})
			for _, q := range prev {
				if q != p && rng.Intn(3) == 0 {
					edges = append(edges, edge{from: q, to: c, data: 1 + rng.Intn(4)})
				}
			}
		}
		prev = cur
	}
	for _, t := range prev {
		tasks[t].WriteEnv = 1
	}
	return newInstance(fmt.Sprintf("layered%d", seed), smallBoard, tasks, edges, exactOptimum)
}

// chainBlocksInstance is the portfolio's chain-of-blocks family on the
// small board: 30-36 three-task chains (34, 35 and 36 CLBs, so at most two
// tasks share a partition) in two delay classes, each class an even number
// of blocks, with base delays drawn per instance and per-layer offsets
// +0/+1/+2. Its optimum is closed-form: with an even block count the
// minimum is N = 3B/2 partitions of exactly two tasks; a partition costs at
// least the mean of its two delays, and pairing equal-delay tasks (same
// class, same layer, partitions ordered by layer) meets that for every
// pair, so the optimum is N*CT + (sum of delays)/2. The relax-N window is
// widened to reach N, as in the portfolio manifest.
func chainBlocksInstance(rng *rand.Rand) *instance {
	blocks := 2 * (15 + rng.Intn(4))
	inFirst := 2 * (1 + rng.Intn(blocks/2-1))
	base := [2]int{50 + rng.Intn(101), 50 + rng.Intn(101)}
	class := rng.Perm(blocks)
	var tasks []wireTask
	var edges []edge
	sum := 0.0
	for b := 0; b < blocks; b++ {
		d := base[1]
		if class[b] < inFirst {
			d = base[0]
		}
		for j := 0; j < 3; j++ {
			tasks = append(tasks, wireTask{Name: fmt.Sprintf("b%02d_%d", b, j), Type: "C",
				Resources: 34 + j, Delay: float64(d + j)})
			sum += float64(d + j)
		}
		edges = append(edges, edge{from: 3 * b, to: 3*b + 1, data: 1}, edge{from: 3*b + 1, to: 3*b + 2, data: 1})
	}
	n := 3 * blocks / 2
	in := newInstance(fmt.Sprintf("chainblocks%d", 3*blocks), smallBoard, tasks, edges, func(*instance) float64 {
		return float64(n)*smallBoard.ctNS + sum/2
	})
	in.knobs = knobs{formulation: "patterns", maxPartitions: n + 8}
	return in
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// exactOptimum solves an instance independently of sparcsd: a temporal
// partitioning is a chain of downsets of the DAG, so a shortest path over
// the reachable downsets (each step adds one area-feasible convex block
// whose cost is CT plus its longest delay-weighted path, and whose boundary
// must fit in memory) gives the optimal latency. Every step adds at least
// one task, so taking downsets in order of size settles each before it is
// extended. Up to 32 tasks; practical for the small board's narrow blocks.
func exactOptimum(in *instance) float64 {
	n := len(in.tasks)
	if n > 32 {
		panic("exactOptimum: instance too large")
	}
	full := uint32(1)<<n - 1
	if n == 32 {
		full = math.MaxUint32
	}
	predMask := make([]uint32, n)
	for t, ps := range in.preds {
		for _, p := range ps {
			predMask[t] |= 1 << p
		}
	}
	best := map[uint32]float64{0: 0}
	bySize := make([][]uint32, n+1)
	bySize[0] = []uint32{0}
	chain := make([]float64, n) // longest path ending at t inside the block
	for size := 0; size < n; size++ {
		for _, mask := range bySize[size] {
			base := best[mask]
			// Enumerate every block S (tasks in increasing index, each added
			// only once all its predecessors are executed or in S) that fits.
			var grow func(t int, set uint32, area int, delay float64)
			grow = func(t int, set uint32, area int, delay float64) {
				for ; t < n; t++ {
					bit := uint32(1) << t
					if mask&bit != 0 || predMask[t]&^(mask|set) != 0 {
						continue
					}
					a := area + in.tasks[t].Resources
					if a > in.board.clbs {
						continue
					}
					c := 0.0
					for _, p := range in.preds[t] {
						if set&(1<<p) != 0 && chain[p] > c {
							c = chain[p]
						}
					}
					chain[t] = c + in.tasks[t].Delay
					d := math.Max(delay, chain[t])
					next := mask | set | bit
					if next == full || boundaryWords(in, next) <= in.board.words {
						v := base + in.board.ctNS + d
						if old, seen := best[next]; !seen {
							best[next] = v
							k := bits.OnesCount32(next)
							bySize[k] = append(bySize[k], next)
						} else if v < old {
							best[next] = v
						}
					}
					grow(t+1, set|bit, a, d)
				}
			}
			grow(0, 0, 0, 0)
		}
		bySize[size] = nil
	}
	if v, ok := best[full]; ok {
		return v
	}
	return math.Inf(1)
}

// boundaryWords is the data that must stay in board memory across the
// boundary after the downset done has executed.
func boundaryWords(in *instance, done uint32) int {
	w := 0
	for _, e := range in.edges {
		if done&(1<<e.from) != 0 && done&(1<<e.to) == 0 {
			w += e.data
		}
	}
	return w
}

// packingOptimum solves an instance of independent tasks exactly. Without
// edges the temporal order is free, so the optimum is the cheapest cover by
// partitions that each cost CT plus their slowest task; tasks with equal
// resources and delay are interchangeable, so a shortest path over how many
// of each kind are still unplaced finds it.
func packingOptimum(in *instance) float64 {
	if len(in.edges) > 0 {
		panic("packingOptimum: instance has edges")
	}
	type kind struct {
		res   int
		delay float64
	}
	count := map[kind]int{}
	for _, t := range in.tasks {
		count[kind{t.Resources, t.Delay}]++
	}
	var kinds []kind
	for k := range count {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool {
		if kinds[a].res != kinds[b].res {
			return kinds[a].res < kinds[b].res
		}
		return kinds[a].delay < kinds[b].delay
	})
	// A state is the count left of each kind, in mixed radix.
	radix := make([]int, len(kinds))
	states := 1
	for i, k := range kinds {
		radix[i] = states
		states *= count[k] + 1
	}
	// Every partition content that fits, as a count per kind.
	var contents [][]int
	var enum func(i, area int, c []int)
	enum = func(i, area int, c []int) {
		if i == len(kinds) {
			for _, x := range c {
				if x > 0 {
					contents = append(contents, append([]int(nil), c...))
					return
				}
			}
			return
		}
		for x := 0; x <= count[kinds[i]] && area+x*kinds[i].res <= in.board.clbs; x++ {
			c[i] = x
			enum(i+1, area+x*kinds[i].res, c)
		}
		c[i] = 0
	}
	enum(0, 0, make([]int, len(kinds)))
	best := make([]float64, states)
	left := make([]int, len(kinds))
	for s := 1; s < states; s++ {
		for i := range kinds {
			left[i] = s / radix[i] % (count[kinds[i]] + 1)
		}
		best[s] = math.Inf(1)
	next:
		for _, c := range contents {
			prev, slowest := s, 0.0
			for i, x := range c {
				if x > left[i] {
					continue next
				}
				if x > 0 {
					slowest = math.Max(slowest, kinds[i].delay)
				}
				prev -= x * radix[i]
			}
			best[s] = math.Min(best[s], best[prev]+in.board.ctNS+slowest)
		}
	}
	return best[states-1]
}

// view is one wire rendering of an instance with the names the answer
// refers to.
type view struct {
	in    *instance
	names []string // names[t] is the wire name of task t
	graph json.RawMessage
}

// canonical renders an instance as its generator lists it: the generator's
// names, tasks and edges in index order (for layered instances, exactly
// what tgen writes). Fresh requests are sent this way, so an input's
// wire form is fixed by the seed alone.
func canonical(in *instance) *view {
	v := &view{in: in, names: make([]string, len(in.tasks))}
	for t := range in.tasks {
		v.names[t] = in.tasks[t].Name
	}
	return v.render(identity(len(in.tasks)), identity(len(in.edges)))
}

// relabel renders an instance with tasks renamed and tasks and edges
// shuffled, so every such view of an instance is isomorphic to the others
// (one cache entry) while no two share task names.
func relabel(in *instance, rng *rand.Rand) *view {
	v := &view{in: in, names: make([]string, len(in.tasks))}
	tag := rng.Int63()
	for t := range v.names {
		v.names[t] = fmt.Sprintf("%s_%x_%d", in.tasks[t].Type, tag&0xffffff, t)
	}
	return v.render(rng.Perm(len(in.tasks)), rng.Perm(len(in.edges)))
}

// render encodes the graph listing tasks and edges in the given orders.
func (v *view) render(taskOrder, edgeOrder []int) *view {
	in := v.in
	wg := wireGraph{Name: in.name, Tasks: make([]wireTask, len(taskOrder)), Edges: make([]wireEdge, len(edgeOrder))}
	for i, t := range taskOrder {
		wg.Tasks[i] = in.tasks[t]
		wg.Tasks[i].Name = v.names[t]
	}
	for i, j := range edgeOrder {
		e := in.edges[j]
		wg.Edges[i] = wireEdge{From: v.names[e.from], To: v.names[e.to], Data: e.data}
	}
	raw, err := json.Marshal(wg)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	v.graph = raw
	return v
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
