// Package dfg implements the behavior-level task graph of the paper
// (Fig. 3): a directed acyclic graph of coarse-grain tasks with data-unit
// weighted edges and environment I/O, enclosed by an implicit outer loop
// whose trip count is only known at run time.
//
// Each task carries the synthesis costs produced by the HLS estimation
// engine — FPGA resources R(t) (CLBs) and execution delay D(t) — which are
// the inputs to the temporal partitioning ILP (internal/tempart).
package dfg

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Task is a node of the task graph.
type Task struct {
	// Name uniquely identifies the task within its graph.
	Name string
	// Type is a free-form kind label (e.g. "T1"/"T2" for the DCT vector
	// products of the paper's Fig. 8). Tasks of equal Type are assumed to
	// have identical synthesis costs but not identical connectivity.
	Type string
	// Resources is R(t): the FPGA resource cost (CLBs) from the HLS
	// estimator.
	Resources int
	// Extra carries demands on additional resource types (flip-flops,
	// block RAMs, I/O pads, ...). The paper's Eq. 6 notes that "similar
	// equations can be added if multiple resource types exist in the
	// FPGA"; the partitioner adds one resource constraint per type that
	// the target FPGA caps (arch.FPGA.ExtraCapacity).
	Extra map[string]int
	// Delay is D(t): the task execution delay in nanoseconds from the HLS
	// estimator.
	Delay float64
	// ReadEnv is B(env, t): words read by the task from the environment.
	ReadEnv int
	// WriteEnv is B(t, env): words written by the task to the environment.
	WriteEnv int
	// Payload optionally carries a behavioral description (e.g. an
	// *hls.OpGraph) used by downstream synthesis; the graph algorithms
	// never inspect it.
	Payload any
}

// Edge is a data dependency t_from -> t_to annotated with B(t_from, t_to),
// the number of data units communicated.
type Edge struct {
	From, To int // task indices
	Data     int // data units
}

// Graph is a task graph. The zero value is an empty usable graph.
type Graph struct {
	// Name labels the graph in reports.
	Name  string
	tasks []*Task
	index map[string]int
	edges []Edge
	succ  [][]int // successor task indices
	pred  [][]int // predecessor task indices
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, index: map[string]int{}}
}

// AddTask adds a task and returns its index. The task name must be unique
// and non-empty.
func (g *Graph) AddTask(t Task) (int, error) {
	return g.addTask(&t)
}

// addTask adds the task t points to; the graph keeps the pointer.
func (g *Graph) addTask(t *Task) (int, error) {
	if t.Name == "" {
		return 0, errors.New("dfg: task name must be non-empty")
	}
	if g.index == nil {
		g.index = map[string]int{}
	}
	if _, dup := g.index[t.Name]; dup {
		return 0, fmt.Errorf("dfg: duplicate task name %q", t.Name)
	}
	id := len(g.tasks)
	g.tasks = append(g.tasks, t)
	g.index[t.Name] = id
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id, nil
}

// MustAddTask is AddTask that panics on error (for programmatic builders).
func (g *Graph) MustAddTask(t Task) int {
	id, err := g.AddTask(t)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge adds a dependency edge between two task names with the given
// number of communicated data units.
func (g *Graph) AddEdge(from, to string, dataUnits int) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("dfg: unknown task %q", from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("dfg: unknown task %q", to)
	}
	return g.AddEdgeByID(fi, ti, dataUnits)
}

// AddEdgeByID adds a dependency edge between two task indices.
func (g *Graph) AddEdgeByID(from, to int, dataUnits int) error {
	if from < 0 || from >= len(g.tasks) || to < 0 || to >= len(g.tasks) {
		return fmt.Errorf("dfg: edge endpoints out of range: %d -> %d", from, to)
	}
	if from == to {
		return fmt.Errorf("dfg: self edge on task %q", g.tasks[from].Name)
	}
	if dataUnits < 0 {
		return fmt.Errorf("dfg: negative data units on edge %q -> %q", g.tasks[from].Name, g.tasks[to].Name)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("dfg: duplicate edge %q -> %q", g.tasks[from].Name, g.tasks[to].Name)
		}
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Data: dataUnits})
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, to string, dataUnits int) {
	if err := g.AddEdge(from, to, dataUnits); err != nil {
		panic(err)
	}
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Task returns the task at index i.
func (g *Graph) Task(i int) *Task { return g.tasks[i] }

// TaskByName returns the index of the named task, or -1.
func (g *Graph) TaskByName(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	return -1
}

// Edges returns the edge list (shared slice; treat as read-only).
func (g *Graph) Edges() []Edge { return g.edges }

// Succs returns the successor indices of task i (read-only).
func (g *Graph) Succs(i int) []int { return g.succ[i] }

// Preds returns the predecessor indices of task i (read-only).
func (g *Graph) Preds(i int) []int { return g.pred[i] }

// Roots returns tasks with no predecessors (the paper's T_r set).
func (g *Graph) Roots() []int {
	var out []int
	for i := range g.tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// ErrCycle is returned when the graph contains a dependency cycle.
var ErrCycle = errors.New("dfg: graph contains a cycle")

// TopoOrder returns a topological ordering of task indices, or ErrCycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := range g.tasks {
		indeg[i] = len(g.pred[i])
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity and non-negative costs.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, t := range g.tasks {
		if t.Resources < 0 {
			return fmt.Errorf("dfg: task %q has negative resources", t.Name)
		}
		if t.Delay < 0 {
			return fmt.Errorf("dfg: task %q has negative delay", t.Name)
		}
		if t.ReadEnv < 0 || t.WriteEnv < 0 {
			return fmt.Errorf("dfg: task %q has negative environment I/O", t.Name)
		}
		for k, v := range t.Extra {
			if v < 0 {
				return fmt.Errorf("dfg: task %q has negative %q demand", t.Name, k)
			}
		}
	}
	return nil
}

// ExtraTypes returns the sorted set of extra resource type names demanded
// by any task.
func (g *Graph) ExtraTypes() []string {
	set := map[string]bool{}
	for _, t := range g.tasks {
		for k := range t.Extra {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalExtra sums the demand for one extra resource type over all tasks.
func (g *Graph) TotalExtra(kind string) int {
	sum := 0
	for _, t := range g.tasks {
		sum += t.Extra[kind]
	}
	return sum
}

// TotalResources sums R(t) over all tasks (the preprocessing numerator of
// the partition-count lower bound).
func (g *Graph) TotalResources() int {
	sum := 0
	for _, t := range g.tasks {
		sum += t.Resources
	}
	return sum
}

// CountPaths returns the number of root-to-leaf paths, saturating at cap
// (pass cap <= 0 for no cap). This guards the exact path enumeration used
// by the ILP's per-path delay constraints (Eq. 7).
func (g *Graph) CountPaths(cap int) int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	count := make([]int, len(g.tasks))
	total := 0
	sat := func(a, b int) int {
		c := a + b
		if cap > 0 && c > cap {
			return cap
		}
		if c < 0 { // overflow
			return int(^uint(0) >> 1)
		}
		return c
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if len(g.succ[v]) == 0 {
			count[v] = 1
			continue
		}
		for _, s := range g.succ[v] {
			count[v] = sat(count[v], count[s])
		}
	}
	for _, r := range g.Roots() {
		total = sat(total, count[r])
	}
	return total
}

// ErrTooManyPaths is returned by Paths when the root-to-leaf path count
// exceeds its cap.
var ErrTooManyPaths = errors.New("dfg: path enumeration exceeds cap")

// Paths enumerates all root-to-leaf paths (the paper's P_rl set) as slices
// of task indices. If maxPaths > 0 and the enumeration would exceed it, it
// returns an error wrapping ErrTooManyPaths; callers should then fall back
// to a heuristic partitioner.
func (g *Graph) Paths(maxPaths int) ([][]int, error) {
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	if maxPaths > 0 {
		if n := g.CountPaths(maxPaths + 1); n > maxPaths {
			return nil, fmt.Errorf("%w (%d > %d)", ErrTooManyPaths, n, maxPaths)
		}
	}
	var out [][]int
	var cur []int
	var walk func(v int)
	walk = func(v int) {
		cur = append(cur, v)
		if len(g.succ[v]) == 0 {
			out = append(out, append([]int(nil), cur...))
		} else {
			for _, s := range g.succ[v] {
				walk(s)
			}
		}
		cur = cur[:len(cur)-1]
	}
	for _, r := range g.Roots() {
		walk(r)
	}
	return out, nil
}

// InterchangeableGroups returns groups of task indices that are provably
// interchangeable for partitioning: same Type, same Resources and Delay,
// same environment I/O, and identical predecessor and successor sets.
// The temporal partitioner uses these groups to add symmetry-breaking
// constraints, which dramatically reduce the B&B search on regular DSP
// graphs (e.g. the 16 T1 vector products of the DCT).
func (g *Graph) InterchangeableGroups() [][]int {
	n := len(g.tasks)
	if n == 0 {
		return nil
	}
	// Sorted neighbour sets, packed into one backing array (this runs once
	// per partitioning solve, on its hot path).
	total := 0
	for i := 0; i < n; i++ {
		total += len(g.pred[i]) + len(g.succ[i])
	}
	flat := make([]int, 0, total)
	pred := make([][]int, n)
	succ := make([][]int, n)
	for i := 0; i < n; i++ {
		at := len(flat)
		flat = append(flat, g.pred[i]...)
		pred[i] = flat[at:len(flat):len(flat)]
		sort.Ints(pred[i])
		at = len(flat)
		flat = append(flat, g.succ[i]...)
		succ[i] = flat[at:len(flat):len(flat)]
		sort.Ints(succ[i])
	}
	cmpInts := func(a, b []int) int {
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				if a[k] < b[k] {
					return -1
				}
				return 1
			}
		}
		return len(a) - len(b)
	}
	// cmp orders tasks by their interchangeability key; equal keys mean the
	// tasks are interchangeable.
	cmp := func(a, b int) int {
		ta, tb := g.tasks[a], g.tasks[b]
		switch {
		case ta.Type != tb.Type:
			if ta.Type < tb.Type {
				return -1
			}
			return 1
		case ta.Resources != tb.Resources:
			return ta.Resources - tb.Resources
		case ta.Delay != tb.Delay:
			if ta.Delay < tb.Delay {
				return -1
			}
			return 1
		case ta.ReadEnv != tb.ReadEnv:
			return ta.ReadEnv - tb.ReadEnv
		case ta.WriteEnv != tb.WriteEnv:
			return ta.WriteEnv - tb.WriteEnv
		}
		if c := cmpInts(pred[a], pred[b]); c != 0 {
			return c
		}
		return cmpInts(succ[a], succ[b])
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if c := cmp(order[a], order[b]); c != 0 {
			return c < 0
		}
		return order[a] < order[b] // members of a run stay ascending
	})
	var out [][]int
	for i := 0; i < n; {
		j := i + 1
		for j < n && cmp(order[i], order[j]) == 0 {
			j++
		}
		if j-i > 1 {
			out = append(out, append([]int(nil), order[i:j]...))
		}
		i = j
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// DOT renders the graph in Graphviz dot syntax for inspection.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, t := range g.tasks {
		fmt.Fprintf(&b, "  %q [label=\"%s\\n%s R=%d D=%.0f\"];\n",
			t.Name, t.Name, t.Type, t.Resources, t.Delay)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d\"];\n",
			g.tasks[e.From].Name, g.tasks[e.To].Name, e.Data)
	}
	b.WriteString("}\n")
	return b.String()
}
