package dfg

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the 4-task diamond a -> {b, c} -> d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	g.MustAddTask(Task{Name: "a", Resources: 10, Delay: 100})
	g.MustAddTask(Task{Name: "b", Resources: 20, Delay: 200})
	g.MustAddTask(Task{Name: "c", Resources: 30, Delay: 150})
	g.MustAddTask(Task{Name: "d", Resources: 40, Delay: 50})
	g.MustAddEdge("a", "b", 4)
	g.MustAddEdge("a", "c", 4)
	g.MustAddEdge("b", "d", 2)
	g.MustAddEdge("c", "d", 2)
	return g
}

func TestAddTaskDuplicate(t *testing.T) {
	g := New("g")
	if _, err := g.AddTask(Task{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(Task{Name: "x"}); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, err := g.AddTask(Task{}); err == nil {
		t.Error("empty task name accepted")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("g")
	g.MustAddTask(Task{Name: "a"})
	g.MustAddTask(Task{Name: "b"})
	if err := g.AddEdge("a", "missing", 1); err == nil {
		t.Error("edge to unknown task accepted")
	}
	if err := g.AddEdge("a", "a", 1); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge("a", "b", -1); err == nil {
		t.Error("negative data units accepted")
	}
	if err := g.AddEdge("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "b", 1); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestRootsLeaves(t *testing.T) {
	g := diamond(t)
	if r := g.Roots(); len(r) != 1 || g.Task(r[0]).Name != "a" {
		t.Errorf("roots = %v", r)
	}
	var leaves []string
	for i := 0; i < g.NumTasks(); i++ {
		if len(g.Succs(i)) == 0 {
			leaves = append(leaves, g.Task(i).Name)
		}
	}
	if len(leaves) != 1 || leaves[0] != "d" {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for p, v := range order {
		pos[v] = p
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New("cyc")
	g.MustAddTask(Task{Name: "a"})
	g.MustAddTask(Task{Name: "b"})
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("b", "a", 1)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Errorf("TopoOrder err = %v, want ErrCycle", err)
	}
	if err := g.Validate(); err != ErrCycle {
		t.Errorf("Validate err = %v, want ErrCycle", err)
	}
}

func TestValidateNegativeCosts(t *testing.T) {
	g := New("neg")
	g.MustAddTask(Task{Name: "a", Resources: -1})
	if err := g.Validate(); err == nil {
		t.Error("negative resources accepted")
	}
	g2 := New("neg2")
	g2.MustAddTask(Task{Name: "a", Delay: -5})
	if err := g2.Validate(); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestPathsAndCount(t *testing.T) {
	g := diamond(t)
	if n := g.CountPaths(0); n != 2 {
		t.Errorf("CountPaths = %d, want 2", n)
	}
	paths, err := g.Paths(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if g.Task(p[0]).Name != "a" || g.Task(p[len(p)-1]).Name != "d" {
			t.Errorf("path %v does not run root to leaf", p)
		}
	}
	if _, err := g.Paths(1); !errors.Is(err, ErrTooManyPaths) {
		t.Errorf("path cap: err = %v, want ErrTooManyPaths", err)
	}
}

func TestTotalResources(t *testing.T) {
	g := diamond(t)
	if r := g.TotalResources(); r != 100 {
		t.Errorf("TotalResources = %d, want 100", r)
	}
}

func TestInterchangeableGroups(t *testing.T) {
	g := New("sym")
	g.MustAddTask(Task{Name: "src", Type: "S", Resources: 5, Delay: 10})
	for _, n := range []string{"m1", "m2", "m3"} {
		g.MustAddTask(Task{Name: n, Type: "M", Resources: 7, Delay: 20})
		g.MustAddEdge("src", n, 1)
	}
	g.MustAddTask(Task{Name: "sink", Type: "K", Resources: 5, Delay: 10})
	for _, n := range []string{"m1", "m2", "m3"} {
		g.MustAddEdge(n, "sink", 1)
	}
	groups := g.InterchangeableGroups()
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want one group of three", groups)
	}
}

func TestInterchangeableGroupsDistinguishesNeighbours(t *testing.T) {
	g := New("asym")
	g.MustAddTask(Task{Name: "a", Type: "X", Resources: 1, Delay: 1})
	g.MustAddTask(Task{Name: "b", Type: "X", Resources: 1, Delay: 1})
	g.MustAddTask(Task{Name: "c", Type: "Y", Resources: 2, Delay: 2})
	g.MustAddEdge("a", "c", 1) // a has a successor, b does not
	if groups := g.InterchangeableGroups(); len(groups) != 0 {
		t.Errorf("groups = %v, want none", groups)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(data, &g2); err != nil {
		t.Fatal(err)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost structure: %d/%d tasks, %d/%d edges",
			g2.NumTasks(), g.NumTasks(), g2.NumEdges(), g.NumEdges())
	}
	for i := 0; i < g.NumTasks(); i++ {
		a, b := g.Task(i), g2.Task(i)
		if a.Name != b.Name || a.Resources != b.Resources || a.Delay != b.Delay {
			t.Errorf("task %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if d1, d2 := maxPathDelay(g), maxPathDelay(&g2); d1 != d2 {
		t.Errorf("critical path changed over round trip: %g vs %g", d1, d2)
	}
}

func TestDOTContainsAllTasks(t *testing.T) {
	g := diamond(t)
	dot := g.DOT()
	for _, n := range []string{"a", "b", "c", "d"} {
		if !contains(dot, `"`+n+`"`) {
			t.Errorf("DOT output missing task %q:\n%s", n, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// maxPathDelay is the critical path by its definition: the largest sum of
// D(t) along an enumerated root-to-leaf path.
func maxPathDelay(g *Graph) float64 {
	paths, _ := g.Paths(0)
	best := 0.0
	for _, p := range paths {
		d := 0.0
		for _, v := range p {
			d += g.Task(v).Delay
		}
		best = max(best, d)
	}
	return best
}

// randomDAG builds a random layered DAG; used by property tests.
func randomDAG(rng *rand.Rand) *Graph {
	g := New("rand")
	layers := 2 + rng.Intn(4)
	var prev []int
	id := 0
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(4)
		var cur []int
		for w := 0; w < width; w++ {
			name := string(rune('a'+l)) + string(rune('0'+w))
			idx := g.MustAddTask(Task{
				Name: name, Resources: 1 + rng.Intn(50),
				Delay: float64(1 + rng.Intn(100)),
			})
			cur = append(cur, idx)
			id++
		}
		for _, c := range cur {
			for _, p := range prev {
				if rng.Intn(2) == 0 {
					_ = g.AddEdgeByID(p, c, 1+rng.Intn(4))
				}
			}
		}
		prev = cur
	}
	return g
}

// Property: topological order exists for every generated DAG and respects
// all edges; CountPaths agrees with len(Paths()).
func TestRandomDAGProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[int]int)
		for p, v := range order {
			pos[v] = p
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		paths, err := g.Paths(0)
		if err != nil {
			return false
		}
		return g.CountPaths(0) == len(paths)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves the critical path on random DAGs.
func TestRandomJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng)
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var g2 Graph
		if err := json.Unmarshal(data, &g2); err != nil {
			return false
		}
		return maxPathDelay(g) == maxPathDelay(&g2) && g.NumEdges() == g2.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
