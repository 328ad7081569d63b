package dfg

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildPerm rebuilds g with tasks added in the order perm and every task
// renamed via rename, preserving structure. It is the isomorphism generator
// of the property tests.
func buildPerm(t *testing.T, g *Graph, perm []int, rename func(string) string) *Graph {
	t.Helper()
	ng := New(g.Name + "-perm")
	for _, ti := range perm {
		task := *g.Task(ti)
		task.Name = rename(task.Name)
		if _, err := ng.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	edges := append([]Edge(nil), g.Edges()...)
	rand.New(rand.NewSource(int64(len(perm)))).Shuffle(len(edges), func(i, j int) {
		edges[i], edges[j] = edges[j], edges[i]
	})
	for _, e := range edges {
		if err := ng.AddEdge(rename(g.Task(e.From).Name), rename(g.Task(e.To).Name), e.Data); err != nil {
			t.Fatal(err)
		}
	}
	return ng
}

// randomDAG generates a layered random DAG with varied task attributes.
func randomCanonDAG(rng *rand.Rand, nTasks int) *Graph {
	g := New("rand")
	types := []string{"T1", "T2", "T3"}
	for i := 0; i < nTasks; i++ {
		g.MustAddTask(Task{
			Name:      fmt.Sprintf("t%d", i),
			Type:      types[rng.Intn(len(types))],
			Resources: 10 + rng.Intn(50),
			Delay:     float64(10 * (1 + rng.Intn(20))),
			ReadEnv:   rng.Intn(3),
			WriteEnv:  rng.Intn(3),
		})
	}
	for to := 1; to < nTasks; to++ {
		for from := 0; from < to; from++ {
			if rng.Intn(3) == 0 {
				g.MustAddEdgeByID(from, to, 1+rng.Intn(8))
			}
		}
	}
	return g
}

func (g *Graph) MustAddEdgeByID(from, to, data int) {
	if err := g.AddEdgeByID(from, to, data); err != nil {
		panic(err)
	}
}

// TestStructureHashIsomorphismInvariant is the cache-key stability property
// test: renaming every task and re-adding tasks and edges in a different
// order must not change the hash.
func TestStructureHashIsomorphismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomCanonDAG(rng, 4+rng.Intn(16))
		want := hashOf(g)
		perm := rng.Perm(g.NumTasks())
		iso := buildPerm(t, g, perm, func(s string) string { return "renamed_" + s })
		if got := hashOf(iso); got != want {
			t.Fatalf("trial %d: isomorphic graph hashes differ:\n  %s\n  %s\n%s", trial, want, got, g.DOT())
		}
	}
}

// TestStructureHashIgnoresGraphName pins that only structure is keyed.
func TestStructureHashIgnoresGraphName(t *testing.T) {
	g := randomCanonDAG(rand.New(rand.NewSource(1)), 8)
	h1 := hashOf(g)
	g.Name = "other"
	if hashOf(g) != h1 {
		t.Fatal("graph name leaked into the structure hash")
	}
}

// TestStructureHashPerturbationSensitive is the other half of the property:
// every structural perturbation of a graph must change the hash.
func TestStructureHashPerturbationSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randomCanonDAG(rng, 6+rng.Intn(10))
		base := hashOf(g)
		perturb := func(name string, f func(*Graph) bool) {
			ng := buildPerm(t, g, identityPerm(g.NumTasks()), func(s string) string { return s })
			if !f(ng) {
				return // perturbation not applicable to this graph
			}
			if hashOf(ng) == base {
				t.Fatalf("trial %d: perturbation %q left the hash unchanged\n%s", trial, name, g.DOT())
			}
		}
		ti := rng.Intn(g.NumTasks())
		perturb("resources+1", func(ng *Graph) bool { ng.Task(ti).Resources++; return true })
		perturb("delay*2", func(ng *Graph) bool { ng.Task(ti).Delay *= 2; return true })
		perturb("type-change", func(ng *Graph) bool { ng.Task(ti).Type += "X"; return true })
		perturb("read-env+1", func(ng *Graph) bool { ng.Task(ti).ReadEnv++; return true })
		perturb("extra-demand", func(ng *Graph) bool {
			ng.Task(ti).Extra = map[string]int{"bram": 1}
			return true
		})
		perturb("add-task", func(ng *Graph) bool {
			ng.MustAddTask(Task{Name: "extra", Resources: 1, Delay: 1})
			return true
		})
		perturb("edge-data+1", func(ng *Graph) bool {
			if ng.NumEdges() == 0 {
				return false
			}
			e := ng.Edges()[rng.Intn(ng.NumEdges())]
			// Rebuild with one edge's data bumped (edges are immutable).
			n2 := New(ng.Name)
			for i := 0; i < ng.NumTasks(); i++ {
				n2.MustAddTask(*ng.Task(i))
			}
			for _, e2 := range ng.Edges() {
				d := e2.Data
				if e2 == e {
					d++
				}
				n2.MustAddEdgeByID(e2.From, e2.To, d)
			}
			*ng = *n2
			return true
		})
		perturb("drop-edge", func(ng *Graph) bool {
			if ng.NumEdges() == 0 {
				return false
			}
			drop := rng.Intn(ng.NumEdges())
			n2 := New(ng.Name)
			for i := 0; i < ng.NumTasks(); i++ {
				n2.MustAddTask(*ng.Task(i))
			}
			for i, e2 := range ng.Edges() {
				if i == drop {
					continue
				}
				n2.MustAddEdgeByID(e2.From, e2.To, e2.Data)
			}
			*ng = *n2
			return true
		})
	}
}

// hashOf returns g's canonical structure hash.
func hashOf(g *Graph) string {
	h, _ := g.Canonical()
	return h
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestCanonicalOrderTransfersAssignments pins the property the service
// cache relies on: mapping task positions through the canonical order carries a
// per-task labeling from a graph to an isomorphic copy such that
// corresponding tasks get the same label whenever the WL signatures are
// discriminating (ties are interchangeable in these graphs).
func TestCanonicalOrderTransfersAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		g := randomCanonDAG(rng, 5+rng.Intn(12))
		perm := rng.Perm(g.NumTasks())
		iso := buildPerm(t, g, perm, func(s string) string { return "x" + s })
		_, co := g.Canonical()
		_, ci := iso.Canonical()
		if len(co) != len(ci) {
			t.Fatal("order length mismatch")
		}
		// Tasks at the same canonical position must have identical
		// name-free attributes.
		for pos := range co {
			a, b := g.Task(co[pos]), iso.Task(ci[pos])
			if a.Type != b.Type || a.Resources != b.Resources || a.Delay != b.Delay ||
				a.ReadEnv != b.ReadEnv || a.WriteEnv != b.WriteEnv {
				t.Fatalf("trial %d pos %d: canonical positions hold different tasks: %+v vs %+v",
					trial, pos, a, b)
			}
		}
	}
}
