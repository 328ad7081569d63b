package main

import (
	"encoding/json"
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/listpart"
)

func TestGenerateKinds(t *testing.T) {
	for _, kind := range []string{"chain", "tree", "layered", "dct"} {
		g, err := generate(kind, 12, 3, 40, 100)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", kind, err)
		}
		if g.NumTasks() == 0 {
			t.Errorf("%s: empty graph", kind)
		}
		// Round trip through the JSON schema consumed by sparcs.
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var g2 dfg.Graph
		if err := json.Unmarshal(data, &g2); err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if g2.NumTasks() != g.NumTasks() {
			t.Errorf("%s: JSON round trip lost tasks", kind)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := generate("nope", 4, 1, 10, 10); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := generate("chain", 0, 1, 10, 10); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestChainShape(t *testing.T) {
	g, err := generate("chain", 5, 1, 30, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 5 || g.NumEdges() != 4 {
		t.Errorf("chain: %d tasks, %d edges", g.NumTasks(), g.NumEdges())
	}
	if len(g.Roots()) != 1 || len(g.Leaves()) != 1 {
		t.Error("chain must have one root and one leaf")
	}
}

func TestTreeShape(t *testing.T) {
	g, err := generate("tree", 8, 1, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	// 8 leaves + 4 + 2 + 1 reducers = 15.
	if g.NumTasks() != 15 {
		t.Errorf("tree tasks = %d, want 15", g.NumTasks())
	}
	if len(g.Leaves()) != 1 {
		t.Errorf("tree must reduce to one sink, got %d", len(g.Leaves()))
	}
}

// TestGeneratedGraphsPartition: every generated family flows through the
// greedy partitioner on a small board.
func TestGeneratedGraphsPartition(t *testing.T) {
	board := arch.SmallTestBoard()
	board.FPGA.CLBs = 120
	for _, kind := range []string{"chain", "tree", "layered"} {
		g, err := generate(kind, 10, 7, 40, 80)
		if err != nil {
			t.Fatal(err)
		}
		p, err := listpart.Solve(g, board)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.N < 1 {
			t.Errorf("%s: no partitions", kind)
		}
	}
}
