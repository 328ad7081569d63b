package listpart

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/tempart"
)

func TestGreedyChain(t *testing.T) {
	g := dfg.New("chain")
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		g.MustAddTask(dfg.Task{Name: n, Resources: 30, Delay: 100})
	}
	for i := 0; i+1 < len(names); i++ {
		g.MustAddEdge(names[i], names[i+1], 1)
	}
	b := arch.SmallTestBoard() // 100 CLBs
	p, err := Solve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy packs a,b,c (90 CLBs) then d.
	if p.N != 2 {
		t.Fatalf("N = %d, want 2", p.N)
	}
	want := []int{0, 0, 0, 1}
	for i, w := range want {
		if p.Assign[i] != w {
			t.Errorf("assign[%d] = %d, want %d", i, p.Assign[i], w)
		}
	}
	if err := tempart.CheckFeasible(g, b, p.Assign, p.N); err != nil {
		t.Error(err)
	}
	if p.Latency != 2*b.FPGA.ReconfigTime+300+100 {
		t.Errorf("latency = %g", p.Latency)
	}
}

// TestGreedyMixesTypesOnDCT reproduces the paper's observation: the list
// partitioner places T2 tasks into partition 1 because it has unused CLBs
// (1600 - 16*70 = 480 fits two 180-CLB T2 tasks).
func TestGreedyMixesTypesOnDCT(t *testing.T) {
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	board := arch.PaperXC4044Board()
	p, err := Solve(g, board)
	if err != nil {
		t.Fatal(err)
	}
	t2InP0 := 0
	for ti := 0; ti < g.NumTasks(); ti++ {
		if g.Task(ti).Type == "T2" && p.Assign[ti] == 0 {
			t2InP0++
		}
	}
	if t2InP0 == 0 {
		t.Error("expected T2 tasks packed into partition 1")
	}
	// Partition 1's delay therefore includes a T1+T2 path (350+490).
	if p.Delays[0] < 840 {
		t.Errorf("partition 1 delay = %g, want >= 840 (T1+T2 path)", p.Delays[0])
	}
}

func TestErrors(t *testing.T) {
	g := dfg.New("big")
	g.MustAddTask(dfg.Task{Name: "x", Resources: 10000})
	if _, err := Solve(g, arch.SmallTestBoard()); err == nil {
		t.Error("oversized task accepted")
	}
	cyc := dfg.New("cyc")
	cyc.MustAddTask(dfg.Task{Name: "a"})
	cyc.MustAddTask(dfg.Task{Name: "b"})
	cyc.MustAddEdge("a", "b", 1)
	cyc.MustAddEdge("b", "a", 1)
	if _, err := Solve(cyc, arch.SmallTestBoard()); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestEmpty(t *testing.T) {
	p, err := Solve(dfg.New("empty"), arch.SmallTestBoard())
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 0 {
		t.Errorf("N = %d, want 0", p.N)
	}
}
