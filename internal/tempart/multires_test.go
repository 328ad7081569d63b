package tempart

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
)

// multiResBoard caps both CLBs and block RAMs.
func multiResBoard() arch.Board {
	b := arch.SmallTestBoard()
	b.FPGA.CLBs = 1000
	b.FPGA.ExtraCapacity = map[string]int{"BRAM": 4}
	b.FPGA.ReconfigTime = 1000
	return b
}

func TestMinPartitionsMultiResource(t *testing.T) {
	g := dfg.New("g")
	// CLBs alone would fit in one partition; BRAM (10 across a cap of 4)
	// forces at least 3.
	for i := 0; i < 5; i++ {
		g.MustAddTask(dfg.Task{
			Name: string(rune('a' + i)), Resources: 100, Delay: 10,
			Extra: map[string]int{"BRAM": 2},
		})
	}
	if n := MinPartitions(g, multiResBoard()); n != 3 {
		t.Errorf("MinPartitions = %d, want 3 (BRAM bound)", n)
	}
}

func TestSolveRespectsExtraCapacity(t *testing.T) {
	g := dfg.New("g")
	for i := 0; i < 4; i++ {
		g.MustAddTask(dfg.Task{
			Name: string(rune('a' + i)), Resources: 100, Delay: 50,
			Extra: map[string]int{"BRAM": 2},
		})
	}
	b := multiResBoard()
	p, err := Solve(context.Background(), Input{Graph: g, Board: b})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 2 {
		t.Fatalf("N = %d, want 2 (8 BRAM over cap 4)", p.N)
	}
	if err := CheckFeasible(g, b, p.Assign, p.N); err != nil {
		t.Error(err)
	}
	// No partition may exceed 4 BRAMs.
	use := make([]int, p.N)
	for ti, pi := range p.Assign {
		use[pi] += g.Task(ti).Extra["BRAM"]
	}
	for pi, u := range use {
		if u > 4 {
			t.Errorf("partition %d uses %d BRAM > 4", pi, u)
		}
	}
}

func TestExtraTooLarge(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 10, Delay: 1, Extra: map[string]int{"BRAM": 9}})
	_, err := Solve(context.Background(), Input{Graph: g, Board: multiResBoard()})
	if !errors.Is(err, ErrTaskTooLarge) {
		t.Errorf("err = %v, want ErrTaskTooLarge", err)
	}
}

func TestUncappedExtraIgnored(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 10, Delay: 1, Extra: map[string]int{"DSP48": 999}})
	b := multiResBoard() // no DSP48 capacity -> unconstrained
	p, err := Solve(context.Background(), Input{Graph: g, Board: b})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1 {
		t.Errorf("N = %d, want 1", p.N)
	}
}

func TestCheckFeasibleExtra(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 10, Extra: map[string]int{"BRAM": 3}})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 10, Extra: map[string]int{"BRAM": 3}})
	b := multiResBoard()
	if err := CheckFeasible(g, b, []int{0, 0}, 1); err == nil {
		t.Error("6 BRAM in one partition accepted against cap 4")
	}
	if err := CheckFeasible(g, b, []int{0, 1}, 2); err != nil {
		t.Error(err)
	}
}

func TestGreedyRespectsExtra(t *testing.T) {
	g := dfg.New("g")
	for i := 0; i < 4; i++ {
		g.MustAddTask(dfg.Task{
			Name: string(rune('a' + i)), Resources: 10, Delay: 5,
			Extra: map[string]int{"BRAM": 2},
		})
	}
	assign, n := greedyAssign(g, multiResBoard(), false)
	if assign == nil {
		t.Fatal("greedy failed")
	}
	if n != 2 {
		t.Errorf("greedy N = %d, want 2", n)
	}
	if err := CheckFeasible(g, multiResBoard(), assign, n); err != nil {
		t.Error(err)
	}
}
