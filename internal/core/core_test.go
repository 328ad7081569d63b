package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/fission"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/sim"
)

// TestFullDCTFlow runs the paper's entire case-study flow end to end:
// estimation (inside BuildDCTGraph), ILP partitioning, fission analysis,
// per-partition synthesis, layout, RTL, and simulation.
func TestFullDCTFlow(t *testing.T) {
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = fission.IDH
	d, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The paper's partitioning: 3 partitions, 16 T1 | 8 T2 | 8 T2.
	if d.Partitioning.N != 3 {
		t.Fatalf("N = %d, want 3", d.Partitioning.N)
	}
	if !d.Partitioning.Optimal {
		t.Error("DCT partitioning not proven optimal")
	}
	count := map[int]map[string]int{0: {}, 1: {}, 2: {}}
	for ti := 0; ti < g.NumTasks(); ti++ {
		count[d.Partitioning.Assign[ti]][g.Task(ti).Type]++
	}
	if count[0]["T1"] != 16 || count[0]["T2"] != 0 {
		t.Errorf("partition 1 = %v, want 16 T1", count[0])
	}
	if count[1]["T2"] != 8 || count[2]["T2"] != 8 {
		t.Errorf("partitions 2/3 = %v/%v, want 8 T2 each", count[1], count[2])
	}

	// Fission: k = 2048.
	if d.Fission.K != 2048 {
		t.Errorf("k = %d, want 2048", d.Fission.K)
	}

	// Synthesis happened for all partitions (behaviors attached).
	for p, pd := range d.Synthesized {
		if pd == nil {
			t.Fatalf("partition %d not synthesized", p)
		}
	}
	if d.Timings[0].ClockNS != 50 || d.Timings[1].ClockNS != 70 {
		t.Errorf("partition clocks = %v, want 50/70", d.Timings)
	}

	// Layouts exist and block for partition 1 holds 32 words.
	if d.Layouts[0] == nil || d.Layouts[0].BlockWords != 32 {
		t.Errorf("partition 1 layout = %+v, want 32-word block", d.Layouts[0])
	}

	// RTL generation.
	nl, err := d.Netlists()
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range nl {
		if n == nil {
			t.Fatalf("partition %d has no netlist", p)
		}
		v := n.Verilog()
		if !strings.Contains(v, "iter_count") {
			t.Errorf("partition %d netlist lacks the Fig. 7 iteration counter", p)
		}
	}

	// Sequencer code is the IDH loop.
	if !strings.Contains(d.Sequencer, "IDH") {
		t.Errorf("sequencer:\n%s", d.Sequencer)
	}

	// Simulate one batch.
	res, err := d.Simulate(2048, sim.Options{TraceCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigurations != 3 {
		t.Errorf("reconfigurations = %d, want 3 (IDH)", res.Reconfigurations)
	}
	if res.TotalNS <= 3*100*arch.Millisecond {
		t.Error("simulated time must exceed the pure reconfiguration overhead")
	}

	// Report renders.
	rep := d.Report()
	for _, want := range []string{"partition 1", "k=2048", "ilp", "XC4044"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestDCTCaseStudy checks the case study's two designs: the RTR design is
// the built design's timings and fission analysis on the given board, and
// the static design is the paper's 160 cycles @ 100 ns per block, batched
// by the RTR design's k = 65536 / 32 = 2048 blocks.
func TestDCTCaseStudy(t *testing.T) {
	board := arch.PaperXC4044Board()
	board.Link.WordTransferNS = 60
	cs, err := DCTCaseStudy(board)
	if err != nil {
		t.Fatal(err)
	}
	d := cs.Design
	if d.Config.Board.Link.WordTransferNS != 60 || d.Partitioning.N != 3 {
		t.Errorf("design on D_sv=%g with N=%d, want the given board (60) and N=3",
			d.Config.Board.Link.WordTransferNS, d.Partitioning.N)
	}
	if cs.RTR.Analysis != d.Fission || len(cs.RTR.Partitions) != 3 || cs.RTR.Partitions[0] != d.Timings[0] {
		t.Errorf("RTR design %+v does not run the built design", cs.RTR)
	}
	want := sim.StaticDesign{BodyCycles: 160, ClockNS: 100, InWords: 16, OutWords: 16, BatchK: 2048}
	if cs.Static != want {
		t.Errorf("static design = %+v, want %+v", cs.Static, want)
	}
}

// TestListPartitionerBaseline reproduces the paper's Sec. 4 comparison: the
// greedy list partitioner mixes T2 tasks into partition 1 (it has unused
// CLBs), which increases partition 1's delay and the overall latency.
func TestListPartitionerBaseline(t *testing.T) {
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	ilpCfg := DefaultConfig()
	listCfg := DefaultConfig()
	listCfg.Partitioner = ListPartitioner

	dILP, err := Build(g, ilpCfg)
	if err != nil {
		t.Fatal(err)
	}
	dList, err := Build(g, listCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The list partitioner puts at least one T2 into partition 1.
	mixed := false
	for ti := 0; ti < g.NumTasks(); ti++ {
		if g.Task(ti).Type == "T2" && dList.Partitioning.Assign[ti] == 0 {
			mixed = true
		}
	}
	if !mixed {
		t.Error("list partitioner did not mix T2 into partition 1 (unexpected)")
	}
	if dList.Partitioning.N == dILP.Partitioning.N &&
		dList.Partitioning.Latency <= dILP.Partitioning.Latency {
		t.Errorf("list latency %.0f should exceed ILP latency %.0f",
			dList.Partitioning.Latency, dILP.Partitioning.Latency)
	}
}

func TestBuildWithoutBehaviors(t *testing.T) {
	// A plain cost-annotated graph (no payloads) still flows through, with
	// delay-based timings.
	g := dfg.New("plain")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60, Delay: 100, ReadEnv: 2})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 60, Delay: 200, WriteEnv: 2})
	g.MustAddEdge("a", "b", 3)
	cfg := DefaultConfig()
	cfg.Board = arch.SmallTestBoard()
	d, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Partitioning.N != 2 {
		t.Fatalf("N = %d, want 2", d.Partitioning.N)
	}
	if d.Synthesized[0] != nil {
		t.Error("synthesis should be skipped without behaviors")
	}
	if d.Timings[0].BodyCycles != 100 || d.Timings[0].ClockNS != 1 {
		t.Errorf("fallback timing = %+v, want 100 cycles @ 1 ns", d.Timings[0])
	}
	if _, err := d.Simulate(10, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	nl, err := d.Netlists()
	if err != nil {
		t.Fatal(err)
	}
	if nl[0] != nil {
		t.Error("netlists must be nil without synthesis")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err != ErrNilGraph {
		t.Errorf("nil graph: %v", err)
	}
	g := dfg.New("big")
	g.MustAddTask(dfg.Task{Name: "x", Resources: 10000, Delay: 1})
	if _, err := Build(g, DefaultConfig()); err == nil {
		t.Error("oversized task accepted")
	}
	cfg := DefaultConfig()
	cfg.Partitioner = PartitionerKind(7)
	g2 := dfg.New("ok")
	g2.MustAddTask(dfg.Task{Name: "a", Resources: 1, Delay: 1})
	if _, err := Build(g2, cfg); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

func TestEmptyGraphDesign(t *testing.T) {
	d, err := Build(dfg.New("empty"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Partitioning.N != 0 {
		t.Error("empty graph should produce empty design")
	}
	if _, err := d.Simulate(1, sim.Options{}); err == nil {
		t.Error("simulating empty design should fail")
	}
	if rep := d.Report(); !strings.Contains(rep, "empty design") {
		t.Errorf("report: %s", rep)
	}
}
