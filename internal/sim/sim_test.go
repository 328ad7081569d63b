package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/fission"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// dctDesigns builds the paper's RTR and static DCT designs with our
// synthesized timings.
func dctDesigns(t testing.TB) (RTRDesign, StaticDesign, arch.Board) {
	t.Helper()
	board := arch.PaperXC4044Board()
	g, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		task := g.Task(i)
		switch {
		case task.Type == "T1":
			assign[i] = 0
		case strings.HasPrefix(task.Name, "T2_0") || strings.HasPrefix(task.Name, "T2_1"):
			assign[i] = 1
		default:
			assign[i] = 2
		}
	}
	a, err := fission.Analyze(g, assign, 3, board.Memory.Words)
	if err != nil {
		t.Fatal(err)
	}
	lib := hls.XC4000Library()
	var parts []PartitionTiming
	for p := 0; p < 3; p++ {
		tasks := jpeg.PartitionBehaviors(g, assign, p)
		pd, err := hls.SynthesizePartition(tasks, lib, hls.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, PartitionTiming{BodyCycles: pd.Cycles, ClockNS: pd.ClockNS})
	}
	st, err := hls.SynthesizeStatic(jpeg.StaticDCTBehaviors(), jpeg.StaticAllocation(), lib, hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	rtr := RTRDesign{Partitions: parts, Analysis: a}
	static := StaticDesign{
		BodyCycles: st.Cycles, ClockNS: st.ClockNS,
		InWords: 16, OutWords: 16, BatchK: board.Memory.Words / 32,
	}
	return rtr, static, board
}

func TestSimMatchesAnalyticStatic(t *testing.T) {
	_, static, board := dctDesigns(t)
	for _, I := range []int{0, 1, 100, 2048, 5000, 245760} {
		res, err := SimulateStatic(static, board, I, Options{TraceCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		want := AnalyticStatic(static, board, I)
		if math.Abs(res.TotalNS-want) > 1e-3*math.Max(1, want) {
			t.Errorf("I=%d: sim %.0f != analytic %.0f", I, res.TotalNS, want)
		}
	}
}

func TestSimMatchesAnalyticRTR(t *testing.T) {
	rtr, _, board := dctDesigns(t)
	for _, strategy := range []fission.Strategy{fission.FDH, fission.IDH} {
		for _, I := range []int{0, 1, 100, 2048, 5000, 245760} {
			res, err := SimulateRTR(rtr, board, strategy, I, Options{TraceCap: -1})
			if err != nil {
				t.Fatal(err)
			}
			want := AnalyticRTR(rtr, board, strategy, I, false)
			if math.Abs(res.TotalNS-want) > 1e-3*math.Max(1, want) {
				t.Errorf("%v I=%d: sim %.0f != analytic %.0f", strategy, I, res.TotalNS, want)
			}
		}
	}
}

// TestTable1FDHLosesBadly: the paper's Table 1 finding — FDH shows no
// improvement at all, even at 245,760 blocks, because every batch pays
// 3 x 100 ms of reconfiguration.
func TestTable1FDHLoses(t *testing.T) {
	rtr, static, board := dctDesigns(t)
	for _, I := range []int{3840, 30720, 122880, 245760} {
		st, err := SimulateStatic(static, board, I, Options{TraceCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		fd, err := SimulateRTR(rtr, board, fission.FDH, I, Options{TraceCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		if imp := Improvement(st.TotalNS, fd.TotalNS); imp > 0 {
			t.Errorf("I=%d: FDH improvement %.1f%% > 0; paper found none", I, 100*imp)
		}
	}
}

// TestTable2IDHWinsAtScale: the paper's Table 2 finding — IDH improves on
// the static design at large image sizes, with the improvement growing
// with size.
func TestTable2IDHWins(t *testing.T) {
	rtr, static, board := dctDesigns(t)
	prev := math.Inf(-1)
	for _, I := range []int{3840, 30720, 122880, 245760} {
		st, _ := SimulateStatic(static, board, I, Options{TraceCap: -1})
		id, err := SimulateRTR(rtr, board, fission.IDH, I, Options{TraceCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		imp := Improvement(st.TotalNS, id.TotalNS)
		if imp < prev {
			t.Errorf("I=%d: improvement %.1f%% not monotone (prev %.1f%%)", I, 100*imp, 100*prev)
		}
		prev = imp
	}
	// At the paper's largest size the improvement must be substantial
	// (paper: 42% with their testbed timings; the synthesized design gives
	// 26.0%, pinned by cmd/jpegbench/testdata/default.golden).
	if prev < 0.15 {
		t.Errorf("IDH improvement at 245,760 blocks = %.1f%%, want > 15%%", 100*prev)
	}
}

// TestXC6000Conjecture: with a 500 us reconfiguration device the
// improvement appears at much smaller sizes and grows beyond the XC4044
// number (paper conjectures 47% for the largest file).
func TestXC6000Conjecture(t *testing.T) {
	rtr, static, _ := dctDesigns(t)
	board := arch.XC6000Board()
	st, _ := SimulateStatic(static, board, 245760, Options{TraceCap: -1})
	id, err := SimulateRTR(rtr, board, fission.IDH, 245760, Options{TraceCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	impLarge := Improvement(st.TotalNS, id.TotalNS)

	b4044 := arch.PaperXC4044Board()
	st44, _ := SimulateStatic(static, b4044, 245760, Options{TraceCap: -1})
	id44, _ := SimulateRTR(rtr, b4044, fission.IDH, 245760, Options{TraceCap: -1})
	imp44 := Improvement(st44.TotalNS, id44.TotalNS)
	if impLarge <= imp44 {
		t.Errorf("XC6000 improvement %.1f%% should exceed XC4044's %.1f%%", 100*impLarge, 100*imp44)
	}
	// Small image: XC6000 already wins, XC4044 does not.
	stS, _ := SimulateStatic(static, board, 3840, Options{TraceCap: -1})
	idS, _ := SimulateRTR(rtr, board, fission.IDH, 3840, Options{TraceCap: -1})
	if Improvement(stS.TotalNS, idS.TotalNS) <= 0 {
		t.Error("XC6000 should win even for small images")
	}
}

// TestComputeMatchesControllerFSM cross-checks the simulator's cycle
// formula against the actual synthesized augmented controller.
func TestComputeMatchesControllerFSM(t *testing.T) {
	g := hls.VectorProduct("t", 4, 9, 16, "in", "out", false)
	alloc := hls.MinimalAllocation(g)
	sched, err := hls.ListSchedule([]*hls.OpGraph{g}, []hls.Allocation{alloc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := hls.AugmentForRTR(hls.SynthesizeController("t", sched))
	for _, k := range []int{1, 5, 64} {
		res, err := f.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		simCycles := k*(sched.Cycles+1) + 1
		if res.Cycles != simCycles {
			t.Errorf("k=%d: FSM %d cycles, simulator formula %d", k, res.Cycles, simCycles)
		}
	}
}

func TestTraceAccounting(t *testing.T) {
	rtr, _, board := dctDesigns(t)
	res, err := SimulateRTR(rtr, board, fission.IDH, 4096, Options{TraceCap: 100000})
	if err != nil {
		t.Fatal(err)
	}
	// Bucket sums must equal the total.
	sum := res.ComputeNS + res.ReconfigNS + res.TransferNS + res.HandshakeNS
	if math.Abs(sum-res.TotalNS) > 1e-6*res.TotalNS {
		t.Errorf("buckets %.0f != total %.0f", sum, res.TotalNS)
	}
	// Events must be contiguous and ordered.
	prevEnd := 0.0
	for i, ev := range res.Trace.Events {
		if ev.StartNS != prevEnd {
			t.Fatalf("event %d starts at %.0f, want %.0f", i, ev.StartNS, prevEnd)
		}
		if ev.EndNS < ev.StartNS {
			t.Fatalf("event %d ends before it starts", i)
		}
		prevEnd = ev.EndNS
	}
	if prevEnd != res.TotalNS {
		t.Errorf("last event ends at %.0f, total %.0f", prevEnd, res.TotalNS)
	}
	// IDH: exactly N reconfigurations.
	if res.Reconfigurations != 3 {
		t.Errorf("reconfigurations = %d, want 3", res.Reconfigurations)
	}
}

func TestTraceCap(t *testing.T) {
	rtr, _, board := dctDesigns(t)
	res, err := SimulateRTR(rtr, board, fission.FDH, 245760, Options{TraceCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Events) != 10 {
		t.Errorf("trace len = %d, want capped at 10", len(res.Trace.Events))
	}
	if res.Trace.Dropped == 0 {
		t.Error("expected dropped events")
	}
}

func TestBadDesigns(t *testing.T) {
	board := arch.PaperXC4044Board()
	if _, err := SimulateStatic(StaticDesign{}, board, 10, Options{}); err == nil {
		t.Error("zero static design accepted")
	}
	if _, err := SimulateRTR(RTRDesign{}, board, fission.FDH, 10, Options{}); err == nil {
		t.Error("empty RTR design accepted")
	}
	rtr, _, _ := dctDesigns(t)
	if _, err := SimulateRTR(rtr, board, fission.Strategy(9), 10, Options{}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := SimulateRTR(rtr, board, fission.FDH, -1, Options{}); err == nil {
		t.Error("negative I accepted")
	}
}

// Property: for random partition timings and sizes, simulation equals the
// analytic model for both strategies.
func TestSimAnalyticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		g := dfg.New("p")
		assign := make([]int, n)
		for i := 0; i < n; i++ {
			g.MustAddTask(dfg.Task{
				Name:     string(rune('a' + i)),
				ReadEnv:  1 + rng.Intn(8),
				WriteEnv: 1 + rng.Intn(8),
			})
			assign[i] = i
			if i > 0 {
				_ = g.AddEdgeByID(i-1, i, 1+rng.Intn(4))
			}
		}
		board := arch.PaperXC4044Board()
		a, err := fission.Analyze(g, assign, n, board.Memory.Words)
		if err != nil {
			return false
		}
		d := RTRDesign{Analysis: a}
		for i := 0; i < n; i++ {
			d.Partitions = append(d.Partitions, PartitionTiming{
				BodyCycles: 1 + rng.Intn(200),
				ClockNS:    float64(10 * (1 + rng.Intn(10))),
			})
		}
		I := rng.Intn(100000)
		for _, s := range []fission.Strategy{fission.FDH, fission.IDH} {
			res, err := SimulateRTR(d, board, s, I, Options{TraceCap: -1})
			if err != nil {
				return false
			}
			want := AnalyticRTR(d, board, s, I, false)
			if math.Abs(res.TotalNS-want) > 1e-6*math.Max(1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvReconfig: "reconfig", EvTransferIn: "xfer-in", EvTransferOut: "xfer-out",
		EvStart: "start", EvCompute: "compute", EvFinish: "finish",
	} {
		if k.String() != want {
			t.Errorf("EventKind.String() = %q, want %q", k.String(), want)
		}
	}
}
