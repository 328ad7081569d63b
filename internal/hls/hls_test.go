package hls

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpGraphValidate(t *testing.T) {
	g := NewOpGraph("ok")
	r := g.Add(OpRead, 9, "in")
	c := g.Add(OpConst, 9, "c0")
	m := g.Add(OpMul, 9, "", r, c)
	g.Add(OpWrite, 16, "out", m)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := NewOpGraph("bad-arity")
	x := bad.Add(OpRead, 8, "in")
	bad.Add(OpAdd, 8, "", x) // add needs 2 args
	if err := bad.Validate(); err == nil {
		t.Error("1-arg add accepted")
	}

	bad2 := NewOpGraph("bad-width")
	bad2.Add(OpRead, 0, "in")
	if err := bad2.Validate(); err == nil {
		t.Error("zero-width op accepted")
	}
}

func TestVectorProductShape(t *testing.T) {
	g := VectorProduct("t1", 4, 9, 16, "in", "out", false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for i := 0; i < g.NumOps(); i++ {
		switch g.Op(i).Kind {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		}
	}
	if reads != 4 || writes != 1 {
		t.Errorf("mem ops = %d reads, %d writes; want 4, 1", reads, writes)
	}
	// 4 reads + 4 consts + 4 muls + 3 adds + 1 write = 16 ops.
	if g.NumOps() != 16 {
		t.Errorf("NumOps = %d, want 16", g.NumOps())
	}

	gc := VectorProduct("t1c", 4, 9, 16, "in", "out", true)
	if err := gc.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 reads + 4 consts + 4 macs + 1 write = 13 ops.
	if gc.NumOps() != 13 {
		t.Errorf("chained NumOps = %d, want 13", gc.NumOps())
	}
}

// TestLibraryCalibration pins the component characterization at the widths
// the DCT's vector products use, which TestTaskEstimatesMatchPaper turns
// into the paper's 70- and 180-CLB task estimates.
func TestLibraryCalibration(t *testing.T) {
	lib := XC4000Library()
	mul9, err := lib.Component(OpMul, 9)
	if err != nil {
		t.Fatal(err)
	}
	if mul9.CLBs != 41 {
		t.Errorf("mul9 CLBs = %d, want 41", mul9.CLBs)
	}
	if mul9.DelayNS != 41 {
		t.Errorf("mul9 delay = %g, want 41", mul9.DelayNS)
	}
	mul17, _ := lib.Component(OpMul, 17)
	if mul17.CLBs != 145 {
		t.Errorf("mul17 CLBs = %d, want 145", mul17.CLBs)
	}
	if mul17.DelayNS != 65 {
		t.Errorf("mul17 delay = %g, want 65", mul17.DelayNS)
	}
	add16, _ := lib.Component(OpAdd, 16)
	if add16.CLBs != 9 {
		t.Errorf("add16 CLBs = %d, want 9", add16.CLBs)
	}
	// MAC widths follow the paper's multiplier/adder pairing.
	mac17, _ := lib.Component(OpMac, 17)
	if mac17.CLBs != mul17.CLBs+13 { // add24 = 13 CLBs
		t.Errorf("mac17 CLBs = %d, want %d", mac17.CLBs, mul17.CLBs+13)
	}
	if _, err := lib.Component(OpRead, 8); err == nil {
		t.Error("memory op should have no functional unit")
	}
	if _, err := lib.Component(OpAdd, 0); err == nil {
		t.Error("zero width component accepted")
	}
}

// TestTaskEstimatesMatchPaper verifies the headline calibration: T1 tasks
// estimate to 70 CLBs with a 50 ns clock, T2 tasks to 180 CLBs with a
// 70 ns clock (paper Sec. 4).
func TestTaskEstimatesMatchPaper(t *testing.T) {
	lib := XC4000Library()
	cons := Constraints{}

	t1 := VectorProduct("T1", 4, 9, 16, "in", "mid", false)
	e1, err := EstimateTask(t1, lib, cons)
	if err != nil {
		t.Fatal(err)
	}
	if e1.CLBs != 70 {
		t.Errorf("T1 CLBs = %d (breakdown %+v), want 70", e1.CLBs, e1.Breakdown)
	}
	if e1.ClockNS != 50 {
		t.Errorf("T1 clock = %g ns, want 50", e1.ClockNS)
	}

	t2 := VectorProduct("T2", 4, 17, 24, "mid", "out", false)
	e2, err := EstimateTask(t2, lib, cons)
	if err != nil {
		t.Fatal(err)
	}
	if e2.CLBs != 180 {
		t.Errorf("T2 CLBs = %d (breakdown %+v), want 180", e2.CLBs, e2.Breakdown)
	}
	if e2.ClockNS != 70 {
		t.Errorf("T2 clock = %g ns, want 70", e2.ClockNS)
	}
}

// TestStaticClockMatchesPaper: a chained 17-bit MAC design clocks at 100 ns.
func TestStaticClockMatchesPaper(t *testing.T) {
	lib := XC4000Library()
	alloc := Allocation{
		{OpMac, 9}:  2,
		{OpMac, 17}: 2,
	}
	clock, err := ChooseClock(alloc, lib, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if clock != 100 {
		t.Errorf("static clock = %g ns, want 100", clock)
	}
}

// TestChooseClockUserConstraint: the paper's user maximum clock width is not
// modelled, so the slowest allocated component alone sets the clock, even
// where a user cap (say 50 ns) would have refused it.
func TestChooseClockUserConstraint(t *testing.T) {
	clock, err := ChooseClock(Allocation{{OpMul, 17}: 1}, XC4000Library(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// 17x17 multiplier: 3*17+14 = 65 ns, +4 setup -> 69 -> 70.
	if clock != 70 {
		t.Errorf("clock = %g, want 70 (multiplier bound)", clock)
	}
}

func TestClockCannotUndercutMemory(t *testing.T) {
	clock, err := ChooseClock(Allocation{{OpAdd, 8}: 1}, XC4000Library(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Memory access (25 ns) dominates an 8-bit adder (13.6 ns): 25+4 -> 30.
	if clock != 30 {
		t.Errorf("clock = %g, want 30 (memory bound)", clock)
	}
}

func TestASAPALAP(t *testing.T) {
	g := VectorProduct("t", 4, 9, 16, "in", "out", false)
	asap := ASAP(g)
	lat := 0
	for i, s := range asap {
		if !g.Op(i).Kind.IsFree() && s+1 > lat {
			lat = s + 1
		}
	}
	alap := ALAP(g, lat)
	for i := range asap {
		if g.Op(i).Kind.IsFree() {
			continue
		}
		if alap[i] < asap[i] {
			t.Errorf("op %d: alap %d < asap %d", i, alap[i], asap[i])
		}
	}
}

func TestListScheduleSingleTask(t *testing.T) {
	g := VectorProduct("t", 4, 9, 16, "in", "out", false)
	alloc := MinimalAllocation(g)
	s, err := ListSchedule([]*OpGraph{g}, []Allocation{alloc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify([]*OpGraph{g}, []Allocation{alloc}, 1); err != nil {
		t.Fatal(err)
	}
	// Lower bound: 5 memory ops serialized, plus the dependent chain.
	if s.Cycles < 5 {
		t.Errorf("cycles = %d, impossible (< 5 memory ops)", s.Cycles)
	}
}

func TestListScheduleMemoryBound(t *testing.T) {
	// 16 parallel T1-style tasks on one port: >= 80 cycles (80 memory ops).
	var tasks []*OpGraph
	var allocs []Allocation
	for i := 0; i < 16; i++ {
		g := VectorProduct("t", 4, 9, 16, "in", "out", false)
		tasks = append(tasks, g)
		allocs = append(allocs, MinimalAllocation(g))
	}
	s, err := ListSchedule(tasks, allocs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(tasks, allocs, 1); err != nil {
		t.Fatal(err)
	}
	if s.Cycles < 80 {
		t.Errorf("cycles = %d < 80 memory ops on one port", s.Cycles)
	}
	if s.Cycles > 95 {
		t.Errorf("cycles = %d, scheduler leaves too much slack (want <= 95)", s.Cycles)
	}
	// With two ports the makespan must drop.
	s2, err := ListSchedule(tasks, allocs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cycles >= s.Cycles {
		t.Errorf("2-port schedule (%d) not faster than 1-port (%d)", s2.Cycles, s.Cycles)
	}
}

func TestSynthesizePartitionMatchesPaperShape(t *testing.T) {
	lib := XC4000Library()
	// Partition 1 of the case study: 16 T1 tasks.
	var tasks []*OpGraph
	for i := 0; i < 16; i++ {
		tasks = append(tasks, VectorProduct("T1", 4, 9, 16, "in", "mid", false))
	}
	pd, err := SynthesizePartition(tasks, lib, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if pd.ClockNS != 50 {
		t.Errorf("partition clock = %g, want 50", pd.ClockNS)
	}
	if pd.CLBs != 16*70 {
		t.Errorf("partition CLBs = %d, want %d", pd.CLBs, 16*70)
	}
	// Paper reports 68 cycles; our memory-port model yields ~80-90 (each
	// task reads its own operands). Assert the band and document the delta.
	if pd.Cycles < 80 || pd.Cycles > 95 {
		t.Errorf("partition cycles = %d, want in [80, 95]", pd.Cycles)
	}
}

func TestSynthesizeStatic160Cycles(t *testing.T) {
	lib := XC4000Library()
	// The paper's static DCT: 32 chained vector products sharing
	// 2 mac9 + 2 mac17 units -> 160 memory ops on one port.
	var tasks []*OpGraph
	for i := 0; i < 16; i++ {
		tasks = append(tasks, VectorProduct("T1", 4, 9, 16, "in", "mid", true))
	}
	for i := 0; i < 16; i++ {
		tasks = append(tasks, VectorProduct("T2", 4, 17, 24, "mid", "out", true))
	}
	alloc := Allocation{{OpMac, 9}: 2, {OpMac, 17}: 2}
	pd, err := SynthesizeStatic(tasks, alloc, lib, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if pd.ClockNS != 100 {
		t.Errorf("static clock = %g, want 100", pd.ClockNS)
	}
	if pd.Cycles < 160 || pd.Cycles > 170 {
		t.Errorf("static cycles = %d, want in [160, 170] (paper: 160)", pd.Cycles)
	}
}

func TestControllerPlain(t *testing.T) {
	g := VectorProduct("t", 4, 9, 16, "in", "out", false)
	alloc := MinimalAllocation(g)
	s, _ := ListSchedule([]*OpGraph{g}, []Allocation{alloc}, 1)
	f := SynthesizeController("t", s)
	// start + body per cycle + finish.
	if f.NumStates() != s.Cycles+2 {
		t.Errorf("states = %d, want %d", f.NumStates(), s.Cycles+2)
	}
	res, err := f.Run(5) // k ignored without iteration counter
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("plain controller iterations = %d, want 1", res.Iterations)
	}
	if res.Cycles != s.Cycles+1 { // body states + finish state
		t.Errorf("controller cycles = %d, want %d", res.Cycles, s.Cycles+1)
	}
}

func TestControllerAugmented(t *testing.T) {
	g := VectorProduct("t", 4, 9, 16, "in", "out", false)
	alloc := MinimalAllocation(g)
	s, _ := ListSchedule([]*OpGraph{g}, []Allocation{alloc}, 1)
	f := AugmentForRTR(SynthesizeController("t", s))
	if !f.HasIterationCounter {
		t.Fatal("augmented controller lost its iteration counter")
	}
	for _, k := range []int{1, 2, 7, 100} {
		res, err := f.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != k {
			t.Errorf("k=%d: iterations = %d", k, res.Iterations)
		}
		// k body passes + k check states + 1 finish.
		want := k*(s.Cycles+1) + 1
		if res.Cycles != want {
			t.Errorf("k=%d: cycles = %d, want %d", k, res.Cycles, want)
		}
	}
	if str := f.String(); len(str) == 0 {
		t.Error("empty FSM rendering")
	}
}

// Property: list schedules verify for random op graphs, allocations and
// port counts, and more ports never make the schedule longer.
func TestScheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTasks := 1 + rng.Intn(4)
		var tasks []*OpGraph
		var allocs []Allocation
		for i := 0; i < nTasks; i++ {
			n := 2 + rng.Intn(6)
			g := VectorProduct("t", n, 5+rng.Intn(12), 16, "in", "out", rng.Intn(2) == 0)
			tasks = append(tasks, g)
			allocs = append(allocs, MinimalAllocation(g))
		}
		s1, err := ListSchedule(tasks, allocs, 1)
		if err != nil {
			return false
		}
		if err := s1.Verify(tasks, allocs, 1); err != nil {
			return false
		}
		s2, err := ListSchedule(tasks, allocs, 2)
		if err != nil {
			return false
		}
		if err := s2.Verify(tasks, allocs, 2); err != nil {
			return false
		}
		return s2.Cycles <= s1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEstimateTaskErrors(t *testing.T) {
	lib := XC4000Library()
	empty := NewOpGraph("empty")
	if _, err := EstimateTask(empty, lib, Constraints{}); err == nil {
		t.Error("empty graph estimated without error")
	}
	onlyConst := NewOpGraph("consts")
	onlyConst.Add(OpConst, 8, "c")
	if _, err := EstimateTask(onlyConst, lib, Constraints{}); err == nil {
		t.Error("const-only graph estimated without error")
	}
}

func TestScheduleMismatchedArgs(t *testing.T) {
	g := VectorProduct("t", 2, 9, 16, "in", "out", false)
	if _, err := ListSchedule([]*OpGraph{g}, nil, 1); err == nil {
		t.Error("mismatched allocs accepted")
	}
	if _, err := ListSchedule([]*OpGraph{g}, []Allocation{MinimalAllocation(g)}, 0); err == nil {
		t.Error("zero ports accepted")
	}
}
