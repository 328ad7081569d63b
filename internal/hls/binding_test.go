package hls

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func scheduledVP(t testing.TB, n int) ([]*OpGraph, *Schedule) {
	t.Helper()
	var tasks []*OpGraph
	var allocs []Allocation
	for i := 0; i < n; i++ {
		g := VectorProduct("vp", 4, 9, 16, "in", "out", false)
		tasks = append(tasks, g)
		allocs = append(allocs, MinimalAllocation(g))
	}
	s, err := ListSchedule(tasks, allocs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tasks, s
}

func TestLifetimesWellFormed(t *testing.T) {
	tasks, s := scheduledVP(t, 1)
	lts, err := AnalyzeLifetimes(tasks, s, XC4000Library())
	if err != nil {
		t.Fatal(err)
	}
	// Values: 4 reads + 4 muls + 3 adds = 11 (write produces none).
	if len(lts) != 11 {
		t.Fatalf("lifetimes = %d, want 11", len(lts))
	}
	for _, lt := range lts {
		if lt.Start < 1 {
			t.Errorf("value %v starts at %d", lt.Ref, lt.Start)
		}
		if lt.End > s.Cycles {
			t.Errorf("value %v ends at %d > makespan %d", lt.Ref, lt.End, s.Cycles)
		}
		if lt.Width <= 0 {
			t.Errorf("value %v has width %d", lt.Ref, lt.Width)
		}
	}
}

func TestBindRegistersSharesBelowNaive(t *testing.T) {
	tasks, s := scheduledVP(t, 1)
	rb, err := BindRegisters(tasks, s, XC4000Library())
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Verify(); err != nil {
		t.Fatal(err)
	}
	// Sharing must beat one-register-per-value (11 values).
	if rb.NumRegisters() >= 11 {
		t.Errorf("binding used %d registers for 11 values (no sharing)", rb.NumRegisters())
	}
	if rb.NumRegisters() < 2 {
		t.Errorf("binding used %d registers (lifetimes must overlap)", rb.NumRegisters())
	}
	bits := 0
	for _, w := range rb.Widths {
		bits += w
	}
	if bits <= 0 {
		t.Error("no register bits accounted")
	}
}

func TestBindRegistersMultiTask(t *testing.T) {
	tasks, s := scheduledVP(t, 4)
	rb, err := BindRegisters(tasks, s, XC4000Library())
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(rb.Assign) != 4*11 {
		t.Errorf("assigned %d values, want 44", len(rb.Assign))
	}
}

func TestVerifyCatchesDoubleBooking(t *testing.T) {
	rb := &RegisterBinding{
		Assign: map[OpRef]int{{0, 0}: 0, {0, 1}: 0},
		Widths: []int{16},
		Lifetimes: []Lifetime{
			{Ref: OpRef{0, 0}, Start: 1, End: 5, Width: 16},
			{Ref: OpRef{0, 1}, Start: 3, End: 7, Width: 16},
		},
	}
	if err := rb.Verify(); err == nil {
		t.Error("overlapping lifetimes on one register accepted")
	}
	rb2 := &RegisterBinding{
		Assign: map[OpRef]int{{0, 0}: 0},
		Widths: []int{8},
		Lifetimes: []Lifetime{
			{Ref: OpRef{0, 0}, Start: 1, End: 2, Width: 16},
		},
	}
	if err := rb2.Verify(); err == nil {
		t.Error("narrow register accepted for wide value")
	}
}

// Property: for random vector-product mixes, the left-edge binding always
// verifies and never uses more registers than values.
func TestBindingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTasks := 1 + rng.Intn(4)
		var tasks []*OpGraph
		var allocs []Allocation
		for i := 0; i < nTasks; i++ {
			g := VectorProduct("t", 2+rng.Intn(6), 5+rng.Intn(12), 20, "in", "out", rng.Intn(2) == 0)
			tasks = append(tasks, g)
			allocs = append(allocs, MinimalAllocation(g))
		}
		s, err := ListSchedule(tasks, allocs, 1+rng.Intn(2))
		if err != nil {
			return false
		}
		rb, err := BindRegisters(tasks, s, XC4000Library())
		if err != nil {
			return false
		}
		if rb.Verify() != nil {
			return false
		}
		return rb.NumRegisters() <= len(rb.Assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
