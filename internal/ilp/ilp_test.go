package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

// knapsack builds a 0-1 knapsack as a minimization problem
// (maximize value == minimize -value).
func knapsack(values, weights []float64, cap float64) *Problem {
	n := len(values)
	P := &Problem{LP: lp.NewProblem(0)}
	coeffs := map[int]float64{}
	for i := 0; i < n; i++ {
		j := Binary(P)
		P.LP.SetObj(j, -values[i])
		coeffs[j] = weights[i]
	}
	P.LP.AddRow(lp.LE, coeffs, cap)
	return P
}

func TestKnapsackSmall(t *testing.T) {
	// values 10,13,7,11; weights 5,6,3,5; cap 10 -> best 13+11=24 (w=11)?
	// No: 6+5=11 > 10. Options: {10,13}=23 w=11 no; {13,7}=20 w=9 yes;
	// {10,11}=21 w=10 yes; {10,7}=17; {11,7}=18 w=8; best = 21.
	P := knapsack([]float64{10, 13, 7, 11}, []float64{5, 6, 3, 5}, 10)
	s, err := Solve(P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Obj, -21) {
		t.Errorf("obj = %g, want -21 (x=%v)", s.Obj, s.X)
	}
}

func TestKnapsackExhaustiveProperty(t *testing.T) {
	// Compare B&B against brute force on random small knapsacks.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		totW := 0.0
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			totW += weights[i]
		}
		cap := math.Floor(totW / 2)
		P := knapsack(values, weights, cap)
		s, err := Solve(P, Options{})
		if err != nil || s.Status != Optimal {
			return false
		}
		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			v, w := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += values[i]
					w += weights[i]
				}
			}
			if w <= cap && v > best {
				best = v
			}
		}
		return near(s.Obj, -best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x == 3 with x integer in [0, 5]: LP feasible (x=1.5), ILP infeasible.
	P := &Problem{LP: lp.NewProblem(1)}
	P.LP.SetBounds(0, 0, 5)
	P.Integers = []int{0}
	P.LP.AddRow(lp.EQ, map[int]float64{0: 2}, 3)
	s, err := Solve(P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -x - 10y, x continuous in [0, 2.5], y binary,
	// s.t. x + 4y <= 5. Best: y=1, x=1 -> obj -11.
	P := &Problem{LP: lp.NewProblem(1)}
	P.LP.SetBounds(0, 0, 2.5)
	P.LP.SetObj(0, -1)
	y := Binary(P)
	P.LP.SetObj(y, -10)
	P.LP.AddRow(lp.LE, map[int]float64{0: 1, y: 4}, 5)
	s, err := Solve(P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Obj, -11) {
		t.Errorf("obj = %g, want -11 (x=%v)", s.Obj, s.X)
	}
	if !near(s.X[y], 1) {
		t.Errorf("y = %g, want 1", s.X[y])
	}
}

func TestWarmStartIncumbent(t *testing.T) {
	P := knapsack([]float64{10, 13, 7, 11}, []float64{5, 6, 3, 5}, 10)
	// Feasible warm start: items 2 (w=3) and 3 (w=5).
	inc := []float64{0, 0, 1, 1}
	s, err := Solve(P, Options{Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.Obj, -21) {
		t.Errorf("status=%v obj=%g, want optimal -21", s.Status, s.Obj)
	}
}

func TestBadWarmStartIgnored(t *testing.T) {
	P := knapsack([]float64{5, 5}, []float64{4, 4}, 4)
	// Infeasible warm start (both items exceed capacity) must be ignored.
	s, err := Solve(P, Options{Incumbent: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.Obj, -5) {
		t.Errorf("status=%v obj=%g, want optimal -5", s.Status, s.Obj)
	}
}

func TestNodeLimit(t *testing.T) {
	// A larger knapsack with a 1-node limit should still return something
	// (Limit or Feasible), never panic.
	rng := rand.New(rand.NewSource(3))
	n := 20
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = float64(1 + rng.Intn(50))
		weights[i] = float64(1 + rng.Intn(20))
	}
	P := knapsack(values, weights, 50)
	s, err := Solve(P, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal && s.Nodes > 1 {
		t.Errorf("explored %d nodes with MaxNodes=1", s.Nodes)
	}
}

func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 25
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = float64(1 + rng.Intn(100))
		weights[i] = float64(1 + rng.Intn(30))
	}
	P := knapsack(values, weights, 120)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Solve(P, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("time limit had no effect")
	}
}

func TestIntegerIndexOutOfRange(t *testing.T) {
	P := &Problem{LP: lp.NewProblem(1), Integers: []int{3}}
	if _, err := Solve(P, Options{}); err == nil {
		t.Error("want error for out-of-range integer index")
	}
}

func TestGeneralIntegerVariable(t *testing.T) {
	// min x s.t. 3x >= 10, x integer -> x = 4.
	P := &Problem{LP: lp.NewProblem(1), Integers: []int{0}}
	P.LP.SetObj(0, 1)
	P.LP.SetBounds(0, 0, 100)
	P.LP.AddRow(lp.GE, map[int]float64{0: 3}, 10)
	s, err := Solve(P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !near(s.X[0], 4) {
		t.Errorf("x = %v (status %v), want x=4 optimal", s.X, s.Status)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", Limit: "limit",
	} {
		if st.String() != want {
			t.Errorf("Status.String() = %q, want %q", st.String(), want)
		}
	}
}

func BenchmarkKnapsack15(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 15
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = float64(1 + rng.Intn(40))
		weights[i] = float64(1 + rng.Intn(15))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P := knapsack(values, weights, 60)
		if _, err := Solve(P, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRootOpenHook pins when Options.RootOpen fires: exactly once for a
// root whose first LP is fractional, and never for a root the first LP
// closes (integral, fathomed by the incumbent, or infeasible).
func TestRootOpenHook(t *testing.T) {
	integral := &Problem{LP: lp.NewProblem(0)}
	for i := 0; i < 2; i++ {
		integral.LP.SetObj(Binary(integral), -1) // unconstrained: the LP optimum is integral
	}
	// min x0 s.t. x0 + x1 >= 0.5: the root bound 0 meets the incumbent's.
	flat := &Problem{LP: lp.NewProblem(0)}
	x0, x1 := Binary(flat), Binary(flat)
	flat.LP.SetObj(x0, 1)
	flat.LP.AddRow(lp.GE, map[int]float64{x0: 1, x1: 1}, 0.5)
	infeasible := &Problem{LP: lp.NewProblem(1)}
	infeasible.LP.SetBounds(0, 0, 1)
	infeasible.Integers = []int{0}
	infeasible.LP.AddRow(lp.GE, map[int]float64{0: 1}, 2)
	for _, tc := range []struct {
		name string
		p    *Problem
		inc  []float64
		want int
	}{
		{"fractional", knapsack([]float64{10, 13, 7, 11}, []float64{5, 6, 3, 5}, 10), nil, 1},
		{"integral", integral, nil, 0},
		{"fathomed", flat, []float64{0, 1}, 0},
		{"infeasible", infeasible, nil, 0},
	} {
		fired := 0
		s, err := Solve(tc.p, Options{Incumbent: tc.inc, RootOpen: func() bool { fired++; return false }})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fired != tc.want {
			t.Errorf("%s: RootOpen fired %d times (status %v, %d nodes), want %d", tc.name, fired, s.Status, s.Nodes, tc.want)
		}
	}
}

// TestRootOpenStop: a RootOpen hook that returns true ends the search at
// its root, before any separation round, and the Solution claims nothing:
// no proof, an untrusted bound, and the incumbent (when one was given)
// unproven.
func TestRootOpenStop(t *testing.T) {
	p := knapsack([]float64{10, 13, 7, 11}, []float64{5, 6, 3, 5}, 10)
	for _, inc := range [][]float64{nil, {1, 0, 0, 0}} {
		separated := 0
		s, err := Solve(p, Options{Incumbent: inc, RootOpen: func() bool { return true },
			Separate: func([]float64) []lp.CutRow { separated++; return nil }})
		if err != nil {
			t.Fatal(err)
		}
		want := Limit
		if inc != nil {
			want = Feasible
		}
		if s.Status != want || s.BoundTrusted || s.Nodes != 1 || separated != 0 || s.SeparationRounds != 0 {
			t.Errorf("incumbent %v: status %v trusted=%v nodes=%d separations=%d, want %v/false/1/0",
				inc, s.Status, s.BoundTrusted, s.Nodes, separated, want)
		}
	}
}

// randomKnapsack builds a reproducible knapsack instance.
func randomKnapsack(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	weights := make([]float64, n)
	tot := 0.0
	for i := range values {
		values[i] = float64(1 + rng.Intn(40))
		weights[i] = float64(1 + rng.Intn(15))
		tot += weights[i]
	}
	return knapsack(values, weights, math.Floor(tot/2.5))
}

// TestStopChannelAborts: cancelling Options.Context must end the search
// promptly with a Limit-like partial result instead of running to
// completion.
func TestStopChannelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the search may only process the root
	P := randomKnapsack(7, 22)
	start := time.Now()
	s, err := Solve(P, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal && s.Nodes > 1 {
		t.Errorf("stopped search explored %d nodes and claimed optimal", s.Nodes)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel had no effect")
	}
}

// TestDroppedNodesDegradeStatus exercises the IterLimit bookkeeping: when
// nodes are discarded, the solution's bound must be flagged untrusted, the
// dropped nodes' parent bounds must still enter the reported Bound, and the
// search must not claim Optimal or Infeasible.
func TestDroppedNodesDegradeStatus(t *testing.T) {
	opt := Options{MaxNodes: defaultMaxNodes}
	st := &searchState{opt: &opt, incObj: math.Inf(1), droppedBound: math.Inf(1)}
	st.rootSolved = true
	st.rootBound = 1
	// Simulate one explored incumbent and one dropped node with bound 2.
	st.incumbent = []float64{1}
	st.incObj = 5
	st.dropped = 1
	st.droppedBound = 2
	sol := st.finish()
	if sol.BoundTrusted {
		t.Error("BoundTrusted = true with dropped nodes")
	}
	if sol.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", sol.Dropped)
	}
	if sol.Status == Optimal {
		t.Error("claimed Optimal despite dropped nodes")
	}
	if sol.Bound != 2 {
		t.Errorf("Bound = %g, want 2 (the dropped node's parent bound)", sol.Bound)
	}

	// Without an incumbent a dropped node must degrade Infeasible to Limit.
	st2 := &searchState{opt: &opt, incObj: math.Inf(1), droppedBound: math.Inf(1)}
	st2.rootSolved = true
	st2.rootBound = 1
	st2.dropped = 2
	st2.droppedBound = 1
	sol2 := st2.finish()
	if sol2.Status != Limit {
		t.Errorf("status = %v, want limit (dropped nodes, no incumbent)", sol2.Status)
	}
	if sol2.BoundTrusted {
		t.Error("BoundTrusted = true with dropped nodes and no incumbent")
	}
}
