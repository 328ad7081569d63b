package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
)

// randKnapsack builds a reproducible n-item knapsack (values/weights/cap
// returned for feasibility checking).
func randKnapsack(seed int64, n int) (values, weights []float64, cap float64) {
	rng := rand.New(rand.NewSource(seed))
	values = make([]float64, n)
	weights = make([]float64, n)
	tot := 0.0
	for i := range values {
		values[i] = float64(1 + rng.Intn(100))
		weights[i] = float64(1 + rng.Intn(30))
		tot += weights[i]
	}
	return values, weights, math.Floor(tot / 3)
}

// checkIncumbent verifies an anytime solution: the incumbent (when present)
// is a feasible 0-1 point whose objective matches Obj, and the reported
// lower bound never exceeds it.
func checkIncumbent(t *testing.T, values, weights []float64, cap float64, s *Solution) {
	t.Helper()
	if s.X == nil {
		return
	}
	totW, totV := 0.0, 0.0
	for i := range weights {
		x := s.X[i]
		if math.Abs(x-math.Round(x)) > 1e-6 || x < -1e-6 || x > 1+1e-6 {
			t.Fatalf("x[%d] = %g is not binary", i, x)
		}
		totW += math.Round(x) * weights[i]
		totV += math.Round(x) * values[i]
	}
	if totW > cap+1e-6 {
		t.Fatalf("incumbent weight %g exceeds cap %g", totW, cap)
	}
	if !near(s.Obj, -totV) {
		t.Fatalf("Obj = %g does not match incumbent value %g", s.Obj, -totV)
	}
	if !math.IsInf(s.Bound, -1) && s.Bound > s.Obj+1e-6 {
		t.Fatalf("Bound %g above Obj %g", s.Bound, s.Obj)
	}
}

// TestDeadlineAnytime is the anytime contract under wall-clock deadlines:
// the search stops near the deadline, reports Timeout (or finishes
// Optimal), and any incumbent it returns is feasible with a consistent
// bound. Deadlines land at effectively random node ordinals.
func TestDeadlineAnytime(t *testing.T) {
	values, weights, cap := randKnapsack(42, 45)
	for _, budget := range []time.Duration{
		200 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond,
	} {
		P := knapsack(values, weights, cap)
		start := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(budget))
		s, err := Solve(P, Options{Context: ctx})
		cancel()
		if err != nil {
			t.Fatalf("budget=%v: %v", budget, err)
		}
		if elapsed := time.Since(start); elapsed > budget+5*time.Second {
			t.Errorf("budget=%v: solve ran %v past its deadline", budget, elapsed)
		}
		if s.Status != Optimal && s.Status != Timeout {
			t.Fatalf("budget=%v: status = %v, want optimal or timeout", budget, s.Status)
		}
		checkIncumbent(t, values, weights, cap, s)
	}
}

// TestDeadlineAlreadyExpired pins the no-incumbent edge: a deadline in the
// past stops the search before any node, yielding Timeout with no solution
// vector (the service layer's cue to fall back to the greedy backend).
func TestDeadlineAlreadyExpired(t *testing.T) {
	values, weights, cap := randKnapsack(7, 30)
	P := knapsack(values, weights, cap)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	s, err := Solve(P, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Timeout {
		t.Fatalf("status = %v, want timeout", s.Status)
	}
	if s.X != nil {
		t.Fatalf("expired-deadline solve returned an incumbent after zero search")
	}
}

// TestDeadlineStopWithoutIncumbent: a limit that trips once the context's
// deadline has passed is a deadline stop. The root's separation round
// sleeps past the deadline, so the next limit check sees it together with
// the node budget or the caller's cancel (the stop). With no incumbent the
// search must report Timeout (tempart's ErrDeadline, the service's greedy
// fallback), never Limit (which the service answers with HTTP 500).
func TestDeadlineStopWithoutIncumbent(t *testing.T) {
	values, weights, cap := randKnapsack(7, 30)
	for _, tc := range []struct {
		name     string
		maxNodes int
		stop     bool
	}{
		{"node-budget", 1, false},
		{"stop-and-context", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dl := time.Now().Add(30 * time.Millisecond)
			ctx, cancelDeadline := context.WithDeadline(context.Background(), dl)
			defer cancelDeadline()
			ctx, stop := context.WithCancel(ctx)
			defer stop()
			opt := Options{MaxNodes: tc.maxNodes, Context: ctx}
			opt.Separate = func([]float64) []lp.CutRow {
				time.Sleep(time.Until(dl) + time.Millisecond)
				if tc.stop {
					stop()
				}
				return nil
			}
			s, err := Solve(knapsack(values, weights, cap), opt)
			if err != nil {
				t.Fatal(err)
			}
			if s.Status != Timeout || s.X != nil {
				t.Fatalf("status = %v (incumbent %v), want timeout without incumbent", s.Status, s.X != nil)
			}
		})
	}
}

// TestAnytimeMonotoneInBudget drives the sequential search with growing
// deterministic node budgets: the incumbent objective never worsens and the
// proven bound never regresses as the budget grows, so the reported gap is
// monotone non-increasing in search effort — the anytime property that makes
// deadline_ms results trustworthy.
func TestAnytimeMonotoneInBudget(t *testing.T) {
	values, weights, cap := randKnapsack(11, 25)
	prevObj := math.Inf(1)
	prevBound := math.Inf(-1)
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64, 128, 512, 2048} {
		P := knapsack(values, weights, cap)
		s, err := Solve(P, Options{MaxNodes: nodes})
		if err != nil {
			t.Fatalf("MaxNodes=%d: %v", nodes, err)
		}
		checkIncumbent(t, values, weights, cap, s)
		if s.X != nil {
			if s.Obj > prevObj+1e-6 {
				t.Errorf("MaxNodes=%d: incumbent worsened %g -> %g", nodes, prevObj, s.Obj)
			}
			prevObj = math.Min(prevObj, s.Obj)
		}
		if s.BoundTrusted && !math.IsInf(s.Bound, -1) {
			if s.Bound < prevBound-1e-6 {
				t.Errorf("MaxNodes=%d: bound regressed %g -> %g", nodes, prevBound, s.Bound)
			}
			prevBound = math.Max(prevBound, s.Bound)
		}
		if s.Status == Optimal {
			break
		}
	}
	if math.IsInf(prevObj, 1) {
		t.Fatal("no budget produced an incumbent")
	}
}
