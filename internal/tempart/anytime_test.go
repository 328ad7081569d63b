package tempart

import (
	"context"
	"errors"
	"testing"
	"time"
)

// checkAnytime verifies the anytime result contract: feasible assignment,
// Partial labeled, a finite bound no larger than the latency, and a
// consistent gap.
func checkAnytime(t *testing.T, in Input, p *Partitioning) {
	t.Helper()
	if !p.Partial {
		t.Fatalf("deadline result not marked Partial (optimal=%v)", p.Optimal)
	}
	if p.Optimal {
		t.Fatal("result is both Optimal and Partial")
	}
	if err := CheckFeasible(in.Graph, in.Board, p.Assign, p.N); err != nil {
		t.Fatalf("anytime assignment infeasible: %v", err)
	}
	if p.LatencyBound <= 0 {
		t.Fatalf("LatencyBound = %g, want a positive finite bound", p.LatencyBound)
	}
	if p.LatencyBound > p.Latency+1e-6 {
		t.Fatalf("LatencyBound %g above Latency %g", p.LatencyBound, p.Latency)
	}
	if g := p.Latency - p.LatencyBound; p.Gap < 0 || (p.Gap-g) > 1e-6 || (g-p.Gap) > 1e-6 {
		t.Fatalf("Gap = %g, want Latency-LatencyBound = %g", p.Gap, g)
	}
}

// TestSolveContextDeadlineAnytime drives the hard mixed-cardinality
// instance into a deadline it cannot meet: the solve must come back within
// a few multiples of the budget with either an anytime incumbent (feasible,
// Partial, finite gap) or ErrDeadline (no incumbent at all) — never a
// different error and never a blown deadline.
func TestSolveContextDeadlineAnytime(t *testing.T) {
	for _, budget := range []time.Duration{50 * time.Millisecond, 300 * time.Millisecond} {
		in := hardInput(24)
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		start := time.Now()
		p, err := Solve(ctx, in)
		elapsed := time.Since(start)
		cancel()
		if elapsed > budget+10*time.Second {
			t.Fatalf("budget %v: solve ran %v", budget, elapsed)
		}
		switch {
		case err == nil && p != nil && p.Optimal:
			// A fast machine finished the probe inside the budget; nothing
			// anytime to check.
		case err == nil && p != nil:
			checkAnytime(t, in, p)
		case errors.Is(err, ErrDeadline):
			// No incumbent in time: the service layer's fallback cue.
		default:
			t.Fatalf("budget %v: got (%v, %v), want anytime result or ErrDeadline",
				budget, p, err)
		}
	}
}

// TestSolveContextDeadlineSpeculative runs the same deadline through the
// speculative relax-N window: the salvage path must return the best
// COMPLETED probe's result under the same anytime contract.
func TestSolveContextDeadlineSpeculative(t *testing.T) {
	in := hardInput(24)
	in.SpeculateN = 3
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	p, err := Solve(ctx, in)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("speculative deadline solve ran %v", elapsed)
	}
	switch {
	case err == nil && p != nil && p.Optimal:
	case err == nil && p != nil:
		checkAnytime(t, in, p)
	case errors.Is(err, ErrDeadline):
	default:
		t.Fatalf("got (%v, %v), want anytime result or ErrDeadline", p, err)
	}
}

// TestAnytimeLowerBoundSound: the exported floor used for fallback gap
// reporting must never exceed the true optimum.
func TestAnytimeLowerBoundSound(t *testing.T) {
	in := hardInput(8) // small enough to solve exactly
	lb := AnytimeLowerBound(in.Graph, in.Board)
	if lb <= 0 {
		t.Fatalf("AnytimeLowerBound = %g, want positive", lb)
	}
	p, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if lb > p.Latency+1e-6 {
		t.Fatalf("AnytimeLowerBound %g above optimum latency %g", lb, p.Latency)
	}
	if AnytimeLowerBound(nil, in.Board) != 0 {
		t.Fatal("nil graph should bound to 0")
	}
}
