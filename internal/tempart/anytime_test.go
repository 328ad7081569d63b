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

// TestSolveContextDeadlineAnytime drives instances into deadlines they
// cannot meet: the solve must come back within a few multiples of the
// budget with either an anytime incumbent (feasible, Partial, finite gap)
// or ErrDeadline (no incumbent at all) — never a different error and never
// a blown deadline. The hard mixed-cardinality instance stops mid-search.
// The 108-task chain of blocks stops before or inside its row search's
// root LP (a deadline ends the LP in progress), so the search proves no
// bound and the presolve floor must stand in; under a pinned-patterns
// deadline that cuts the pattern-tree build short, the same row model
// answers. From 1 ms on, both models must answer with the greedy warm
// start, which fits the first probe's N, instead of ErrDeadline.
func TestSolveContextDeadlineAnytime(t *testing.T) {
	blocks := Input{Graph: portfolioChainBlocks(36), Board: board(100, 1024, 1e6), MaxPartitions: 62}
	blocksRows, blocksPatterns := blocks, blocks
	blocksRows.Formulation = FormulationRows
	blocksPatterns.Formulation = FormulationPatterns
	type deadlineCase struct {
		name   string
		in     Input
		budget time.Duration
		// answers rejects ErrDeadline: the greedy warm start fits the
		// first probe's N, so a partial answer is always in hand.
		answers bool
	}
	cases := []deadlineCase{
		{"pack2638", hardInput(24), 50 * time.Millisecond, false},
		{"pack2638", hardInput(24), 300 * time.Millisecond, false},
		{"chainblocks108-rows", blocksRows, 100 * time.Microsecond, false},
		{"chainblocks108-patterns", blocksPatterns, 100 * time.Microsecond, false},
		{"chainblocks108-rows", blocksRows, 50 * time.Millisecond, false},
	}
	for _, ms := range []time.Duration{1, 3, 10, 20} {
		cases = append(cases,
			deadlineCase{"chainblocks108-rows", blocksRows, ms * time.Millisecond, true},
			deadlineCase{"chainblocks108-patterns", blocksPatterns, ms * time.Millisecond, true})
	}
	for _, c := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), c.budget)
		start := time.Now()
		p, err := Solve(ctx, c.in)
		elapsed := time.Since(start)
		cancel()
		if elapsed > c.budget+10*time.Second {
			t.Fatalf("%s, budget %v: solve ran %v", c.name, c.budget, elapsed)
		}
		switch {
		case err == nil && p != nil && p.Optimal:
			// A fast machine finished the probe inside the budget; nothing
			// anytime to check.
		case err == nil && p != nil:
			checkAnytime(t, c.in, p)
		case errors.Is(err, ErrDeadline) && !c.answers:
			// No incumbent in time: the service layer's fallback cue.
		default:
			t.Fatalf("%s, budget %v: got (%v, %v), want anytime result or ErrDeadline",
				c.name, c.budget, p, err)
		}
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
