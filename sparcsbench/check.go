package main

import (
	"fmt"
	"math"
)

// result is the part of sparcsd's Result payload the benchmark reads.
type result struct {
	N              int            `json:"n"`
	Optimal        bool           `json:"optimal"`
	LatencyNS      float64        `json:"latency_ns"`
	Partial        bool           `json:"partial"`
	LatencyBoundNS float64        `json:"latency_bound_ns"`
	GapNS          float64        `json:"gap_ns"`
	Assign         map[string]int `json:"assign"`
	SolveMS        float64        `json:"solve_ms"`
	Cache          string         `json:"cache"`
	Nodes          int            `json:"nodes"`
	LPIterations   int            `json:"lp_iterations"`
}

// tolNS absorbs float summation order; every delay is a whole number of ns.
const tolNS = 1e-3

// check verifies a response against the view it answers: the assignment
// is a valid temporal partitioning (area per partition, temporal order,
// memory per boundary), the reported latency is what the assignment
// costs, an answer marked optimal is the optimum, and any other answer
// carries a sound lower bound (and, when partial, a consistent gap).
func (v *view) check(r *result) error {
	in := v.in
	n := len(in.tasks)
	if r.N < 1 || len(r.Assign) != n {
		return fmt.Errorf("%s: n=%d with %d of %d tasks assigned", in.name, r.N, len(r.Assign), n)
	}
	assign := make([]int, n)
	area := make([]int, r.N)
	for t, name := range v.names {
		p, ok := r.Assign[name]
		if !ok || p < 0 || p >= r.N {
			return fmt.Errorf("%s: task %s assigned to partition %d of %d", in.name, name, p, r.N)
		}
		assign[t] = p
		area[p] += in.tasks[t].Resources
	}
	for p, a := range area {
		if a > in.board.clbs {
			return fmt.Errorf("%s: partition %d uses %d CLBs > %d", in.name, p, a, in.board.clbs)
		}
	}
	for _, e := range in.edges {
		if assign[e.from] > assign[e.to] {
			return fmt.Errorf("%s: edge %s->%s runs backwards in time", in.name, v.names[e.from], v.names[e.to])
		}
	}
	for b := 0; b < r.N-1; b++ {
		words := 0
		for _, e := range in.edges {
			if assign[e.from] <= b && assign[e.to] > b {
				words += e.data
			}
		}
		if words > in.board.words {
			return fmt.Errorf("%s: boundary %d holds %d words > %d", in.name, b, words, in.board.words)
		}
	}
	// Partition delay: the longest delay-weighted path inside the partition
	// (tasks are in topological order, so one pass suffices).
	chain := make([]float64, n)
	delay := make([]float64, r.N)
	for t := 0; t < n; t++ {
		c := 0.0
		for _, p := range in.preds[t] {
			if assign[p] == assign[t] && chain[p] > c {
				c = chain[p]
			}
		}
		chain[t] = c + in.tasks[t].Delay
		delay[assign[t]] = math.Max(delay[assign[t]], chain[t])
	}
	lat := float64(r.N) * in.board.ctNS
	for _, d := range delay {
		lat += d
	}
	if math.Abs(lat-r.LatencyNS) > tolNS {
		return fmt.Errorf("%s: reported latency %.0f ns, assignment costs %.0f ns", in.name, r.LatencyNS, lat)
	}
	opt := in.optimal()
	if r.Optimal {
		if math.Abs(lat-opt) > tolNS {
			return fmt.Errorf("%s: answer marked optimal costs %.0f ns, optimum is %.0f ns", in.name, lat, opt)
		}
		return nil
	}
	if lat < opt-tolNS {
		return fmt.Errorf("%s: answer costs %.0f ns, below the optimum %.0f ns", in.name, lat, opt)
	}
	if r.LatencyBoundNS > opt+tolNS {
		return fmt.Errorf("%s: lower bound %.0f ns exceeds the optimum %.0f ns", in.name, r.LatencyBoundNS, opt)
	}
	if r.Partial && math.Abs(r.GapNS-(lat-r.LatencyBoundNS)) > tolNS {
		return fmt.Errorf("%s: gap %.0f ns != latency %.0f - bound %.0f", in.name, r.GapNS, lat, r.LatencyBoundNS)
	}
	return nil
}
