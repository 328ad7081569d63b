// Package listpart implements the baseline list-based temporal partitioner
// the paper compares against (Sec. 4): tasks are visited in topological
// order and greedily packed into the current partition while the FPGA
// resource constraint allows, opening a new partition otherwise.
//
// On the DCT case study this packs T2 tasks into partition 1's unused CLBs,
// which lengthens partition 1's critical path and produces a worse overall
// latency than the ILP — exactly the effect the paper describes.
package listpart

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/tempart"
)

// Solve greedily partitions the task graph and evaluates the latency using
// the same path-based delay model as the ILP (Fig. 4).
func Solve(g *dfg.Graph, board arch.Board) (*tempart.Partitioning, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := board.Validate(); err != nil {
		return nil, err
	}
	if g.NumTasks() == 0 {
		return &tempart.Partitioning{}, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	assign := make([]int, g.NumTasks())
	cur, used := 0, 0
	usedExtra := map[string]int{}
	for _, t := range order {
		task := g.Task(t)
		if task.Resources > board.FPGA.CLBs {
			return nil, fmt.Errorf("listpart: task %q needs %d CLBs, FPGA has %d",
				task.Name, task.Resources, board.FPGA.CLBs)
		}
		for kind, cap := range board.FPGA.ExtraCapacity {
			if task.Extra[kind] > cap {
				return nil, fmt.Errorf("listpart: task %q needs %d %s, FPGA has %d",
					task.Name, task.Extra[kind], kind, cap)
			}
		}
		fits := used+task.Resources <= board.FPGA.CLBs
		for kind, cap := range board.FPGA.ExtraCapacity {
			if usedExtra[kind]+task.Extra[kind] > cap {
				fits = false
			}
		}
		if !fits {
			cur++
			used = 0
			usedExtra = map[string]int{}
		}
		assign[t] = cur
		used += task.Resources
		for kind, d := range task.Extra {
			usedExtra[kind] += d
		}
	}
	n := cur + 1
	if err := tempart.CheckFeasible(g, board, assign, n); err != nil {
		return nil, fmt.Errorf("listpart: greedy result infeasible: %w", err)
	}
	paths, err := g.Paths(tempart.MaxPaths)
	if err != nil {
		return nil, err
	}
	delays := tempart.EvaluateDelays(g, assign, n, paths)
	return &tempart.Partitioning{
		N:       n,
		Assign:  assign,
		Delays:  delays,
		Latency: tempart.Latency(board, delays),
		Optimal: false,
		Stats:   tempart.SolveStats{N: n, Paths: len(paths)},
	}, nil
}
