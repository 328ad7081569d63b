package service

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/obs"
	"repro/internal/tempart"
)

// SolveRequest is the wire form of a solve request, shared by
// POST /v1/solve, /v1/jobs, and each element of /v1/batch.
type SolveRequest struct {
	// Graph is a task graph in the dfg wire schema (the same JSON that
	// cmd/tgen emits and cmd/sparcs -graph consumes).
	Graph json.RawMessage `json:"graph"`
	// Board selects an architecture preset (default "paper").
	Board string `json:"board,omitempty"`
	// Engine selects the partitioner: "ilp" (default) or "list".
	Engine string `json:"engine,omitempty"`

	MaxPartitions      int  `json:"max_partitions,omitempty"`
	NoSymmetryBreaking bool `json:"no_symmetry_breaking,omitempty"`
	NoCache            bool `json:"no_cache,omitempty"`

	// DeadlineMS bounds the solve's wall-clock time in milliseconds
	// (0 = none). When the deadline expires mid-search the service does
	// not error: it returns the best incumbent found so far (Result.Partial
	// with a reported gap), or the greedy fallback when the search produced
	// no incumbent at all. Deadline requests never share the singleflight
	// and partial results never touch the cache; DeadlineMS is excluded
	// from the cache key because any result it stores is complete.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Trace returns the solve's phase timeline, counters, and sampled
	// search progression in Result.Trace. A traced request is never
	// served from (or stored in) the cache and is excluded from the
	// cache key.
	Trace bool `json:"trace,omitempty"`

	// Formulation selects the ILP backend's model. "rows" pins the
	// assignment-variable row model and "patterns" branch-and-price over
	// partition-pattern columns (which falls back to rows when the
	// instance carries inter-partition data the pattern master cannot
	// price). The default "" hands off between them: every relax-N probe
	// runs rows, and when the rows root LP leaves the probe open the
	// pattern master runs for the same N; its proof answers the probe,
	// and otherwise the row search carries on. The optimum is the same
	// every way, but the search shape and stats differ, so it is part of
	// the solve-cache key.
	Formulation string `json:"formulation,omitempty"`
}

// Parse validates the wire request into a Request.
func (sr *SolveRequest) Parse() (*Request, error) {
	if len(sr.Graph) == 0 {
		return nil, fmt.Errorf("service: request has no graph")
	}
	g, err := dfg.Decode(sr.Graph)
	if err != nil {
		return nil, fmt.Errorf("service: bad graph: %w", err)
	}
	boardName := sr.Board
	if boardName == "" {
		boardName = "paper"
	}
	board, err := arch.BoardByName(boardName)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	engine := sr.Engine
	if engine == "" {
		engine = "ilp"
	}
	if !slices.Contains(engines, engine) {
		return nil, fmt.Errorf("service: unknown engine %q (have: %v)", engine, engines)
	}
	if sr.MaxPartitions < 0 || sr.DeadlineMS < 0 {
		return nil, fmt.Errorf("service: negative solver knob")
	}
	switch sr.Formulation {
	case "", tempart.FormulationRows, tempart.FormulationPatterns:
	default:
		return nil, fmt.Errorf("service: unknown formulation %q (have: rows, patterns)", sr.Formulation)
	}
	return &Request{
		Graph: g,
		Board: board,
		// Report the resolved board name (not the preset alias) so the
		// service payload matches cmd/sparcs -o json exactly.
		BoardName:          board.Name,
		Engine:             engine,
		MaxPartitions:      sr.MaxPartitions,
		Formulation:        sr.Formulation,
		NoSymmetryBreaking: sr.NoSymmetryBreaking,
		NoCache:            sr.NoCache,
		Trace:              sr.Trace,
		DeadlineMS:         sr.DeadlineMS,
	}, nil
}

// PartitionResult describes one temporal partition in a Result.
type PartitionResult struct {
	Index   int      `json:"index"` // 0-based execution order
	Tasks   []string `json:"tasks"`
	CLBs    int      `json:"clbs"`
	DelayNS float64  `json:"delay_ns"`
}

// Result is the machine-readable solve payload. cmd/sparcs emits exactly
// this struct under `-o json`, so CLI and service clients parse one schema.
type Result struct {
	Graph     string  `json:"graph"`
	Engine    string  `json:"engine"`
	Board     string  `json:"board"`
	N         int     `json:"n"`
	Optimal   bool    `json:"optimal"`
	LatencyNS float64 `json:"latency_ns"`

	// Anytime fields (deadline_ms requests). Partial marks a result whose
	// proof was cut short by the deadline: the assignment is feasible but
	// possibly suboptimal, with the search's proven lower bound and gap
	// attached. Fallback additionally marks a result produced by the greedy
	// list partitioner because the ILP had no incumbent at the deadline.
	// BoundTrusted mirrors the solver's own attestation of the bound.
	Partial        bool    `json:"partial,omitempty"`
	Fallback       bool    `json:"fallback,omitempty"`
	LatencyBoundNS float64 `json:"latency_bound_ns,omitempty"`
	GapNS          float64 `json:"gap_ns,omitempty"`
	BoundTrusted   bool    `json:"bound_trusted,omitempty"`

	Partitions []PartitionResult `json:"partitions"`
	// Assign maps task name -> 0-based partition.
	Assign map[string]int `json:"assign,omitempty"`

	// SearchCounters is the solve's search effort (zero for cache hits
	// and shared results).
	SearchCounters
	// Formulation names the ILP model that supplied the answer ("rows" or
	// "patterns"): under the default, "patterns" when the accepted probe's
	// hand-off proved it, and the pinned model otherwise (patterns may
	// fall back to rows when inapplicable). The search counters are the
	// answering model's.
	Formulation string  `json:"formulation,omitempty"`
	SolveMS     float64 `json:"solve_ms"`

	// Cache reports how the service produced the result: "miss" (fresh
	// solve), "hit" (memo cache), "shared" (deduplicated onto another
	// in-flight identical solve), or "" for direct CLI runs.
	Cache string `json:"cache,omitempty"`

	// Trace is the solve's phase timeline (trace=true requests only):
	// spans, counters, incumbent improvements, and sampled node events.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// NewResult assembles the shared payload from a partitioning.
func NewResult(g *dfg.Graph, boardName, engine string, p *tempart.Partitioning) *Result {
	r := &Result{
		Graph:          g.Name,
		Engine:         engine,
		Board:          boardName,
		N:              p.N,
		Optimal:        p.Optimal,
		LatencyNS:      p.Latency,
		Partial:        p.Partial,
		Fallback:       p.Fallback,
		LatencyBoundNS: p.LatencyBound,
		GapNS:          p.Gap,
		BoundTrusted:   p.BoundTrusted,
		SearchCounters: searchCountersOf(p.Stats),
		Formulation:    p.Stats.Formulation,
	}
	if p.N == 0 {
		return r
	}
	r.Assign = make(map[string]int, g.NumTasks())
	r.Partitions = make([]PartitionResult, p.N)
	for i := range r.Partitions {
		r.Partitions[i].Index = i
		if i < len(p.Delays) {
			r.Partitions[i].DelayNS = p.Delays[i]
		}
	}
	for t := 0; t < g.NumTasks(); t++ {
		task := g.Task(t)
		pi := p.Assign[t]
		r.Assign[task.Name] = pi
		r.Partitions[pi].Tasks = append(r.Partitions[pi].Tasks, task.Name)
		r.Partitions[pi].CLBs += task.Resources
	}
	return r
}
