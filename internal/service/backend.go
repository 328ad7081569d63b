// Package service is the request-lifecycle layer of the reproduction: a
// long-running partitioning service on top of the batch-style solver stack
// (internal/core, internal/tempart). It adds what a solver invoked from
// main() never needed — request parsing and validation, a bounded
// worker-pool scheduler with async jobs and cancellation, a memoizing solve
// cache keyed by canonical graph structure hashes with in-flight
// deduplication (singleflight), and observability (/healthz, /metrics).
// cmd/sparcsd wraps it in an HTTP daemon; cmd/sparcs reuses its Result
// payload for `-o json`.
package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/tempart"
)

// Request is a fully parsed and validated solve request: the unit of work
// the scheduler queues, the cache keys, and runEngine solves.
type Request struct {
	// Graph is the validated task graph (decoded from the wire schema).
	Graph *dfg.Graph
	// Board is the resolved target architecture.
	Board arch.Board
	// BoardName is the preset name the request used (reporting only).
	BoardName string
	// Engine names the partitioner, one of engines.
	Engine string

	// Solver knobs, all optional; each can change the reported result, so
	// each is keyed.
	MaxPartitions      int
	NoSymmetryBreaking bool
	// Formulation is the validated ILP model selector ("", "rows",
	// "patterns"). It changes the search shape (and which incumbent a
	// budget-bound solve returns), so it is keyed.
	Formulation string

	// NoCache bypasses the memo cache (always a fresh solve, result not
	// stored).
	NoCache bool

	// DeadlineMS bounds the solve wall-clock time (0 = none). The server
	// turns it into a context deadline; tempart threads it down to the
	// branch-and-bound search, which returns its best incumbent instead of
	// an error when time runs out. Excluded from the cache key: a complete
	// result is deadline-independent, and partial results never touch the
	// cache (in either direction).
	DeadlineMS int

	// Trace requests the per-request phase timeline in the Result. It is
	// excluded from the cache key, and a traced request also bypasses the
	// cache entirely (read and write):
	// a trace describes THIS solve, so it can neither be served from a
	// memo entry nor contaminate one.
	Trace bool
	// TraceSink, when non-nil, receives the solver's span/counter/node
	// events. The server injects it (per request); it is never part of
	// the cache key.
	TraceSink *obs.Recorder
}

// engines are the partitioners a request can name, in /healthz order:
// "ilp" is the paper's optimal temporal partitioning ILP, "list" the greedy
// list-partitioning baseline it is compared against.
var engines = []string{"ilp", "list"}

// runEngine solves req with the partitioner it names. The ILP honours ctx
// down to the branch-and-bound search; the list baseline is effectively
// instantaneous, so cancellation is only checked up front.
func runEngine(ctx context.Context, req *Request) (*tempart.Partitioning, error) {
	switch req.Engine {
	case "ilp":
		if faultinject.Fire(faultinject.WorkerPanic) {
			panic("faultinject: injected solver panic")
		}
		if faultinject.Fire(faultinject.SlowSolve) {
			select {
			case <-time.After(faultinject.Delay(faultinject.SlowSolve)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return tempart.Solve(ctx, tempart.Input{
			Graph:              req.Graph,
			Board:              req.Board,
			MaxPartitions:      req.MaxPartitions,
			Formulation:        req.Formulation,
			NoSymmetryBreaking: req.NoSymmetryBreaking,
			Trace:              req.TraceSink,
		})
	case "list":
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return tempart.ListPartition(req.Graph, req.Board)
	}
	return nil, fmt.Errorf("service: unknown engine %q (have: %v)", req.Engine, engines)
}
