// Package service is the request-lifecycle layer of the reproduction: a
// long-running partitioning service on top of the batch-style solver stack
// (internal/core, internal/tempart, internal/listpart). It adds what a
// solver invoked from main() never needed — request parsing and validation,
// a bounded worker-pool scheduler with async jobs and cancellation, a
// memoizing solve cache keyed by canonical graph structure hashes with
// in-flight deduplication (singleflight), a pluggable backend registry, and
// observability (/healthz, /metrics). cmd/sparcsd wraps it in an HTTP
// daemon; cmd/sparcs reuses its Result payload for `-o json`.
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/faultinject"
	"repro/internal/listpart"
	"repro/internal/obs"
	"repro/internal/tempart"
)

// Request is a fully parsed and validated solve request: the unit of work
// the scheduler queues, the cache keys, and a backend solves.
type Request struct {
	// Graph is the validated task graph (decoded from the wire schema).
	Graph *dfg.Graph
	// Board is the resolved target architecture.
	Board arch.Board
	// BoardName is the preset name the request used (reporting only).
	BoardName string
	// Engine names the backend ("ilp", "list", ...).
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
	// TraceSink, when non-nil, receives the backend's span/counter/node
	// events. The server injects it (per request); it is never part of
	// the cache key.
	TraceSink *obs.Recorder
}

// Backend is a pluggable partitioning engine. Implementations must be safe
// for concurrent use and honour ctx cancellation promptly (the scheduler
// threads job cancellation through it down to the branch-and-bound search).
type Backend interface {
	Name() string
	Solve(ctx context.Context, req *Request) (*tempart.Partitioning, error)
}

var (
	backendMu sync.RWMutex
	backends  = map[string]Backend{}
)

// RegisterBackend adds an engine to the registry. It panics on a duplicate
// or empty name (registration is an init-time programming act).
func RegisterBackend(b Backend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if b.Name() == "" {
		panic("service: backend with empty name")
	}
	if _, dup := backends[b.Name()]; dup {
		panic(fmt.Sprintf("service: duplicate backend %q", b.Name()))
	}
	backends[b.Name()] = b
}

// LookupBackend resolves an engine by name ("" selects "ilp").
func LookupBackend(name string) (Backend, error) {
	if name == "" {
		name = "ilp"
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown engine %q (have: %v)", name, backendNamesLocked())
	}
	return b, nil
}

// BackendNames returns the sorted registered engine names.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendNamesLocked()
}

func backendNamesLocked() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ilpBackend exposes the paper's optimal temporal partitioning ILP
// (internal/tempart) as a service engine.
type ilpBackend struct{}

func (ilpBackend) Name() string { return "ilp" }

func (ilpBackend) Solve(ctx context.Context, req *Request) (*tempart.Partitioning, error) {
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
	return tempart.SolveContext(ctx, tempart.Input{
		Graph:              req.Graph,
		Board:              req.Board,
		MaxPartitions:      req.MaxPartitions,
		Formulation:        req.Formulation,
		NoSymmetryBreaking: req.NoSymmetryBreaking,
		Trace:              req.TraceSink,
	})
}

// listBackend exposes the greedy list-partitioning baseline. It is
// effectively instantaneous, so cancellation is only checked up front.
type listBackend struct{}

func (listBackend) Name() string { return "list" }

func (listBackend) Solve(ctx context.Context, req *Request) (*tempart.Partitioning, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return listpart.Solve(req.Graph, req.Board)
}

func init() {
	RegisterBackend(ilpBackend{})
	RegisterBackend(listBackend{})
}
