package service

import "sync"

// SolveRecord is one completed solve request as the flight recorder keeps
// it: identity, origin, terminal outcome, and the phase breakdown when the
// request ran the solver itself (cache hits have no phases — they did no
// solving).
type SolveRecord struct {
	// ID is the scheduler job ID (doubles as the request ID in logs).
	ID      string `json:"id,omitempty"`
	Engine  string `json:"engine"`
	Graph   string `json:"graph,omitempty"`
	Board   string `json:"board,omitempty"`
	Origin  string `json:"origin"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	N       int    `json:"n,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	// StartUnixMS anchors the record on the wall clock.
	StartUnixMS int64   `json:"start_unix_ms"`
	SolveMS     float64 `json:"solve_ms"`
	// PhaseMS breaks the solve into per-phase cumulative time (from the
	// solve's trace; empty for cache hits and shared waiters).
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
	// Traced marks requests that asked for (and received) a full trace.
	Traced bool `json:"traced,omitempty"`
	// Partial marks anytime results (deadline stopped the proof); Fallback
	// additionally marks results served by the greedy list partitioner
	// because the search had no incumbent at the deadline.
	Partial  bool `json:"partial,omitempty"`
	Fallback bool `json:"fallback,omitempty"`
}

// FlightRecorder keeps the last K solve summaries in a ring, with the
// slowest solve since boot pinned separately so a latency spike is still
// inspectable after K faster requests have rotated it out. Safe for
// concurrent use.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []SolveRecord
	pos     int // next write slot
	n       int // occupied slots
	total   uint64
	slowest SolveRecord
	pinned  bool
}

// NewFlightRecorder returns a recorder holding size records (<= 0
// selects 64).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = 64
	}
	return &FlightRecorder{ring: make([]SolveRecord, size)}
}

// Record stores one completed solve.
func (f *FlightRecorder) Record(r SolveRecord) {
	f.mu.Lock()
	f.ring[f.pos] = r
	f.pos = (f.pos + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.total++
	if !f.pinned || r.SolveMS > f.slowest.SolveMS {
		f.slowest = r
		f.pinned = true
	}
	f.mu.Unlock()
}

// FlightSnapshot is the GET /debug/solves payload.
type FlightSnapshot struct {
	// Total counts every solve recorded since boot (>= len(Recent)).
	Total uint64 `json:"total"`
	// Slowest is the slowest solve since boot, pinned past ring rotation.
	Slowest *SolveRecord `json:"slowest,omitempty"`
	// Recent lists the last solves, newest first.
	Recent []SolveRecord `json:"recent"`
}

// Snapshot copies the recorder's state, newest first.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := FlightSnapshot{Total: f.total, Recent: make([]SolveRecord, 0, f.n)}
	for i := 1; i <= f.n; i++ {
		snap.Recent = append(snap.Recent, f.ring[(f.pos-i+len(f.ring))%len(f.ring)])
	}
	if f.pinned {
		s := f.slowest
		snap.Slowest = &s
	}
	return snap
}
