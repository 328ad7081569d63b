// Package obs is the solver stack's observability kernel: a bounded,
// preallocated trace recorder the pipeline layers (tempart, ilp, lp
// snapshots, service) write span/counter/node events into, plus the
// fixed-bucket latency histograms and pprof/request-id label helpers the
// service exports them through.
//
// The design constraint that shapes everything here is the allocation-free
// node hot path: tracing must cost literally nothing when disabled. All
// Recorder methods are nil-receiver safe no-ops, so call sites thread a
// `*Recorder` through Options/Input structs unconditionally and never
// branch — a disabled trace is one nil check per event site. When enabled,
// events land in a preallocated ring guarded by a mutex (recording is rare
// next to simplex work: one span per solver phase, one sample per N
// branch-and-bound nodes), and past capacity events are counted as dropped
// rather than grown.
package obs

import (
	"math"
	"sync"
	"time"
)

// Phase names recorded by the solver pipeline. tempart owns the first
// four; PhaseSearch wraps the branch-and-cut run inside each probe.
const (
	// PhasePresolve covers path enumeration, DAG bound computation, and
	// greedy warm-start construction, before any N is probed.
	PhasePresolve = "presolve"
	// PhaseProbe is one relax-N iteration (arg = N). A solve's probe spans
	// never overlap.
	PhaseProbe = "probe"
	// PhaseModelBuild is ILP model construction for one N, or the
	// solve's pattern-tree build during the probe for N (arg = N).
	PhaseModelBuild = "model-build"
	// PhaseRootCut is the root cutting-plane emission inside model build.
	PhaseRootCut = "root-cut"
	// PhaseSearch is the branch-and-cut search for one N (arg = N).
	PhaseSearch = "search"
)

// Counter names. The lp_* counters are SolverStats deltas snapshotted at
// search-span boundaries; the rest are emitted live by the ilp search.
const (
	CounterLPPivots   = "lp_pivots"
	CounterLPRefactor = "lp_refactorizations"
	CounterLPFlips    = "lp_bound_flips"
	CounterNodes      = "bb_nodes"
	CounterCuts       = "cuts_added"
	CounterSepRounds  = "separation_rounds"
	// CounterRaceRivals counts relax-N probes whose open rows root was
	// handed off to the pattern master, and CounterRaceRivalWins the
	// probes the pattern master answered. The names are kept from the
	// formulation race the hand-off replaced.
	CounterRaceRivals    = "race_rivals"
	CounterRaceRivalWins = "race_rival_wins"
)

// Kind discriminates trace events.
type Kind uint8

const (
	KindBegin Kind = 1 + iota
	KindEnd
	KindCounter
	KindNode
	KindIncumbent
)

// Event is one trace record. Field meaning varies by Kind:
//
//   - KindBegin:     Name = span name, Arg = span argument (e.g. probe N).
//   - KindEnd:       Name/Arg as Begin; Value = the matching begin
//     timestamp, so summarization never needs to pair events.
//   - KindCounter:   Name = counter name, Value = delta to add.
//   - KindNode:      Value = node ordinal, Arg = depth, Aux = frontier
//     size, F1 = node LP bound, F2 = incumbent objective (Aux2 = 0 when
//     no incumbent exists yet).
//   - KindIncumbent: Value = node ordinal at acceptance, F1 = objective.
type Event struct {
	TS    int64 // ns since the recorder's start (monotonic clock)
	Kind  Kind
	Name  string
	Value int64
	Arg   int64
	Aux   int64
	Aux2  int64
	F1    float64
	F2    float64
}

// Recorder collects events into a lazily grown, capacity-bounded buffer.
// The zero value is not usable; construct with NewRecorder. A nil
// *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	start   time.Time
	mu      sync.Mutex
	events  []Event
	n       int
	cap     int
	dropped int64
}

// NewRecorder returns a recorder holding up to capacity events
// (<= 0 selects 4096). Event storage grows geometrically on demand
// (64 events, then doubling, clamped to the capacity): a short traced
// solve — a handful of spans and counters — costs a few KB instead of the
// full capacity's worth, which used to dominate the traced hot path's
// allocation profile. A grow step is a rare amortized copy under the same
// mutex recording already takes; steady-state recording never allocates.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Recorder{start: time.Now(), cap: capacity}
}

// since is the recorder's monotonic clock.
func (r *Recorder) since() int64 { return int64(time.Since(r.start)) }

// record appends ev, counting it as dropped past capacity.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	if r.n == len(r.events) && r.n < r.cap {
		next := 2 * len(r.events)
		if next == 0 {
			next = 64
		}
		if next > r.cap {
			next = r.cap
		}
		grown := make([]Event, next)
		copy(grown, r.events)
		r.events = grown
	}
	if r.n < len(r.events) {
		r.events[r.n] = ev
		r.n++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Span is an open interval started by Begin. End may be called exactly
// once; the zero Span (from a nil Recorder) ends as a no-op.
type Span struct {
	r     *Recorder
	name  string
	arg   int64
	start int64
}

// Begin opens a span.
func (r *Recorder) Begin(name string) Span { return r.BeginArg(name, 0) }

// BeginArg opens a span with an argument (e.g. the probed N).
func (r *Recorder) BeginArg(name string, arg int64) Span {
	if r == nil {
		return Span{}
	}
	ts := r.since()
	r.record(Event{TS: ts, Kind: KindBegin, Name: name, Arg: arg})
	return Span{r: r, name: name, arg: arg, start: ts}
}

// End closes the span. The end event carries the begin timestamp, so
// spans need no pairing pass and concurrent (overlapping) spans of the
// same name summarize correctly.
func (sp Span) End() {
	if sp.r == nil {
		return
	}
	sp.r.record(Event{
		TS: sp.r.since(), Kind: KindEnd,
		Name: sp.name, Value: sp.start, Arg: sp.arg,
	})
}

// Counter adds delta to the named counter.
func (r *Recorder) Counter(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.record(Event{TS: r.since(), Kind: KindCounter, Name: name, Value: delta})
}

// Node records one sampled branch-and-bound node: its ordinal, depth,
// frontier size when it was processed, LP bound, and the incumbent objective
// (hasIncumbent false when no feasible solution exists yet). Non-finite
// floats are stored as zero: the search's "no incumbent" is +Inf and a
// root bound can be ±Inf, but the trace must marshal to JSON, which has no
// encoding for them (the flags/zero stand in).
func (r *Recorder) Node(ordinal int64, depth, frontier int, bound, incumbent float64, hasIncumbent bool) {
	if r == nil {
		return
	}
	var has int64
	if hasIncumbent {
		has = 1
	}
	if !hasIncumbent || math.IsInf(incumbent, 0) || math.IsNaN(incumbent) {
		incumbent = 0
	}
	if math.IsInf(bound, 0) || math.IsNaN(bound) {
		bound = 0
	}
	r.record(Event{
		TS: r.since(), Kind: KindNode, Value: ordinal,
		Arg: int64(depth), Aux: int64(frontier), Aux2: has,
		F1: bound, F2: incumbent,
	})
}

// Incumbent records an incumbent improvement at the given node ordinal.
func (r *Recorder) Incumbent(ordinal int64, obj float64) {
	if r == nil {
		return
	}
	r.record(Event{TS: r.since(), Kind: KindIncumbent, Value: ordinal, F1: obj})
}

// Dropped returns the number of events lost to the capacity bound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Events returns a copy of the recorded events (tests, summarization).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	copy(out, r.events[:r.n])
	return out
}
