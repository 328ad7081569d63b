package obs

import "sort"

// TraceSpan is one closed span in a summarized trace.
type TraceSpan struct {
	Phase string `json:"phase"`
	// N is the span argument (the probed partition count for probe /
	// model-build / search spans; 0 when not applicable).
	N       int64 `json:"n,omitempty"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// TraceNode is one sampled branch-and-bound node.
type TraceNode struct {
	TSNS     int64   `json:"ts_ns"`
	Ordinal  int64   `json:"ordinal"`
	Depth    int64   `json:"depth"`
	Frontier int64   `json:"frontier"`
	Bound    float64 `json:"bound"`
	// Incumbent is the best objective known when the node was processed;
	// HasIncumbent false means the search had no feasible solution yet.
	Incumbent    float64 `json:"incumbent,omitempty"`
	HasIncumbent bool    `json:"has_incumbent,omitempty"`
}

// TraceIncumbent is one incumbent improvement.
type TraceIncumbent struct {
	TSNS    int64   `json:"ts_ns"`
	Ordinal int64   `json:"node"`
	Obj     float64 `json:"obj"`
}

// Trace is the JSON-facing summary of a recorder: the phase timeline, the
// accumulated counters, and the sampled search progression. It is what a
// trace=1 solve returns inside Result.
type Trace struct {
	Spans      []TraceSpan      `json:"spans"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Incumbents []TraceIncumbent `json:"incumbents,omitempty"`
	Nodes      []TraceNode      `json:"node_samples,omitempty"`
	// DurNS is the timestamp of the last recorded event — the traced
	// window's extent on the recorder's own clock.
	DurNS int64 `json:"dur_ns"`
	// Dropped counts events lost to the recorder's capacity bound; a
	// nonzero value means the timeline is truncated, not wrong.
	Dropped int64 `json:"dropped_events,omitempty"`
}

// Trace summarizes the recorded events. Only closed spans appear (an
// unfinished span — e.g. cancelled mid-probe — contributes nothing).
// Returns nil on a nil recorder.
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	events := r.Events()
	tr := &Trace{Dropped: r.Dropped()}
	for _, ev := range events {
		if ev.TS > tr.DurNS {
			tr.DurNS = ev.TS
		}
		switch ev.Kind {
		case KindEnd:
			tr.Spans = append(tr.Spans, TraceSpan{
				Phase: ev.Name, N: ev.Arg,
				StartNS: ev.Value, DurNS: ev.TS - ev.Value,
			})
		case KindCounter:
			if tr.Counters == nil {
				tr.Counters = make(map[string]int64)
			}
			tr.Counters[ev.Name] += ev.Value
		case KindNode:
			tr.Nodes = append(tr.Nodes, TraceNode{
				TSNS: ev.TS, Ordinal: ev.Value, Depth: ev.Arg,
				Frontier: ev.Aux, Bound: ev.F1,
				Incumbent: ev.F2, HasIncumbent: ev.Aux2 != 0,
			})
		case KindIncumbent:
			tr.Incumbents = append(tr.Incumbents, TraceIncumbent{
				TSNS: ev.TS, Ordinal: ev.Value, Obj: ev.F1,
			})
		}
	}
	sort.SliceStable(tr.Spans, func(a, b int) bool {
		return tr.Spans[a].StartNS < tr.Spans[b].StartNS
	})
	return tr
}

// PhaseTotals sums closed-span durations per phase name. Nested spans
// (model-build inside probe) each count toward their own phase, so totals
// are per-phase cumulative time, not a partition of wall clock.
func (t *Trace) PhaseTotals() map[string]int64 {
	if t == nil || len(t.Spans) == 0 {
		return nil
	}
	out := make(map[string]int64, 4)
	for _, sp := range t.Spans {
		out[sp.Phase] += sp.DurNS
	}
	return out
}
