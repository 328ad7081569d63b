package obs

import (
	"context"
	"encoding/json"
	"math"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.BeginArg(PhaseProbe, 3)
	sp.End()
	r.Counter(CounterNodes, 7)
	r.Node(1, 2, 3, 4.0, 5.0, true)
	r.Incumbent(1, 4.0)
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil || r.Trace() != nil {
		t.Fatal("nil recorder must be a no-op everywhere")
	}
}

func TestRecorderSpansAndCounters(t *testing.T) {
	r := NewRecorder(64)
	pre := r.Begin(PhasePresolve)
	time.Sleep(time.Millisecond)
	pre.End()
	probe := r.BeginArg(PhaseProbe, 3)
	r.Counter(CounterNodes, 5)
	r.Counter(CounterNodes, 2)
	r.Node(7, 2, 11, 900, 950, true)
	r.Incumbent(7, 950)
	time.Sleep(time.Millisecond)
	probe.End()

	tr := r.Trace()
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %+v, want 2", tr.Spans)
	}
	// Spans sort by start: presolve first.
	if tr.Spans[0].Phase != PhasePresolve || tr.Spans[1].Phase != PhaseProbe {
		t.Fatalf("span order = %+v", tr.Spans)
	}
	if tr.Spans[1].N != 3 {
		t.Fatalf("probe span N = %d, want 3", tr.Spans[1].N)
	}
	for _, sp := range tr.Spans {
		if sp.DurNS <= 0 {
			t.Fatalf("span %q has non-positive duration %d", sp.Phase, sp.DurNS)
		}
	}
	if tr.Counters[CounterNodes] != 7 {
		t.Fatalf("counter = %d, want 7", tr.Counters[CounterNodes])
	}
	if len(tr.Nodes) != 1 || tr.Nodes[0].Frontier != 11 || !tr.Nodes[0].HasIncumbent {
		t.Fatalf("node samples = %+v", tr.Nodes)
	}
	if len(tr.Incumbents) != 1 || tr.Incumbents[0].Obj != 950 {
		t.Fatalf("incumbents = %+v", tr.Incumbents)
	}
	if tr.DurNS < tr.Spans[1].StartNS+tr.Spans[1].DurNS {
		t.Fatalf("trace extent %d shorter than last span end", tr.DurNS)
	}
	if totals := tr.PhaseTotals(); totals[PhaseProbe] != tr.Spans[1].DurNS {
		t.Fatalf("phase totals = %v", totals)
	}
	// The trace must be JSON-marshalable (it rides inside Result).
	if _, err := json.Marshal(tr); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderDropsPastCapacity(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Counter(CounterCuts, 1)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	if tr := r.Trace(); tr.Dropped != 6 || tr.Counters[CounterCuts] != 4 {
		t.Fatalf("trace = %+v", tr)
	}
}

// Unclosed spans (cancellation mid-phase) must not corrupt the summary.
func TestUnclosedSpanIgnored(t *testing.T) {
	r := NewRecorder(16)
	_ = r.Begin(PhaseProbe) // never ended
	done := r.Begin(PhasePresolve)
	done.End()
	tr := r.Trace()
	if len(tr.Spans) != 1 || tr.Spans[0].Phase != PhasePresolve {
		t.Fatalf("spans = %+v, want just the closed presolve span", tr.Spans)
	}
}

// Concurrent recording (a race rival beside its row search, the service's
// solve workers) must be safe; run under -race in the CI race lane.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := r.BeginArg(PhaseSearch, int64(w))
				r.Counter(CounterNodes, 1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr := r.Trace()
	// 8 workers × 100 iterations × 3 events = 2400 fits in 4096: nothing
	// drops, every span closes, every counter lands.
	if tr.Dropped != 0 || tr.Counters[CounterNodes] != 800 || len(tr.Spans) != 800 {
		t.Fatalf("dropped=%d counter=%d spans=%d", tr.Dropped, tr.Counters[CounterNodes], len(tr.Spans))
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.002) // lands in the (0.001, 0.0025] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.2) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	q := h.Quantile(0.5)
	if q <= 0.001 || q > 0.0025 {
		t.Fatalf("p50 = %g, want within (0.001, 0.0025]", q)
	}
	cum := h.Cumulative()
	if cum[len(cum)-1] != 100 {
		t.Fatalf("+Inf cumulative = %d, want 100", cum[len(cum)-1])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative not monotone: %v", cum)
		}
	}
	// Overflow clamps to the top finite bound.
	h.Observe(1e6)
	if got := h.Quantile(1); got != DefaultLatencyBuckets[len(DefaultLatencyBuckets)-1] {
		t.Fatalf("overflow quantile = %g", got)
	}

	other := NewHistogram(nil)
	other.Observe(0.002)
	h.Merge(other)
	if h.Count() != 102 {
		t.Fatalf("merged count = %d", h.Count())
	}
}

func TestRequestID(t *testing.T) {
	if RequestID(context.Background()) != "" {
		t.Fatal("background ctx must have no request ID")
	}
	ctx := WithRequestID(context.Background(), "job-1")
	if RequestID(ctx) != "job-1" {
		t.Fatalf("request ID = %q", RequestID(ctx))
	}
}

func TestDoNilContext(t *testing.T) {
	ran := false
	Do(nil, "phase", "search", func(ctx context.Context) {
		if ctx != nil {
			t.Fatal("nil ctx must stay nil")
		}
		ran = true
	})
	if !ran {
		t.Fatal("f not run")
	}
	Do(context.Background(), "phase", "search", func(ctx context.Context) {
		if ctx == nil {
			t.Fatal("labeled ctx must be non-nil")
		}
	})
}

// TestDoLabelsOnlyCancellableContexts pins the batch path's zero cost: a
// context that can never be cancelled (the benches and core.Build pass
// context.Background) runs f unlabelled and allocation-free, while a
// cancellable request context carries the label into f.
func TestDoLabelsOnlyCancellableContexts(t *testing.T) {
	bg := context.Background()
	Do(bg, "phase", "search", func(ctx context.Context) {
		if _, ok := pprof.Label(ctx, "phase"); ok {
			t.Error("background ctx was labelled")
		}
	})
	noop := func(context.Context) {}
	if allocs := testing.AllocsPerRun(100, func() { Do(bg, "phase", "search", noop) }); allocs != 0 {
		t.Errorf("Do on a background ctx allocates %v allocs/op, want 0", allocs)
	}
	req, cancel := context.WithCancel(bg)
	defer cancel()
	Do(req, "phase", "search", func(ctx context.Context) {
		if v, ok := pprof.Label(ctx, "phase"); !ok || v != "search" {
			t.Errorf("request ctx label = %q, %v; want \"search\"", v, ok)
		}
	})
}

// TestNodeNonFiniteFloatsMarshal pins the JSON safety of sampled nodes: the
// search reports "no incumbent" as +Inf and a root bound can be infinite,
// but encoding/json rejects non-finite floats, so the recorder must store
// zero (the has_incumbent flag carries the truth).
func TestNodeNonFiniteFloatsMarshal(t *testing.T) {
	r := NewRecorder(16)
	r.Node(1, 0, 3, math.Inf(-1), math.Inf(1), false)
	r.Node(2, 1, 2, math.NaN(), math.NaN(), true)
	tr := r.Trace()
	if _, err := json.Marshal(tr); err != nil {
		t.Fatalf("trace with non-finite inputs does not marshal: %v", err)
	}
	if len(tr.Nodes) != 2 {
		t.Fatalf("got %d node samples, want 2", len(tr.Nodes))
	}
	for _, n := range tr.Nodes {
		if n.Bound != 0 || n.Incumbent != 0 {
			t.Errorf("non-finite floats leaked into sample %+v", n)
		}
	}
	if tr.Nodes[0].HasIncumbent || !tr.Nodes[1].HasIncumbent {
		t.Errorf("has_incumbent flags wrong: %+v", tr.Nodes)
	}
}
