package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dfg"
	"repro/internal/tempart"
)

// decodeAssign rebuilds the task-indexed assignment from a Result's
// name-keyed map so it can be checked with tempart.CheckFeasible.
func decodeAssign(t *testing.T, g *dfg.Graph, res *Result) []int {
	t.Helper()
	if len(res.Assign) != g.NumTasks() {
		t.Fatalf("assign has %d tasks, graph has %d", len(res.Assign), g.NumTasks())
	}
	assign := make([]int, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		p, ok := res.Assign[g.Task(i).Name]
		if !ok {
			t.Fatalf("assign missing task %q", g.Task(i).Name)
		}
		assign[i] = p
	}
	return assign
}

// TestE2EDeadlinePartial is the robustness PR's acceptance test: the
// 26/38 mixed-cardinality hard instance — whose optimality proof runs far
// past any test budget — with a 200 ms deadline must come back HTTP 200
// with a feasible assignment, partial:true, and a finite reported gap;
// never a 504. And the partial result must never touch the cache.
func TestE2EDeadlinePartial(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})

	graphJSON := hardGraphJSON(t)
	var g dfg.Graph
	if err := g.UnmarshalJSON(graphJSON); err != nil {
		t.Fatal(err)
	}
	board := mustBoard(t, "small")

	req := SolveRequest{
		Graph: graphJSON, Board: "small", Formulation: tempart.FormulationRows,
		NoSymmetryBreaking: true, DeadlineMS: 200,
	}
	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/solve", req)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("deadline solve: code %d, want 200\n%s", code, body)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("200ms-deadline solve took %v", elapsed)
	}
	var res Result
	mustUnmarshal(t, body, &res)
	if !res.Partial {
		t.Fatalf("result not partial: %+v", res)
	}
	if res.Optimal {
		t.Fatal("result claims Optimal AND Partial")
	}
	if res.LatencyBoundNS <= 0 || res.LatencyBoundNS > res.LatencyNS+1e-6 {
		t.Fatalf("latency_bound_ns = %g outside (0, latency=%g]",
			res.LatencyBoundNS, res.LatencyNS)
	}
	if res.GapNS < 0 || res.GapNS != res.GapNS /* NaN */ {
		t.Fatalf("gap_ns = %g, want finite >= 0", res.GapNS)
	}
	assign := decodeAssign(t, &g, &res)
	if err := tempart.CheckFeasible(&g, board, assign, res.N); err != nil {
		t.Fatalf("partial assignment infeasible: %v", err)
	}

	// The partial result must not have populated the cache, and a repeat
	// of the same deadline request must not be served from it.
	if n := svc.cache.Stats().Entries; n != 0 {
		t.Fatalf("cache holds %d entries after a partial-only workload", n)
	}
	code, body = postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("second deadline solve: code %d\n%s", code, body)
	}
	var res2 Result
	mustUnmarshal(t, body, &res2)
	if res2.Cache != string(OriginMiss) {
		t.Fatalf("second deadline solve served from %q, want fresh miss", res2.Cache)
	}
	if !res2.Partial {
		t.Fatal("second deadline solve not partial")
	}

	// The flight recorder labels the partials.
	var fs FlightSnapshot
	if code := getJSON(t, ts.URL+"/debug/solves", &fs); code != http.StatusOK {
		t.Fatalf("/debug/solves code %d", code)
	}
	partials := 0
	for _, r := range fs.Recent {
		if r.Partial {
			partials++
		}
	}
	if partials != 2 {
		t.Fatalf("flight recorder shows %d partial solves, want 2", partials)
	}
}

// TestDeadlineCompleteResultCached pins the other half of the cache
// discipline: a deadline_ms solve that FINISHES in time is a complete
// result — it populates the cache and later requests (with or without a
// deadline) hit it, because DeadlineMS is excluded from the cache key.
func TestDeadlineCompleteResultCached(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	graph := marshalGraph(t, wideGraph())

	code, body := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Graph: graph, Board: "small", DeadlineMS: 60000})
	if code != http.StatusOK {
		t.Fatalf("code %d\n%s", code, body)
	}
	var res Result
	mustUnmarshal(t, body, &res)
	if res.Partial || !res.Optimal {
		t.Fatalf("generous deadline should finish optimal, got %+v", res)
	}
	if res.Cache != string(OriginMiss) {
		t.Fatalf("first solve origin %q, want miss", res.Cache)
	}
	if n := svc.cache.Stats().Entries; n != 1 {
		t.Fatalf("cache entries = %d, want 1", n)
	}
	for _, deadline := range []int{0, 60000} {
		code, body = postJSON(t, ts.URL+"/v1/solve",
			SolveRequest{Graph: graph, Board: "small", DeadlineMS: deadline})
		if code != http.StatusOK {
			t.Fatalf("deadline=%d: code %d\n%s", deadline, code, body)
		}
		var r2 Result
		mustUnmarshal(t, body, &r2)
		if r2.Cache != string(OriginHit) {
			t.Fatalf("deadline=%d: origin %q, want hit", deadline, r2.Cache)
		}
		if r2.Partial || r2.N != res.N || r2.LatencyNS != res.LatencyNS {
			t.Fatalf("deadline=%d: hit diverged: %+v vs %+v", deadline, r2, res)
		}
	}
}

// TestDefaultDeadlineConfig: an operator-configured default deadline
// (cmd/sparcsd -default-deadline) applies to requests that carry no
// deadline_ms of their own.
func TestDefaultDeadlineConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DefaultDeadlineMS: 200})
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Graph: hardGraphJSON(t), Board: "small", Formulation: tempart.FormulationRows,
		NoSymmetryBreaking: true,
	})
	if code != http.StatusOK {
		t.Fatalf("code %d\n%s", code, body)
	}
	var res Result
	mustUnmarshal(t, body, &res)
	if !res.Partial {
		t.Fatalf("default deadline not applied: %+v", res)
	}
}

// TestJobStatusExposesDeadline: pollers of an async deadline job can see
// the absolute deadline and tell "still solving" from "about to be shed".
func TestJobStatusExposesDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	before := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
		Graph: marshalGraph(t, chainGraph()), Board: "small", DeadlineMS: 30000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d\n%s", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	mustUnmarshal(t, body, &sub)
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	lo := before.Add(30000 * time.Millisecond).Add(-time.Second).UnixMilli()
	hi := time.Now().Add(30000 * time.Millisecond).Add(time.Second).UnixMilli()
	if st.DeadlineUnixMS < lo || st.DeadlineUnixMS > hi {
		t.Fatalf("deadline_unix_ms = %d, want within [%d, %d]", st.DeadlineUnixMS, lo, hi)
	}
	waitState(t, ts.URL, sub.ID, JobDone, 30*time.Second)
}

// TestQueuedJobShedAfterDeadline: a job whose deadline expires while it
// waits in the queue is dropped before wasting a worker.
func TestQueuedJobShedAfterDeadline(t *testing.T) {
	release := make(chan struct{})
	shedCh := make(chan string, 1)
	sched := NewScheduler(1, 8, func(ctx context.Context, req *Request) (*Result, error) {
		<-release
		return &Result{}, nil
	})
	sched.onShed = func(jobID string) { shedCh <- jobID }

	blocker, err := sched.Submit(&Request{})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := sched.Submit(&Request{DeadlineMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // let the victim's deadline lapse in queue
	close(release)

	select {
	case <-victim.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("shed job never reached a terminal state")
	}
	st := victim.Status()
	if st.State != JobFailed {
		t.Fatalf("shed job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "shed") {
		t.Fatalf("shed job error = %q, want a shed message", st.Error)
	}
	victim.mu.Lock()
	jerr := victim.err
	victim.mu.Unlock()
	if !errors.Is(jerr, ErrDeadlineShed) {
		t.Fatalf("shed job err = %v, want ErrDeadlineShed", jerr)
	}
	select {
	case id := <-shedCh:
		if id != victim.ID {
			t.Fatalf("onShed fired for %s, want %s", id, victim.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("onShed hook never fired")
	}
	<-blocker.Done()
	if s := blocker.Status().State; s != JobDone {
		t.Fatalf("blocking job state = %s, want done", s)
	}
	sched.Shutdown()
}

// TestWorkerPanicBackstop: the scheduler's recover() converts a panic in
// the solve path into JobFailed with the stack captured, and the pool keeps
// serving.
func TestWorkerPanicBackstop(t *testing.T) {
	panicCh := make(chan []byte, 1)
	sched := NewScheduler(1, 8, func(ctx context.Context, req *Request) (*Result, error) {
		if req.Engine == "boom" {
			panic("kaboom")
		}
		return &Result{Engine: req.Engine}, nil
	})
	sched.onPanic = func(jobID string, v any, stack []byte) { panicCh <- stack }
	defer sched.Shutdown()

	job, err := sched.Submit(&Request{Engine: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("panicking job never finished")
	}
	st := job.Status()
	if st.State != JobFailed || !strings.Contains(st.Error, "worker panic") {
		t.Fatalf("panicking job = %s %q, want failed with panic message", st.State, st.Error)
	}
	select {
	case stack := <-panicCh:
		if !strings.Contains(string(stack), "goroutine") {
			t.Fatalf("captured stack looks empty: %q", stack)
		}
	case <-time.After(time.Second):
		t.Fatal("onPanic hook never fired")
	}
	// The worker that recovered is still alive and serving.
	res, err := sched.RunSync(context.Background(), &Request{Engine: "fine"})
	if err != nil || res.Engine != "fine" {
		t.Fatalf("pool dead after panic: (%+v, %v)", res, err)
	}
}
