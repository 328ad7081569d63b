package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/tempart"
)

// --- graph fixtures -------------------------------------------------------

// chainGraph: forced into one partition per task pair on the small board.
func chainGraph() *dfg.Graph {
	g := dfg.New("chain")
	g.MustAddTask(dfg.Task{Name: "a", Resources: 60, Delay: 50, ReadEnv: 2})
	g.MustAddTask(dfg.Task{Name: "b", Resources: 60, Delay: 70})
	g.MustAddTask(dfg.Task{Name: "c", Resources: 60, Delay: 40})
	g.MustAddTask(dfg.Task{Name: "d", Resources: 60, Delay: 90, WriteEnv: 2})
	g.MustAddEdge("a", "b", 4)
	g.MustAddEdge("b", "c", 4)
	g.MustAddEdge("c", "d", 4)
	return g
}

// pairsGraph: fast/slow parallel pairs where greedy packing is suboptimal.
func pairsGraph() *dfg.Graph {
	g := dfg.New("pairs")
	for i := 0; i < 3; i++ {
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("f%d", i), Type: "F", Resources: 30, Delay: 10, ReadEnv: 1})
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("s%d", i), Type: "S", Resources: 30, Delay: 500, WriteEnv: 1})
		g.MustAddEdge(fmt.Sprintf("f%d", i), fmt.Sprintf("s%d", i), 2)
	}
	return g
}

// diamondGraph: a fork/join with memory-weighted edges.
func diamondGraph() *dfg.Graph {
	g := dfg.New("diamond")
	g.MustAddTask(dfg.Task{Name: "src", Resources: 50, Delay: 30, ReadEnv: 4})
	g.MustAddTask(dfg.Task{Name: "l", Resources: 50, Delay: 60})
	g.MustAddTask(dfg.Task{Name: "r", Resources: 50, Delay: 80})
	g.MustAddTask(dfg.Task{Name: "sink", Resources: 50, Delay: 20, WriteEnv: 4})
	g.MustAddEdge("src", "l", 8)
	g.MustAddEdge("src", "r", 8)
	g.MustAddEdge("l", "sink", 8)
	g.MustAddEdge("r", "sink", 8)
	return g
}

// wideGraph: independent tasks, pure packing.
func wideGraph() *dfg.Graph {
	g := dfg.New("wide")
	for i := 0; i < 6; i++ {
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("w%d", i), Resources: 30, Delay: float64(20 + 10*i), ReadEnv: 1, WriteEnv: 1})
	}
	return g
}

// hardGraphJSON is an instance whose branch-and-bound runs for minutes if
// not cancelled: task sizes alternate 26/38 CLBs on the 100-CLB "small"
// board — a mixed-cardinality packing whose true minimum (9 partitions)
// exceeds every proof-engine bound (area and CG cardinality both say 8),
// and whose N=9 optimum Σd = 900 sits above the 800 layer-cake/CG-delay
// floor, so both the infeasibility proof at N=8 and the optimality proof
// at N=9 are exponential enumerations. (The earlier 34/35/36 variant died
// to PR 5's CG cardinality engine — uniform near-capacity sizes make the
// cardinality bound exact; the equal-sized variant before it died to the
// PR 3 layer-cake bound.) That is the row model's search: the pattern
// master proves the instance in milliseconds, so a request that needs the
// long search pins formulation "rows".
func hardGraphJSON(t *testing.T) json.RawMessage {
	g := dfg.New("hard")
	for i := 0; i < 24; i++ {
		r := 26
		if i%2 == 1 {
			r = 38
		}
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("t%02d", i), Type: "T",
			Resources: r, Delay: 100, ReadEnv: 1, WriteEnv: 1})
	}
	return marshalGraph(t, g)
}

func marshalGraph(t testing.TB, g *dfg.Graph) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustMarshal(g *dfg.Graph) json.RawMessage {
	data, err := json.Marshal(g)
	if err != nil {
		panic(err)
	}
	return data
}

// directOptimum solves g with the flow the service wraps, for comparison.
func directOptimum(t testing.TB, g *dfg.Graph) (int, float64) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Board = mustBoard(t, "small")
	d, err := core.Build(g, cfg)
	if err != nil {
		t.Fatalf("direct core.Build(%s): %v", g.Name, err)
	}
	return d.Partitioning.N, d.Partitioning.Latency
}

func mustBoard(t testing.TB, name string) arch.Board {
	t.Helper()
	b, err := arch.BoardByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// --- HTTP helpers ---------------------------------------------------------

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})
	return svc, ts
}

func postJSON(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

// --- the acceptance test --------------------------------------------------

// TestE2EBatchCacheAndCancel is the end-to-end acceptance test of the
// service PR: a batch of 100 requests over 4 distinct graphs completes with
// >= 96 cache/singleflight hits and optima identical to direct core calls,
// and a cancelled async job stops the underlying branch-and-bound search
// (observed through the threaded context) without affecting other in-flight
// jobs.
func TestE2EBatchCacheAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	graphs := []*dfg.Graph{chainGraph(), pairsGraph(), diamondGraph(), wideGraph()}
	type want struct {
		n   int
		lat float64
	}
	wants := make(map[string]want, len(graphs))
	for _, g := range graphs {
		n, lat := directOptimum(t, g)
		wants[g.Name] = want{n, lat}
	}

	// 100 requests cycling over the 4 graphs, in one batch call.
	var batch batchRequest
	for i := 0; i < 100; i++ {
		batch.Requests = append(batch.Requests, SolveRequest{
			Graph: marshalGraph(t, graphs[i%len(graphs)]),
			Board: "small",
		})
	}
	code, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 100 {
		t.Fatalf("batch returned %d items", len(resp.Items))
	}
	served := map[string]int{}
	for i, item := range resp.Items {
		if item.Error != "" {
			t.Fatalf("batch item %d failed: %s", i, item.Error)
		}
		w := wants[item.Result.Graph]
		if item.Result.N != w.n || item.Result.LatencyNS != w.lat {
			t.Fatalf("batch item %d (%s): N=%d lat=%g, direct core gives N=%d lat=%g",
				i, item.Result.Graph, item.Result.N, item.Result.LatencyNS, w.n, w.lat)
		}
		if !item.Result.Optimal {
			t.Fatalf("batch item %d (%s) not proven optimal", i, item.Result.Graph)
		}
		served[item.Result.Cache]++
		if item.Result.Cache != string(OriginMiss) && item.Result.SearchCounters != (SearchCounters{}) {
			t.Errorf("batch item %d (%s, %s) reported search counters %+v, want all zero",
				i, item.Result.Graph, item.Result.Cache, item.Result.SearchCounters)
		}
	}
	if served[string(OriginMiss)] != len(graphs) {
		t.Errorf("want exactly %d misses (one per distinct graph), got %v", len(graphs), served)
	}
	if hits := served[string(OriginHit)] + served[string(OriginShared)]; hits < 96 {
		t.Errorf("want >= 96 cache/singleflight hits, got %d (%v)", hits, served)
	}

	// An isomorphic copy (renamed tasks, shuffled insertion order) of a
	// solved graph must hit the cache and come back with its own names.
	iso := dfg.New("chain-iso")
	src := chainGraph()
	order := []int{3, 1, 0, 2}
	for _, ti := range order {
		task := *src.Task(ti)
		task.Name = "re_" + task.Name
		iso.MustAddTask(task)
	}
	for _, e := range src.Edges() {
		iso.MustAddEdge("re_"+src.Task(e.From).Name, "re_"+src.Task(e.To).Name, e.Data)
	}
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: marshalGraph(t, iso), Board: "small"})
	if code != http.StatusOK {
		t.Fatalf("iso solve: HTTP %d: %s", code, body)
	}
	var isoRes Result
	if err := json.Unmarshal(body, &isoRes); err != nil {
		t.Fatal(err)
	}
	if isoRes.Cache != string(OriginHit) {
		t.Errorf("isomorphic graph got cache=%q, want hit", isoRes.Cache)
	}
	if isoRes.SearchCounters != (SearchCounters{}) {
		t.Errorf("isomorphic hit reported search counters %+v, want all zero", isoRes.SearchCounters)
	}
	w := wants["chain"]
	if isoRes.N != w.n || isoRes.LatencyNS != w.lat {
		t.Errorf("isomorphic result N=%d lat=%g, want N=%d lat=%g", isoRes.N, isoRes.LatencyNS, w.n, w.lat)
	}
	if _, ok := isoRes.Assign["re_a"]; !ok {
		t.Errorf("isomorphic result lost the request's task names: %v", isoRes.Assign)
	}

	// Async cancellation: a hard job whose search would run for minutes is
	// cancelled mid-solve; the threaded context stops the B&B promptly,
	// and an easy job in flight at the same time is untouched.
	var sub struct {
		ID string `json:"id"`
	}
	code, body = postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
		Graph: hardGraphJSON(t), Board: "small", Formulation: tempart.FormulationRows,
		NoSymmetryBreaking: true, NoCache: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("job submit: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	hardID := sub.ID
	waitState(t, ts.URL, hardID, JobRunning, 10*time.Second)

	code, body = postJSON(t, ts.URL+"/v1/jobs", SolveRequest{Graph: marshalGraph(t, diamondGraph()), Board: "small"})
	if code != http.StatusAccepted {
		t.Fatalf("easy job submit: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	easyID := sub.ID

	cancelStart := time.Now()
	code, _ = postJSON(t, ts.URL+"/v1/jobs/"+hardID+"/cancel", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	hardSt := waitState(t, ts.URL, hardID, JobCancelled, 10*time.Second)
	if d := time.Since(cancelStart); d > 10*time.Second {
		t.Errorf("cancellation took %v to stop the search", d)
	}
	if !strings.Contains(hardSt.Error, "context canceled") {
		t.Errorf("cancelled job error = %q, want the threaded context's cancellation", hardSt.Error)
	}

	easySt := waitState(t, ts.URL, easyID, JobDone, 30*time.Second)
	w = wants["diamond"]
	if easySt.Result == nil || easySt.Result.N != w.n || easySt.Result.LatencyNS != w.lat {
		t.Errorf("easy job perturbed by cancel: %+v, want N=%d lat=%g", easySt.Result, w.n, w.lat)
	}
}

// waitState polls a job until it reaches state (fatal on timeout or on
// reaching a different terminal state).
func waitState(t *testing.T, baseURL, id string, state JobState, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		if code := getJSON(t, baseURL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job %s: HTTP %d", id, code)
		}
		if st.State == state {
			return st
		}
		terminal := st.State == JobDone || st.State == JobFailed || st.State == JobCancelled
		if terminal {
			t.Fatalf("job %s reached %q (err=%q), want %q", id, st.State, st.Error, state)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, state)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// --- focused endpoint tests ----------------------------------------------

func TestSolveMatchesListBackend(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	g := pairsGraph()
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Graph: marshalGraph(t, g), Board: "small", Engine: "list",
	})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Board = mustBoard(t, "small")
	cfg.Partitioner = core.ListPartitioner
	d, err := core.Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != d.Partitioning.N || res.LatencyNS != d.Partitioning.Latency {
		t.Fatalf("list engine: N=%d lat=%g, direct N=%d lat=%g",
			res.N, res.LatencyNS, d.Partitioning.N, d.Partitioning.Latency)
	}
	if res.Engine != "list" {
		t.Fatalf("engine = %q", res.Engine)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed-json", `{`, http.StatusBadRequest},
		{"no-graph", `{}`, http.StatusBadRequest},
		{"bad-graph-cycle", `{"graph":{"tasks":[{"name":"a"},{"name":"b"}],
			"edges":[{"from":"a","to":"b","data":1},{"from":"b","to":"a","data":1}]}}`, http.StatusBadRequest},
		{"dup-task", `{"graph":{"tasks":[{"name":"a"},{"name":"a"}]}}`, http.StatusBadRequest},
		{"unknown-board", `{"graph":{"tasks":[{"name":"a"}]},"board":"nope"}`, http.StatusBadRequest},
		{"unknown-engine", `{"graph":{"tasks":[{"name":"a"}]},"engine":"magic"}`, http.StatusBadRequest},
		{"negative-knob", `{"graph":{"tasks":[{"name":"a"}]},"max_partitions":-1}`, http.StatusBadRequest},
		{"bad-formulation", `{"graph":{"tasks":[{"name":"a"}]},"formulation":"columns"}`, http.StatusBadRequest},
		{"task-too-large", `{"graph":{"tasks":[{"name":"a","resources":9999,"delay":1}]},"board":"small"}`,
			http.StatusUnprocessableEntity},
		{"task-too-large-list", `{"graph":{"tasks":[{"name":"a","resources":9999,"delay":1}]},"board":"small","engine":"list"}`,
			http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/doesnotexist", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
}

// TestRequestBodyDecoding pins how a request body is read: with or
// without a Content-Length (a chunked body), over the size limit, empty,
// cut short, and with bytes after the JSON value, on both /v1/solve and
// /v1/batch.
func TestRequestBodyDecoding(t *testing.T) {
	solve := `{"graph":{"tasks":[{"name":"a","resources":10,"delay":5}]},"board":"small"}`
	batch := `{"requests":[` + solve + `]}`
	limit := int64(len(batch))
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	cases := []struct {
		name, path, body string
		chunked          bool
		want             int
		wantErr          string
	}{
		{"solve", "/v1/solve", solve, false, http.StatusOK, ""},
		{"solve-chunked", "/v1/solve", solve, true, http.StatusOK, ""},
		{"batch", "/v1/batch", batch, false, http.StatusOK, ""},
		{"batch-chunked", "/v1/batch", batch, true, http.StatusOK, ""},
		{"over-limit", "/v1/batch", batch + " ", false, http.StatusBadRequest,
			"service: bad request body: http: request body too large"},
		{"over-limit-chunked", "/v1/solve", solve + strings.Repeat(" ", int(limit)), true, http.StatusBadRequest,
			"service: bad request body: http: request body too large"},
		{"empty", "/v1/solve", "", false, http.StatusBadRequest, "service: bad request body: EOF"},
		{"blank-chunked", "/v1/batch", " \n", true, http.StatusBadRequest, "service: bad request body: EOF"},
		{"cut-short", "/v1/solve", solve[:20], false, http.StatusBadRequest,
			"service: bad request body: unexpected EOF"},
		// A stream decoder stopped at the end of the first value and
		// ignored the rest; a whole-body read rejects it.
		{"trailing-bytes", "/v1/solve", solve + "{}", false, http.StatusBadRequest,
			"service: bad request body: invalid character '{' after top-level value"},
		{"trailing-bytes-batch", "/v1/batch", `{"requests":[]}x`, false, http.StatusBadRequest,
			"service: bad request body: invalid character 'x' after top-level value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.chunked {
				req.ContentLength = -1 // unknown length: sent chunked
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var apiErr apiError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want || apiErr.Error != tc.wantErr {
				t.Fatalf("HTTP %d error %q, want %d error %q", resp.StatusCode, apiErr.Error, tc.want, tc.wantErr)
			}
		})
	}
}

// TestBatchPerItemErrors pins that a bad item fails alone: one /v1/batch
// call with a valid graph, a graph carrying a JSON type error and a cyclic
// graph answers 200, solves the valid item, and gives each bad item its
// own decode error.
func TestBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"requests":[
		{"graph":{"name":"ok","tasks":[{"name":"a","resources":10,"delay":5}]},"board":"small"},
		{"graph":{"tasks":[{"name":"a","resources":"x","delay":1}]},"board":"small"},
		{"graph":{"tasks":[{"name":"a"},{"name":"b"}],
			"edges":[{"from":"a","to":"b","data":1},{"from":"b","to":"a","data":1}]},"board":"small"}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d, want 200", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 3 {
		t.Fatalf("batch answered %d items, want 3", len(br.Items))
	}
	if ok := br.Items[0]; ok.Error != "" || ok.Result == nil || ok.Result.N != 1 {
		t.Errorf("valid item: error %q, result %+v; want a 1-partition result", ok.Error, ok.Result)
	}
	for i, want := range []string{
		"service: bad graph: json: cannot unmarshal string into Go struct field jsonTask.tasks.resources of type int",
		"service: bad graph: dfg: decode: dfg: graph contains a cycle",
	} {
		if it := br.Items[i+1]; it.Error != want || it.Result != nil {
			t.Errorf("item %d: error %q, result %+v; want error %q and no result", i+1, it.Error, it.Result, want)
		}
	}
}

// ladderGraph chains k diamonds top -> {l, r} -> bottom, each bottom the
// next top: 3k+1 tasks and 2^k root-to-leaf paths.
func ladderGraph(k int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("ladder%d", k))
	g.MustAddTask(dfg.Task{Name: "v0", Resources: 20, Delay: 10})
	for i := 0; i < k; i++ {
		top, bot := fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("l%d", i), Resources: 20, Delay: 30})
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("r%d", i), Resources: 20, Delay: 20})
		g.MustAddTask(dfg.Task{Name: bot, Resources: 20, Delay: 10})
		for _, side := range []string{"l", "r"} {
			g.MustAddEdge(top, fmt.Sprintf("%s%d", side, i), 1)
			g.MustAddEdge(fmt.Sprintf("%s%d", side, i), bot, 1)
		}
	}
	return g
}

// TestPathDenseRequests: a 16-diamond ladder (49 tasks, 65,536 paths) is
// past the ILP's path cap. The list engine, which lists no path, answers
// with a feasible partitioning; the ILP, with or without a deadline,
// answers 422 and names the cap, as a single request and as a batch item.
func TestPathDenseRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	g := ladderGraph(16)
	graph := marshalGraph(t, g)
	b := mustBoard(t, "small")
	const capMsg = "dfg: path enumeration exceeds cap (20001 > 20000)"
	checkList := func(res *Result) {
		t.Helper()
		if len(res.Assign) != g.NumTasks() {
			t.Fatalf("list result assigns %d of %d tasks", len(res.Assign), g.NumTasks())
		}
		assign := make([]int, g.NumTasks())
		for name, p := range res.Assign {
			assign[g.TaskByName(name)] = p
		}
		if err := tempart.CheckFeasible(g, b, assign, res.N); err != nil {
			t.Errorf("list result infeasible: %v", err)
		}
	}
	reqs := []SolveRequest{
		{Graph: graph, Board: "small", Engine: "list"},
		{Graph: graph, Board: "small", Engine: "ilp"},
		{Graph: graph, Board: "small", Engine: "ilp", DeadlineMS: 50},
	}

	code, body := postJSON(t, ts.URL+"/v1/solve", reqs[0])
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d, want 200: %s", code, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	checkList(&res)
	for _, req := range reqs[1:] {
		code, body := postJSON(t, ts.URL+"/v1/solve", req)
		var e apiError
		_ = json.Unmarshal(body, &e)
		if code != http.StatusUnprocessableEntity || !strings.Contains(e.Error, capMsg) {
			t.Errorf("ilp deadline_ms=%d: HTTP %d %s, want 422 naming the path cap", req.DeadlineMS, code, body)
		}
	}

	code, body = postJSON(t, ts.URL+"/v1/batch", batchRequest{Requests: reqs})
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d, want 200: %s", code, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(reqs) {
		t.Fatalf("batch answered %d items, want %d", len(br.Items), len(reqs))
	}
	if it := br.Items[0]; it.Error != "" || it.Result == nil {
		t.Fatalf("list item: error %q, result %v", it.Error, it.Result)
	}
	checkList(br.Items[0].Result)
	for i, it := range br.Items[1:] {
		if !strings.Contains(it.Error, capMsg) || it.Result != nil {
			t.Errorf("ilp item %d: error %q, result %v; want the path-cap error", i+1, it.Error, it.Result)
		}
	}
}

// TestJobsCancelledCountedOnce pins jobs_cancelled_total: a running job
// cancelled mid-solve counts once (not again through its solve's cancelled
// outcome), a job cancelled while queued counts once, and cancelling a
// finished job counts nothing however often it is repeated.
func TestJobsCancelledCountedOnce(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	submit := func(sr SolveRequest) string {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/jobs", sr)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", code, body)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}
	cancel := func(id string) {
		t.Helper()
		if code, body := postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", struct{}{}); code != http.StatusOK {
			t.Fatalf("cancel %s: HTTP %d: %s", id, code, body)
		}
	}
	easy := SolveRequest{Graph: marshalGraph(t, diamondGraph()), Board: "small"}

	finished := submit(easy)
	waitState(t, ts.URL, finished, JobDone, 30*time.Second)
	cancel(finished)
	cancel(finished)
	if got := svc.metrics.Snapshot().Cancelled; got != 0 {
		t.Fatalf("two cancels of a finished job counted %d, want 0", got)
	}

	// The one worker runs the hard job, so the next job stays queued.
	running := submit(SolveRequest{Graph: hardGraphJSON(t), Board: "small",
		Formulation: tempart.FormulationRows, NoSymmetryBreaking: true, NoCache: true})
	waitState(t, ts.URL, running, JobRunning, 10*time.Second)
	queued := submit(easy)
	cancel(queued)
	waitState(t, ts.URL, queued, JobCancelled, 10*time.Second)
	cancel(running)
	waitState(t, ts.URL, running, JobCancelled, 10*time.Second)
	// A synchronous solve queues behind both cancelled jobs, so once it
	// returns the worker has retired them.
	if code, body := postJSON(t, ts.URL+"/v1/solve", easy); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d: %s", code, body)
	}
	if got := svc.metrics.Snapshot().Cancelled; got != 2 {
		t.Fatalf("one running and one queued job cancelled: counted %d, want 2", got)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	hard := hardGraphJSON(t)
	submit := func() (int, string) {
		code, body := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
			Graph: hard, Board: "small", Formulation: tempart.FormulationRows,
			NoSymmetryBreaking: true, NoCache: true,
		})
		var sub struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(body, &sub)
		return code, sub.ID
	}
	var ids []string
	got503 := false
	for i := 0; i < 4; i++ {
		code, id := submit()
		switch code {
		case http.StatusAccepted:
			ids = append(ids, id)
		case http.StatusServiceUnavailable:
			got503 = true
		default:
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
	}
	if !got503 {
		t.Error("queue never overflowed into 503")
	}
	for _, id := range ids {
		postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", struct{}{})
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: marshalGraph(t, wideGraph()), Board: "small"})
	if code != http.StatusOK {
		t.Fatalf("solve: HTTP %d: %s", code, body)
	}
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: marshalGraph(t, wideGraph()), Board: "small"})

	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if health.Status != "ok" || !slices.Equal(health.Engines, []string{"ilp", "list"}) {
		t.Fatalf("healthz payload: %+v", health)
	}
	if health.Cache.Misses != 1 || health.Cache.Hits != 1 {
		t.Errorf("cache stats after identical solves: %+v", health.Cache)
	}
	if health.Metrics.Solves["ilp"] != 2 {
		t.Errorf("metrics solves: %+v", health.Metrics.Solves)
	}
	// The per-engine search counters keep their /healthz keys: the one
	// fresh solve above recorded every family under engine "ilp".
	var raw struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	getJSON(t, ts.URL+"/healthz", &raw)
	for _, key := range []string{
		"bb_nodes", "bb_pruned_combinatorial", "lp_solves_skipped",
		"cuts_added", "separation_rounds", "conflict_cuts", "cg_cuts",
		"dual_bound_fathoms", "lp_refactorizations", "lp_bound_flips",
		"lp_sparse_ftrans", "lp_sparse_btrans", "lp_dense_fallbacks",
		"columns_generated", "pricing_rounds", "race_rivals",
	} {
		var perEngine map[string]uint64
		if err := json.Unmarshal(raw.Metrics[key], &perEngine); err != nil {
			t.Errorf("healthz metrics.%s: %v (raw %s)", key, err, raw.Metrics[key])
			continue
		}
		if _, ok := perEngine["ilp"]; !ok {
			t.Errorf("healthz metrics.%s has no ilp entry: %v", key, perEngine)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{
		"sparcsd_solve_total{engine=\"ilp\"} 2",
		"sparcsd_cache_hits_total 1",
		"sparcsd_cache_misses_total 1",
		"sparcsd_queue_depth 0",
		"sparcsd_solve_latency_seconds{quantile=\"0.5\"}",
		"sparcsd_solve_latency_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(string(text), key) {
			t.Errorf("metrics exposition missing %q:\n%s", key, text)
		}
	}
}

// TestCacheKeyKnobs pins that trace leaves the cache key alone and that
// each knob that can change the result changes it.
func TestCacheKeyKnobs(t *testing.T) {
	g := chainGraph()
	base := SolveRequest{Graph: marshalGraph(t, g), Board: "small"}
	r1, err := base.Parse()
	if err != nil {
		t.Fatal(err)
	}
	tr := base
	tr.Trace = true
	r4, err := tr.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheKey() != r4.CacheKey() {
		t.Error("trace changed the cache key (it must observe, never shadow)")
	}
	for name, mut := range map[string]func(*SolveRequest){
		"board":       func(sr *SolveRequest) { sr.Board = "paper" },
		"engine":      func(sr *SolveRequest) { sr.Engine = "list" },
		"no-symmetry": func(sr *SolveRequest) { sr.NoSymmetryBreaking = true },
		"max-parts":   func(sr *SolveRequest) { sr.MaxPartitions = 5 },
		"formulation": func(sr *SolveRequest) { sr.Formulation = "patterns" },
	} {
		sr := base
		mut(&sr)
		r3, err := sr.Parse()
		if err != nil {
			t.Fatal(err)
		}
		if r3.CacheKey() == r1.CacheKey() {
			t.Errorf("knob %s did not change the cache key", name)
		}
	}
}

// TestSolveFormulationKnob drives the branch-and-price backend through the
// wire: formulation "patterns" must reach the same optimum as the default
// row model, report the formulation it actually ran plus its
// column-generation counters, and land in its own cache entry (a repeat is
// a hit, but never a hit on the rows entry).
func TestSolveFormulationKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	g := marshalGraph(t, chainGraph())

	var rows, pats, again Result
	if code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: g, Board: "small"}); code != http.StatusOK {
		t.Fatalf("rows solve: HTTP %d: %s", code, body)
	} else if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Graph: g, Board: "small", Formulation: "patterns"}
	if code, body := postJSON(t, ts.URL+"/v1/solve", req); code != http.StatusOK {
		t.Fatalf("patterns solve: HTTP %d: %s", code, body)
	} else if err := json.Unmarshal(body, &pats); err != nil {
		t.Fatal(err)
	}
	if pats.N != rows.N || pats.LatencyNS != rows.LatencyNS {
		t.Errorf("patterns N=%d latency=%g, rows N=%d latency=%g — formulations disagree",
			pats.N, pats.LatencyNS, rows.N, rows.LatencyNS)
	}
	if !pats.Optimal {
		t.Error("patterns solve not proven optimal")
	}
	if rows.Formulation != "rows" || pats.Formulation != "patterns" {
		t.Errorf("reported formulations %q/%q, want rows/patterns", rows.Formulation, pats.Formulation)
	}
	if pats.ColumnsGenerated == 0 || pats.PricingRounds == 0 {
		t.Errorf("patterns solve reported %d columns / %d pricing rounds, want nonzero",
			pats.ColumnsGenerated, pats.PricingRounds)
	}
	if rows.ColumnsGenerated != 0 {
		t.Errorf("rows solve reported %d generated columns, want 0", rows.ColumnsGenerated)
	}
	if rows.Cache != "miss" || pats.Cache != "miss" {
		t.Errorf("cache origins %q/%q, want miss/miss (formulation must be keyed)", rows.Cache, pats.Cache)
	}
	if code, body := postJSON(t, ts.URL+"/v1/solve", req); code != http.StatusOK {
		t.Fatalf("repeat patterns solve: HTTP %d: %s", code, body)
	} else if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Cache != "hit" {
		t.Errorf("repeat patterns solve origin %q, want hit", again.Cache)
	}
	// A hit echoes the formulation its entry was solved with but reports
	// zero search: the search ran once, for the miss above.
	if again.Formulation != "patterns" {
		t.Errorf("cache hit formulation %q, want patterns", again.Formulation)
	}
	if again.SearchCounters != (SearchCounters{}) {
		t.Errorf("cache hit reported search counters %+v, want all zero", again.SearchCounters)
	}
}

// TestRetiredKnobsIgnored: clients written against the older API still send
// pricing, cut_rounds_root, cut_rounds_node, max_cuts, workers,
// speculate_n, path_cap and max_nodes (testdata/retired_knobs.json holds
// them as such a client sent them). The decoder ignores unknown fields, so
// such a request must get the bare request's answer from a fresh solve
// and, sent after the bare request, be served from the same cache entry.
// The fixture's workers value would have started that many search
// goroutines when the field was live; ignored, it starts none.
func TestRetiredKnobsIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	g := marshalGraph(t, chainGraph())
	knobs, err := os.ReadFile("testdata/retired_knobs.json")
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]any{}
	if err := json.Unmarshal(knobs, &req); err != nil {
		t.Fatal(err)
	}
	req["graph"], req["board"] = g, "small"
	solve := func(name string, body any) Result {
		t.Helper()
		code, data := postJSON(t, ts.URL+"/v1/solve", body)
		if code != http.StatusOK {
			t.Fatalf("%s solve: HTTP %d: %s", name, code, data)
		}
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	bare := solve("bare", SolveRequest{Graph: g, Board: "small"})
	req["no_cache"] = true
	fresh := solve("fresh retired-knob", req)
	delete(req, "no_cache")
	cached := solve("retired-knob", req)
	for _, old := range []Result{fresh, cached} {
		if old.N != bare.N || old.LatencyNS != bare.LatencyNS || old.Optimal != bare.Optimal {
			t.Errorf("retired-knob request N=%d latency=%g optimal=%v, bare N=%d latency=%g optimal=%v",
				old.N, old.LatencyNS, old.Optimal, bare.N, bare.LatencyNS, bare.Optimal)
		}
	}
	if bare.Cache != "miss" || cached.Cache != "hit" {
		t.Errorf("cache origins %q/%q, want miss/hit", bare.Cache, cached.Cache)
	}
}

// TestGracefulShutdownUnderLoad drives concurrent traffic into Shutdown and
// expects no panic, deadlock, or lost worker.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := []*dfg.Graph{chainGraph(), pairsGraph(), diamondGraph(), wideGraph()}[rng.Intn(4)]
				data, _ := json.Marshal(SolveRequest{Graph: mustMarshal(g), Board: "small"})
				// Errors are fine here: the server is being torn down under us.
				if resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(data)); err == nil {
					resp.Body.Close()
				}
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond)
	svc.Shutdown()
	close(stop)
	wg.Wait()
	// After shutdown, new work is refused cleanly.
	code, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: marshalGraph(t, wideGraph()), Board: "small"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown solve: HTTP %d, want 503", code)
	}
}
