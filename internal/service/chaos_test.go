//go:build faultinject

// Chaos suite: runs only under `go test -tags faultinject` (make chaos).
// Each test arms named fault points and proves the service's robustness
// invariants hold while they fire: the daemon keeps serving correct
// results, the metrics stay consistent, and the cache is never poisoned.

package service

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/tempart"
)

// TestChaosWorkerPanicIsolation is the acceptance scenario: one armed
// panic fires inside exactly one of two concurrent solves. That request
// fails alone; the concurrent one solves to optimality, and the daemon
// keeps serving afterwards.
func TestChaosWorkerPanicIsolation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Workers: 2})

	faultinject.Arm(faultinject.WorkerPanic, 1)
	graphs := [][]byte{marshalGraph(t, chainGraph()), marshalGraph(t, wideGraph())}
	codes := make([]int, len(graphs))
	bodies := make([][]byte, len(graphs))
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g []byte) {
			defer wg.Done()
			codes[i], bodies[i] = postJSON(t, ts.URL+"/v1/solve",
				SolveRequest{Graph: g, Board: "small"})
		}(i, g)
	}
	wg.Wait()

	panicked, solved := 0, 0
	for i := range codes {
		switch codes[i] {
		case http.StatusInternalServerError:
			if !strings.Contains(string(bodies[i]), "panic") {
				t.Fatalf("500 without a panic message: %s", bodies[i])
			}
			panicked++
		case http.StatusOK:
			var res Result
			mustUnmarshal(t, bodies[i], &res)
			if !res.Optimal {
				t.Fatalf("surviving request not optimal: %+v", res)
			}
			solved++
		default:
			t.Fatalf("unexpected code %d: %s", codes[i], bodies[i])
		}
	}
	if panicked != 1 || solved != 1 {
		t.Fatalf("panicked=%d solved=%d, want exactly one of each", panicked, solved)
	}

	// The daemon is still up: the previously-panicked graph now solves.
	for _, g := range graphs {
		code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Graph: g, Board: "small"})
		if code != http.StatusOK {
			t.Fatalf("post-panic solve code %d: %s", code, body)
		}
	}
	assertMetric(t, ts.URL, "sparcsd_worker_panics_total 1")
}

// TestChaosCacheNeverPoisoned: an injected canonical-transfer verification
// failure on a cache hit must fall back to a fresh solve with the correct
// answer — the bad transfer is never served, and the cache entry keeps
// working afterwards.
func TestChaosCacheNeverPoisoned(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	svc, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Graph: marshalGraph(t, pairsGraph()), Board: "small"}

	code, body := postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("seed solve code %d: %s", code, body)
	}
	var seed Result
	mustUnmarshal(t, body, &seed)

	faultinject.Arm(faultinject.CacheVerifyFail, 1)
	code, body = postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("verify-faulted solve code %d: %s", code, body)
	}
	var faulted Result
	mustUnmarshal(t, body, &faulted)
	if faulted.Cache != string(OriginMiss) {
		t.Fatalf("verify-faulted solve origin %q, want fresh miss", faulted.Cache)
	}
	if faulted.N != seed.N || faulted.LatencyNS != seed.LatencyNS || !faulted.Optimal {
		t.Fatalf("fallback solve diverged: %+v vs %+v", faulted, seed)
	}
	if got := svc.cache.Stats().RemapFallbacks; got != 1 {
		t.Fatalf("remap fallbacks = %d, want 1", got)
	}
	if fired := faultinject.Fired(faultinject.CacheVerifyFail); fired != 1 {
		t.Fatalf("cache-verify fault fired %d times, want 1", fired)
	}

	// The shot is spent: the next request is a clean, correct hit.
	code, body = postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("post-fault solve code %d", code)
	}
	var hit Result
	mustUnmarshal(t, body, &hit)
	if hit.Cache != string(OriginHit) || hit.LatencyNS != seed.LatencyNS {
		t.Fatalf("post-fault hit diverged: %+v", hit)
	}
	assertMetric(t, ts.URL, "sparcsd_cache_remap_fallbacks_total 1")
}

// TestChaosSlowSolveDeadlineFallback: an artificially slow ILP solve blows
// a short deadline with no incumbent; the service degrades to the greedy
// fallback — HTTP 200, labeled, finite gap — and caches nothing.
func TestChaosSlowSolveDeadlineFallback(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	svc, ts := newTestServer(t, Config{Workers: 2})

	faultinject.ArmDelay(faultinject.SlowSolve, 1, 2*time.Second)
	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Graph: marshalGraph(t, chainGraph()), Board: "small", DeadlineMS: 60,
	})
	if code != http.StatusOK {
		t.Fatalf("slow-solve deadline code %d: %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline request took %v", elapsed)
	}
	var res Result
	mustUnmarshal(t, body, &res)
	if !res.Partial || !res.Fallback {
		t.Fatalf("slow-solve result not a labeled fallback: %+v", res)
	}
	if res.LatencyBoundNS <= 0 || res.GapNS < 0 {
		t.Fatalf("fallback bound/gap inconsistent: bound=%g gap=%g",
			res.LatencyBoundNS, res.GapNS)
	}
	if n := svc.cache.Stats().Entries; n != 0 {
		t.Fatalf("fallback result leaked into the cache (%d entries)", n)
	}
	assertMetric(t, ts.URL, "sparcsd_fallback_solves_total 1")
	assertMetric(t, ts.URL, "sparcsd_solve_timeouts_total 1")
}

// TestChaosLUFaultsStillCorrect: with the LU refactor fault point firing
// on every opportunity — reinversions failing — the simplex falls back to
// its handled recovery path and the service still returns the exact
// optimum.
func TestChaosLUFaultsStillCorrect(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Graph: hardGraphJSON(t), Board: "small", Formulation: tempart.FormulationRows,
		NoSymmetryBreaking: true, DeadlineMS: 400}

	// Clean anytime baseline first (deadline keeps the hard instance
	// bounded; correctness here means feasible with a sound bound).
	code, body := postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("clean solve code %d: %s", code, body)
	}

	// Finite shot counts: a factor that can NEVER be rebuilt degrades each
	// LP solve far past the point the per-node deadline check can bound
	// (an extreme no real fault produces); 100 firings exercise the
	// recovery path while keeping the lane fast.
	faultinject.Arm(faultinject.LURefactorFail, 100)
	code, body = postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("LU-faulted solve code %d: %s", code, body)
	}
	var res Result
	mustUnmarshal(t, body, &res)
	if !res.Partial && !res.Optimal {
		t.Fatalf("LU-faulted solve neither optimal nor partial: %+v", res)
	}
	if res.N <= 0 || res.LatencyNS <= 0 {
		t.Fatalf("LU-faulted solve degenerate: %+v", res)
	}
	if faultinject.Fired(faultinject.LURefactorFail) == 0 {
		t.Fatal("the LU refactor fault point never fired; the hook is dead")
	}

	// A small exactly-solvable graph under the same faults must still hit
	// the true optimum. A finite shot count (50 firings, far more than the
	// recovery path needs to be exercised) keeps the forced cold solves
	// from dominating the lane's wall-clock.
	faultinject.Disarm(faultinject.LURefactorFail)
	g := wideGraph()
	wantN, wantLat := directOptimum(t, g)
	faultinject.Arm(faultinject.LURefactorFail, 50)
	code, body = postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Graph: marshalGraph(t, g), Board: "small", NoCache: true})
	if code != http.StatusOK {
		t.Fatalf("LU-faulted wide solve code %d: %s", code, body)
	}
	var wres Result
	mustUnmarshal(t, body, &wres)
	if !wres.Optimal || wres.N != wantN || wres.LatencyNS != wantLat {
		t.Fatalf("LU-faulted optimum diverged: got (N=%d, lat=%g, opt=%v), want (N=%d, lat=%g)",
			wres.N, wres.LatencyNS, wres.Optimal, wantN, wantLat)
	}
}

// assertMetric fetches /metrics and requires the given sample line.
func assertMetric(t *testing.T, baseURL, want string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}
