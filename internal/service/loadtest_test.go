package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dfg"
)

// TestLoadSmoke fires ~100 concurrent requests at an in-process server (the
// `make loadtest` target). Unlike the batch acceptance test, every request
// is its own HTTP round trip, so this exercises the full connection →
// scheduler → singleflight path under real goroutine-per-conn concurrency.
func TestLoadSmoke(t *testing.T) {
	svc := New(Config{Workers: 4, QueueCap: 256})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Shutdown()
	}()

	graphs := []*dfg.Graph{chainGraph(), pairsGraph(), diamondGraph(), wideGraph()}
	bodies := make([][]byte, len(graphs))
	for i, g := range graphs {
		data, err := json.Marshal(SolveRequest{Graph: mustMarshal(g), Board: "small"})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}

	const requests = 100
	var wg sync.WaitGroup
	var ok, failed atomic.Int32
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
				bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				failed.Add(1)
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
				t.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, body)
				return
			}
			var res Result
			if err := json.Unmarshal(body, &res); err != nil || res.N == 0 {
				failed.Add(1)
				t.Errorf("request %d: bad result (%v): %s", i, err, body)
				return
			}
			ok.Add(1)
		}(i)
	}
	wg.Wait()
	if ok.Load() != requests {
		t.Fatalf("%d/%d requests succeeded (%d failed)", ok.Load(), requests, failed.Load())
	}
	st := svc.cache.Stats()
	if st.Misses != uint64(len(graphs)) {
		t.Errorf("want %d solver misses, got %+v", len(graphs), st)
	}
	if rate := st.HitRate(); rate < 0.9 {
		t.Errorf("cache/singleflight hit rate %.2f < 0.9 under load (%+v)", rate, st)
	}
	t.Logf("loadtest: %d requests, cache %+v, hit rate %.2f", requests, st, st.HitRate())
}
