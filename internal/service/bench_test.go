package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// renamed returns an isomorphic copy of g: every task renamed, tasks and
// edges added in a shuffled order.
func renamed(g *dfg.Graph, rng *rand.Rand, tag int) *dfg.Graph {
	name := func(t int) string { return fmt.Sprintf("v%d_%d", tag, t) }
	ng := dfg.New(g.Name)
	for _, t := range rng.Perm(g.NumTasks()) {
		task := *g.Task(t)
		task.Name = name(t)
		ng.MustAddTask(task)
	}
	edges := g.Edges()
	for _, k := range rng.Perm(len(edges)) {
		e := edges[k]
		ng.MustAddEdge(name(e.From), name(e.To), e.Data)
	}
	return ng
}

// BenchmarkService_Hit measures sparcsd's most common request end to end
// in-process: a /v1/batch call of eight renamed copies of a cache-resident
// working set (the DCT on the paper board, a chain and a pure packing on
// the small board). Each item is decoded, hashed, looked up, transferred
// and re-verified; no item may solve, so the benchmark fails unless every
// answer is a cache hit.
func BenchmarkService_Hit(b *testing.B) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		b.Fatal(err)
	}
	set := []struct {
		g     *dfg.Graph
		board string
	}{{dct, "paper"}, {chainGraph(), "small"}, {wideGraph(), "small"}}
	_, ts := newTestServer(b, Config{Workers: 2})
	for _, s := range set {
		if code, body := postJSON(b, ts.URL+"/v1/solve", SolveRequest{Graph: marshalGraph(b, s.g), Board: s.board}); code != http.StatusOK {
			b.Fatalf("warm-up solve of %s: HTTP %d: %s", s.g.Name, code, body)
		}
	}

	// Sixteen distinct batch bodies, each item a fresh renaming of a
	// working-set member in round-robin order.
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 16)
	for i := range bodies {
		var br batchRequest
		for k := 0; k < 8; k++ {
			s := set[(i*8+k)%len(set)]
			br.Requests = append(br.Requests, SolveRequest{
				Graph: marshalGraph(b, renamed(s.g, rng, i*8+k)), Board: s.board})
		}
		data, err := json.Marshal(br)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = data
	}

	var resp struct {
		Items []struct {
			Result *struct {
				Cache string `json:"cache"`
			} `json:"result"`
			Error string `json:"error"`
		} `json:"items"`
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			b.Fatalf("batch: HTTP %d: %s", r.StatusCode, data)
		}
		resp.Items = resp.Items[:0]
		if err := json.Unmarshal(data, &resp); err != nil {
			b.Fatal(err)
		}
		if len(resp.Items) != 8 {
			b.Fatalf("batch answered %d items, want 8", len(resp.Items))
		}
		for k, it := range resp.Items {
			if it.Error != "" || it.Result == nil || it.Result.Cache != string(OriginHit) {
				b.Fatalf("item %d: error %q, result %+v: want a cache hit", k, it.Error, it.Result)
			}
		}
	}
}
