package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// solveRequest is what every workload sends: a graph and a board preset,
// plus the options its instance family is documented with.
type solveRequest struct {
	Graph         json.RawMessage `json:"graph"`
	Board         string          `json:"board"`
	Formulation   string          `json:"formulation,omitempty"`
	MaxPartitions int             `json:"max_partitions,omitempty"`
	DeadlineMS    int             `json:"deadline_ms,omitempty"`
}

// call is one HTTP request: a single POST /v1/solve, or a POST /v1/batch
// carrying every view.
type call struct {
	views      []*view
	batch      bool
	deadlineMS int
}

func (c *call) encode() (path string, body []byte) {
	reqs := make([]solveRequest, len(c.views))
	for i, v := range c.views {
		k := v.in.knobs
		reqs[i] = solveRequest{Graph: v.graph, Board: v.in.board.name, Formulation: k.formulation,
			MaxPartitions: k.maxPartitions, DeadlineMS: c.deadlineMS}
	}
	var err error
	if c.batch {
		path = "/v1/batch"
		body, err = json.Marshal(struct {
			Requests []solveRequest `json:"requests"`
		}{reqs})
	} else {
		path = "/v1/solve"
		body, err = json.Marshal(reqs[0])
	}
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return path, body
}

// deadlineMS is the anytime budget of the patterns workload, a quarter of
// the README's 200 ms example: at 200 ms the few cut-off requests take so
// much of a run's time that how many a seed draws sets its throughput.
const deadlineMS = 50

// inputs is the state every client of one run draws from.
type inputs struct {
	pool    []*view      // relabeled views of the working set, read-only
	offsets atomic.Int64 // DCT delay offsets: no two DCTs of a run are alike
}

// source hands one client its calls. Every choice comes from rng or the
// run's offset counter, both fixed by --seed, so a seed fixes the inputs.
type source struct {
	*inputs
	rng *rand.Rand
	i   int
}

// workload is one traffic mix: how many closed-loop clients send it, and
// the generator of a client's next call.
type workload struct {
	clients int
	cached  bool // the working set is put in the cache before the window
	next    func(s *source) *call
}

// workloads maps a workload name to its traffic. The instance families
// are the ones the repository documents: tgen layered DAGs of the README's
// size with the README's formulation and deadline knobs, the paper's DCT,
// and the hard-instance portfolio's families, each drawn fresh per
// request. The proportions, client counts and batch shape are choices of
// this benchmark, not measured traffic. The fresh-solve mixes run two
// clients, enough to keep both daemon workers busy; the sub-millisecond
// cache paths run one, since on a small machine a second client mostly
// adds CPU contention noise.
var workloads = map[string]workload{
	// The branch-and-price path under an anytime budget, every request a
	// new structure with formulation "patterns" and deadline_ms 50: two
	// thirds the portfolio's 90-108-task chain-of-blocks matchings, whose
	// solve times are narrow enough that the median and p90 land inside
	// them, one third tgen layered DAGs of the README's 16 tasks. Most
	// requests finish well inside the budget (the median is not cut off);
	// a few percent of the layered DAGs come back as anytime incumbents.
	"patterns": {2, false, func(s *source) *call {
		return single(canonical(s.patterns(s.i)), deadlineMS)
	}},
	// The default row model with no knobs, every request a new instance of
	// the portfolio's 9-task chain family: presolve, relax-N probes, model
	// build, root cuts and branch-and-bound search each time. (Its search
	// times spread over some four octaves; the 10-task chains add a fifth,
	// which makes the median of a run drift with the draw.)
	"rows": {2, false, func(s *source) *call {
		return single(canonical(chainInstance(s.rng, 9)), 0)
	}},
	// Isomorphic renamings of a working set the cache already holds, eight
	// to a /v1/batch call: per item decode, canonical hash, lookup, transfer
	// and re-verification, no solve. (Single sub-millisecond requests read
	// mostly loopback wake-up latency, which swings with outside load far
	// more than the server's own work does.)
	"hit": {1, true, func(s *source) *call {
		c := &call{batch: true}
		for k := 0; k < 8; k++ {
			c.views = append(c.views, s.hit())
		}
		return c
	}},
	// Batches of 8: five cache hits, one fresh packing instance, and one
	// fresh DCT sent twice, so the pair meets in the singleflight or the
	// cache.
	"batch": {1, true, func(s *source) *call {
		c := &call{batch: true}
		for k := 0; k < 5; k++ {
			c.views = append(c.views, s.hit())
		}
		dct := s.dct()
		c.views = append(c.views, relabel(packInstance(s.rng, 12), s.rng),
			relabel(dct, s.rng), relabel(dct, s.rng))
		s.rng.Shuffle(len(c.views), func(a, b int) { c.views[a], c.views[b] = c.views[b], c.views[a] })
		return c
	}},
}

func single(v *view, deadline int) *call { return &call{views: []*view{v}, deadlineMS: deadline} }

func (s *source) hit() *view { return s.pool[s.rng.Intn(len(s.pool))] }

func (s *source) dct() *instance { return dctInstance(int(s.offsets.Add(1))) }

// patterns returns a new instance for the branch-and-price path: for k%3
// = 0 a 16-task tgen layered DAG, otherwise a chain-of-blocks.
func (s *source) patterns(k int) *instance {
	if k%3 != 0 {
		return chainBlocksInstance(s.rng)
	}
	in := layeredInstance(16, s.rng.Int63())
	in.knobs.formulation = "patterns"
	return in
}

// newInputs prepares the run's working set: sixteen structures each of
// the DCT, packing, chain and layered families (a hit's cost grows with its
// graph, so many structures keep a seed's draw near the average), each
// rendered as four differently named views. Chain-of-blocks matchings are left out: their
// many interchangeable blocks make sparcsd's canonical transfer fail
// verification on some renamings, which then solve afresh, so how many a
// seed's views hit would set the workload's latency. It returns the canonical
// view of each structure, for filling the cache.
func newInputs(rng *rand.Rand) (*inputs, []*view) {
	r := &inputs{}
	r.offsets.Store(int64(rng.Intn(100000)))
	s := &source{inputs: r, rng: rng}
	var fill []*view
	for k := 0; k < 64; k++ {
		var in *instance
		switch k % 4 {
		case 0:
			in = s.dct()
		case 1:
			in = packInstance(rng, 12+rng.Intn(7))
		case 2:
			in = chainInstance(rng, 9+rng.Intn(2))
		default:
			in = s.patterns(0)
		}
		fill = append(fill, canonical(in))
		for j := 0; j < 4; j++ {
			r.pool = append(r.pool, relabel(in, rng))
		}
	}
	return r, fill
}

// stats accumulates one client's observations.
type stats struct {
	t0         time.Time // start of the window
	callMS     []float64 // call latency as the client sees it
	endS       []float64 // when each call completed, seconds after t0
	callItems  []int     // answers each call carried
	overheadMS []float64 // call latency minus the slowest item's server solve_ms
	solveMS    []float64 // server-reported solve_ms per item
	overrunMS  []float64 // partial items: solve_ms past the deadline
	gapPct     []float64 // partial items: gap as a percentage of the latency
	answers    []answer  // every answer, checked after the traffic
	items      int
	failed     int
	fresh      int // items answered by a fresh solve (cache "miss")
	nodes      int // B&B nodes over fresh items
	lpIters    int // simplex pivots over fresh items
	proven     int // answers marked optimal
	badChecks  int
	firstErr   string
}

// answer is one result with the view it answers.
type answer struct {
	v *view
	r *result
}

func (st *stats) merge(o *stats) {
	st.callMS = append(st.callMS, o.callMS...)
	st.endS = append(st.endS, o.endS...)
	st.callItems = append(st.callItems, o.callItems...)
	st.overheadMS = append(st.overheadMS, o.overheadMS...)
	st.solveMS = append(st.solveMS, o.solveMS...)
	st.overrunMS = append(st.overrunMS, o.overrunMS...)
	st.gapPct = append(st.gapPct, o.gapPct...)
	st.answers = append(st.answers, o.answers...)
	st.items += o.items
	st.failed += o.failed
	st.fresh += o.fresh
	st.nodes += o.nodes
	st.lpIters += o.lpIters
	st.proven += o.proven
	st.badChecks += o.badChecks
	if st.firstErr == "" {
		st.firstErr = o.firstErr
	}
}

func (st *stats) fail(items int, err error) {
	st.failed += items
	if st.firstErr == "" {
		st.firstErr = err.Error()
	}
}

// checkAll checks every answer collected so far against its instance.
// It runs after the traffic, so computing optima never competes with the
// daemon for the CPU while it is being timed.
func (st *stats) checkAll() {
	for _, a := range st.answers {
		if err := a.v.check(a.r); err != nil {
			st.badChecks++
			if st.firstErr == "" {
				st.firstErr = err.Error()
			}
		}
	}
	st.answers = nil
}

// do sends one call, times it, and records every answer for checkAll.
func (st *stats) do(ctx context.Context, hc *http.Client, base string, c *call) {
	path, body := c.encode()
	st.items += len(c.views)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		st.fail(len(c.views), err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		st.fail(len(c.views), err)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		st.fail(len(c.views), err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		st.fail(len(c.views), fmt.Errorf("%s: HTTP %d: %.200s", path, resp.StatusCode, raw))
		return
	}
	results := make([]*result, len(c.views))
	answered := len(c.views)
	if c.batch {
		var br struct {
			Items []struct {
				Result *result `json:"result"`
				Error  string  `json:"error"`
			} `json:"items"`
		}
		if err := json.Unmarshal(raw, &br); err != nil || len(br.Items) != len(c.views) {
			st.fail(len(c.views), fmt.Errorf("batch: undecodable response (%v)", err))
			return
		}
		for i, it := range br.Items {
			results[i] = it.Result
			if it.Result == nil {
				answered--
				st.fail(1, fmt.Errorf("batch item: %s", it.Error))
			}
		}
	} else {
		results[0] = new(result)
		if err := json.Unmarshal(raw, results[0]); err != nil {
			st.fail(1, fmt.Errorf("solve: undecodable response: %v", err))
			return
		}
	}
	st.callMS = append(st.callMS, ms)
	st.endS = append(st.endS, time.Since(st.t0).Seconds())
	st.callItems = append(st.callItems, answered)
	slowest := 0.0
	for i, r := range results {
		if r == nil {
			continue
		}
		st.answers = append(st.answers, answer{c.views[i], r})
		st.solveMS = append(st.solveMS, r.SolveMS)
		if r.SolveMS > slowest {
			slowest = r.SolveMS
		}
		if r.Cache == "miss" {
			st.fresh++
			st.nodes += r.Nodes
			st.lpIters += r.LPIterations
		}
		if r.Optimal {
			st.proven++
		}
		if r.Partial {
			st.overrunMS = append(st.overrunMS, r.SolveMS-float64(c.deadlineMS))
			st.gapPct = append(st.gapPct, 100*r.GapNS/r.LatencyNS)
		}
	}
	st.overheadMS = append(st.overheadMS, ms-slowest)
}

// drive runs one closed-loop caller per source (each sends its next call
// when the previous one has been answered) until the window closes, and
// returns their merged stats and the wall time until the last answer
// arrived.
func drive(ctx context.Context, hc *http.Client, base string, next func(*source) *call,
	srcs []*source, window time.Duration) (*stats, time.Duration) {

	start := time.Now()
	until := start.Add(window)
	per := make([]stats, len(srcs))
	var wg sync.WaitGroup
	for k := range srcs {
		per[k].t0 = start
		wg.Add(1)
		go func(s *source, st *stats) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				st.do(ctx, hc, base, next(s))
				s.i++
			}
		}(srcs[k], &per[k])
	}
	wg.Wait()
	wall := time.Since(start)
	all := &stats{}
	for k := range per {
		all.merge(&per[k])
	}
	return all, wall
}

// slices cuts the window into ten equal slices by completion time and
// returns the latencies and the number of items completed in each.
func (st *stats) slices(wall time.Duration) (lat [][]float64, items []int) {
	const k = 10
	lat, items = make([][]float64, k), make([]int, k)
	for i, end := range st.endS {
		j := min(int(end/wall.Seconds()*k), k-1)
		lat[j] = append(lat[j], st.callMS[i])
		items[j] += st.callItems[i]
	}
	return lat, items
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
