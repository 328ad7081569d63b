package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"sync"

	"repro/internal/arch"
	"repro/internal/faultinject"
	"repro/internal/tempart"
)

// CacheKey derives the canonical memoization key of a request: the
// structure hash of the normalized task graph (invariant under task
// renaming and task/edge reordering, see dfg.Graph.Canonical), the full board
// parameters, the engine, and every solver knob that can change the
// reported result. Trace and TraceSink are excluded: tracing observes a
// solve without changing it (traced requests bypass the cache entirely,
// but their key — were one computed — must equal the untraced key so they
// could never shadow or split a memo entry).
func (r *Request) CacheKey() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	puts := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	hash, _ := r.canonical()
	puts(hash)
	hashBoard(put, puts, r.Board)
	puts(r.Engine)
	put(uint64(r.MaxPartitions))
	// Formulation changes the search shape (rows vs branch-and-price),
	// hence which optimum ties break to and the reported stats — keyed.
	puts(r.Formulation)
	if r.NoSymmetryBreaking {
		put(1)
	} else {
		put(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashBoard folds every result-relevant board parameter into the key (the
// preset name alone would alias distinct custom boards).
func hashBoard(put func(uint64), puts func(string), b arch.Board) {
	put(uint64(b.FPGA.CLBs))
	put(math.Float64bits(b.FPGA.ReconfigTime))
	put(math.Float64bits(b.FPGA.MinClockNS))
	if b.FPGA.PartialReconfig {
		put(1)
	} else {
		put(0)
	}
	kinds := make([]string, 0, len(b.FPGA.ExtraCapacity))
	for k := range b.FPGA.ExtraCapacity {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		puts(k)
		put(uint64(b.FPGA.ExtraCapacity[k]))
	}
	put(uint64(b.Memory.Words))
	put(uint64(b.Memory.WordBits))
	put(math.Float64bits(b.Memory.AccessNS))
	put(math.Float64bits(b.Link.WordTransferNS))
	put(math.Float64bits(b.Link.StartSignalNS))
	put(math.Float64bits(b.Link.FinishSignalNS))
	put(math.Float64bits(b.Link.ConfigLoadNS))
}

// entry is a memoized solve outcome, stored in canonical task order so it
// can be transferred onto any isomorphic request graph.
type entry struct {
	n       int
	optimal bool
	// assignCanon[i] is the partition of the task at canonical position i
	// (dfg.Graph.Canonical) of the solved graph.
	assignCanon []int
	latencyNS   float64
	// formulation is the model the original solve ran, echoed on hits
	// (the search counters are not kept: a hit did no search of its own).
	formulation string
}

// newEntry canonicalizes a partitioning of req's graph into a cache entry.
func newEntry(req *Request, p *tempart.Partitioning) *entry {
	e := &entry{
		n:           p.N,
		optimal:     p.Optimal,
		latencyNS:   p.Latency,
		formulation: p.Stats.Formulation,
	}
	if p.N > 0 {
		_, ord := req.canonical()
		e.assignCanon = make([]int, len(ord))
		for pos, t := range ord {
			e.assignCanon[pos] = p.Assign[t]
		}
	}
	return e
}

// apply transfers the cached result onto req's graph via its canonical
// order and re-verifies it: the assignment must be feasible and reproduce
// the cached optimum latency. An error means the graphs collided or WL ties
// were not interchangeable — the caller must fall back to a fresh solve
// (this guards correctness against the theoretical imperfection of WL
// hashing; it never silently serves a wrong answer). The transferred
// partitioning reports zero search counters: this call did no search.
func (e *entry) apply(req *Request) (*tempart.Partitioning, error) {
	if faultinject.Fire(faultinject.CacheVerifyFail) {
		return nil, fmt.Errorf("service: injected cache verification failure")
	}
	g := req.Graph
	if e.n == 0 {
		if g.NumTasks() != 0 {
			return nil, fmt.Errorf("service: cached empty result for non-empty graph")
		}
		return &tempart.Partitioning{}, nil
	}
	if len(e.assignCanon) != g.NumTasks() {
		return nil, fmt.Errorf("service: cached assignment has %d tasks, graph has %d",
			len(e.assignCanon), g.NumTasks())
	}
	_, ord := req.canonical()
	assign := make([]int, g.NumTasks())
	for pos, t := range ord {
		assign[t] = e.assignCanon[pos]
	}
	if err := tempart.CheckFeasible(g, req.Board, assign, e.n); err != nil {
		return nil, fmt.Errorf("service: cached assignment infeasible on request graph: %w", err)
	}
	delays := tempart.EvaluateDelays(g, assign, e.n)
	lat := tempart.Latency(req.Board, delays)
	if math.Abs(lat-e.latencyNS) > 1e-6*(1+math.Abs(e.latencyNS)) {
		return nil, fmt.Errorf("service: cached latency %g != re-evaluated %g", e.latencyNS, lat)
	}
	return &tempart.Partitioning{
		N: e.n, Assign: assign, Delays: delays, Latency: lat, Optimal: e.optimal,
		Stats: tempart.SolveStats{N: e.n, Formulation: e.formulation},
	}, nil
}

// Origin reports how the cache produced a result.
type Origin string

const (
	// OriginMiss: this caller ran the solve.
	OriginMiss Origin = "miss"
	// OriginHit: served from the memo cache.
	OriginHit Origin = "hit"
	// OriginShared: deduplicated onto an identical in-flight solve.
	OriginShared Origin = "shared"
)

// CacheStats is a snapshot of cache activity.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared"`
	Evictions uint64 `json:"evictions"`
	// RemapFallbacks counts hits whose canonical transfer failed
	// verification and fell back to a fresh solve.
	RemapFallbacks uint64 `json:"remap_fallbacks"`
	Entries        int    `json:"entries"`
}

// HitRate returns (hits+shared) / lookups, the headline metric.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Shared
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// flight is one in-flight solve shared by all waiters with the same key.
// The solve runs in its own goroutine under a context that is cancelled
// only when every waiter has abandoned it, so one cancelled job never
// aborts the solve other identical requests are waiting on.
type flight struct {
	waiters int
	cancel  context.CancelFunc
	done    chan struct{}
	ent     *entry
	err     error
}

// Cache is the memoizing solve cache: an LRU of canonical entries plus the
// singleflight table. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *lruItem
	entries map[string]*list.Element
	flights map[string]*flight
	stats   CacheStats
}

type lruItem struct {
	key string
	ent *entry
}

// NewCache returns a cache bounded to max entries (<= 0 selects 1024).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 1024
	}
	return &Cache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Stats snapshots cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

func (c *Cache) noteRemapFallback() {
	c.mu.Lock()
	c.stats.RemapFallbacks++
	c.mu.Unlock()
}

// insertLocked stores an entry and evicts the LRU tail past capacity.
func (c *Cache) insertLocked(key string, e *entry) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruItem).ent = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem{key: key, ent: e})
	for len(c.entries) > c.max {
		tail := c.order.Back()
		it := tail.Value.(*lruItem)
		c.order.Remove(tail)
		delete(c.entries, it.key)
		c.stats.Evictions++
	}
}

// Get returns the stored entry for key, counting a hit or a miss. It is
// the lookup half of the deadline-request path, which stays off the
// singleflight: a shared flight solves under a detached context that
// cannot honour a per-request deadline, and a partial result must never
// be handed to other waiters. Cached entries are always complete, so
// serving one to a deadline request is strictly better than any partial.
func (c *Cache) Get(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*lruItem).ent, true
	}
	c.stats.Misses++
	return nil, false
}

// Put stores a complete solve result under key (the store half of the
// deadline-request path; callers must never Put a partial result).
func (c *Cache) Put(key string, e *entry) {
	c.mu.Lock()
	c.insertLocked(key, e)
	c.mu.Unlock()
}

// GetOrSolve returns the entry for key, solving at most once per key across
// all concurrent callers: a stored entry is returned immediately (hit); an
// identical in-flight solve is joined (shared); otherwise solve runs in a
// detached goroutine (miss) whose context is cancelled only when every
// waiter's ctx has been cancelled. Errors are never cached.
func (c *Cache) GetOrSolve(ctx context.Context, key string,
	solve func(context.Context) (*entry, error)) (*entry, Origin, error) {

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		ent := el.Value.(*lruItem).ent
		c.mu.Unlock()
		return ent, OriginHit, nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.stats.Shared++
		c.mu.Unlock()
		return c.wait(ctx, key, f, OriginShared)
	}
	sctx, cancel := context.WithCancel(context.Background())
	f := &flight{waiters: 1, cancel: cancel, done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	go func() {
		ent, err := solve(sctx)
		c.mu.Lock()
		f.ent, f.err = ent, err
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		if err == nil {
			c.insertLocked(key, ent)
		}
		c.mu.Unlock()
		cancel()
		close(f.done)
	}()
	return c.wait(ctx, key, f, OriginMiss)
}

// wait blocks until the flight completes or ctx is cancelled. The last
// waiter to abandon a flight cancels the underlying solve.
func (c *Cache) wait(ctx context.Context, key string, f *flight, origin Origin) (*entry, Origin, error) {
	select {
	case <-f.done:
		return f.ent, origin, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			if c.flights[key] == f {
				delete(c.flights, key)
			}
			f.cancel()
		}
		c.mu.Unlock()
		return nil, origin, ctx.Err()
	}
}
