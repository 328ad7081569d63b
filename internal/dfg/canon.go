package dfg

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
)

// This file implements canonical structure hashing of task graphs, the key
// ingredient of the solve memoization in internal/service: two graphs that
// differ only in task names and in the order tasks and edges were added
// produce the same hash, so isomorphic requests share one cache entry. The
// scheme is iterative Weisfeiler-Leman color refinement over name-free task
// attributes, with edge data counts folded into the neighborhood signatures
// (cf. the path-signature DAG keys of the nonenumerative k-longest-paths
// literature): each task starts from a hash of its local costs and
// repeatedly absorbs the sorted multiset of (edge data, neighbor signature)
// pairs on both sides until the signature partition stops refining.
// Canonical derives both products of the scheme from that one refinement:
// the structure hash that keys the cache and the canonical task order that
// transfers a cached assignment onto the requesting graph. The service
// calls it once per request, for the key and the transfer alike.
//
// WL refinement cannot distinguish every pair of non-isomorphic graphs in
// theory, but with edge weights and the rich per-task attribute tuple the
// known counterexamples (large regular unlabeled graphs) do not arise in
// task-graph workloads; any collision is caught downstream because cached
// assignments are re-verified against the requesting graph before reuse.

// Canonical returns the graph's canonical structure hash and canonical
// task order, both derived from one WL refinement.
//
// The hash is a hex-encoded SHA-256 digest of the graph's structure that
// is invariant under task renaming and under reordering of task and edge
// insertion, and (modulo WL limitations, see above) differs for any
// structural change: task attributes, edge endpoints, or edge data. The
// graph Name is deliberately excluded.
//
// The order is a permutation of task indices: position i holds the task
// index that canonically comes i-th. It sorts the stable WL signatures
// with topological depth as a tie-break, so it is invariant under renaming
// and reordering except between WL-equivalent tasks (which are, for all
// practical task graphs, interchangeable — ties fall back to input order).
// internal/service uses it to transfer a cached partition assignment onto
// an isomorphic request graph; the transfer is always re-verified with
// tempart.CheckFeasible, so a pathological tie can cost a cache re-solve
// but never a wrong answer.
func (g *Graph) Canonical() (hash string, order []int) {
	sigs := g.refineSigs()
	return g.structureHash(sigs), g.canonicalOrder(sigs)
}

// refineSigs runs WL color refinement and returns the stable per-task
// signatures. Rounds stop when the number of distinct signatures no longer
// grows (or after NumTasks rounds, the refinement diameter bound). Every
// signature is the first 8 bytes of the SHA-256 of a message assembled in
// one reused buffer.
func (g *Graph) refineSigs() []uint64 {
	n := len(g.tasks)
	var msg []byte
	sigs := make([]uint64, n)
	for i, t := range g.tasks {
		msg = appendTaskAttrs(msg[:0], t)
		sigs[i] = digest64(msg)
	}
	predData, succData := g.adjacencyData()
	next := make([]uint64, n)
	scratch := make([]uint64, n)
	var pairs [][2]uint64
	prev := distinct(sigs, scratch)
	for round := 0; round < n; round++ {
		for i := range g.tasks {
			msg = binary.BigEndian.AppendUint64(msg[:0], sigs[i])
			msg, pairs = appendNeighborhood(msg, pairs, g.pred[i], predData[i], sigs)
			msg, pairs = appendNeighborhood(msg, pairs, g.succ[i], succData[i], sigs)
			next[i] = digest64(msg)
		}
		sigs, next = next, sigs
		if d := distinct(sigs, scratch); d == prev {
			break
		} else {
			prev = d
		}
	}
	return sigs
}

// adjacencyData returns the data units of every adjacency entry: the edge
// from pred[i][k] carries predData[i][k] units, the edge to succ[i][k]
// succData[i][k]. AddEdgeByID appends each edge to g.edges, g.succ and
// g.pred together, so walking g.edges in order fills every list in its
// adjacency order. One array backs all the lists.
func (g *Graph) adjacencyData() (predData, succData [][]int) {
	n := len(g.tasks)
	flat := make([]int, 2*len(g.edges))
	predData, succData = make([][]int, n), make([][]int, n)
	at := 0
	for i := range g.tasks {
		predData[i] = flat[at : at : at+len(g.pred[i])]
		at += len(g.pred[i])
		succData[i] = flat[at : at : at+len(g.succ[i])]
		at += len(g.succ[i])
	}
	for _, e := range g.edges {
		predData[e.To] = append(predData[e.To], e.Data)
		succData[e.From] = append(succData[e.From], e.Data)
	}
	return predData, succData
}

// appendTaskAttrs appends the name-free local attributes of a task.
func appendTaskAttrs(msg []byte, t *Task) []byte {
	msg = append(msg, t.Type...)
	msg = append(msg, 0)
	msg = binary.BigEndian.AppendUint64(msg, uint64(t.Resources))
	msg = binary.BigEndian.AppendUint64(msg, math.Float64bits(t.Delay))
	msg = binary.BigEndian.AppendUint64(msg, uint64(t.ReadEnv))
	msg = binary.BigEndian.AppendUint64(msg, uint64(t.WriteEnv))
	if len(t.Extra) == 0 {
		return msg
	}
	kinds := make([]string, 0, len(t.Extra))
	for k := range t.Extra {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		msg = append(msg, k...)
		msg = append(msg, 0)
		msg = binary.BigEndian.AppendUint64(msg, uint64(t.Extra[k]))
	}
	return msg
}

// appendNeighborhood appends one side of a task's neighborhood: its size,
// then the sorted (edge data, neighbor signature) pairs. pairs is scratch
// space, returned for reuse.
func appendNeighborhood(msg []byte, pairs [][2]uint64, nbs, data []int, sigs []uint64) ([]byte, [][2]uint64) {
	pairs = pairs[:0]
	for k, nb := range nbs {
		pairs = append(pairs, [2]uint64{uint64(data[k]), sigs[nb]})
	}
	slices.SortFunc(pairs, func(a, b [2]uint64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	msg = binary.BigEndian.AppendUint64(msg, uint64(len(pairs)))
	for _, p := range pairs {
		msg = binary.BigEndian.AppendUint64(msg, p[0])
		msg = binary.BigEndian.AppendUint64(msg, p[1])
	}
	return msg, pairs
}

func digest64(msg []byte) uint64 {
	sum := sha256.Sum256(msg)
	return binary.BigEndian.Uint64(sum[:8])
}

// distinct counts the distinct signatures, sorting a copy in scratch.
func distinct(sigs, scratch []uint64) int {
	copy(scratch, sigs)
	slices.Sort(scratch)
	return len(slices.Compact(scratch))
}

// structureHash digests the sorted signature multiset and the sorted
// (from, to, data) signature triples of the edges.
func (g *Graph) structureHash(sigs []uint64) string {
	final := slices.Clone(sigs)
	slices.Sort(final)

	type etriple struct{ from, to, data uint64 }
	ets := make([]etriple, 0, len(g.edges))
	for _, e := range g.edges {
		ets = append(ets, etriple{sigs[e.From], sigs[e.To], uint64(e.Data)})
	}
	slices.SortFunc(ets, func(a, b etriple) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.data, b.data)
	})

	msg := make([]byte, 0, 8*(2+len(final)+3*len(ets)))
	msg = binary.BigEndian.AppendUint64(msg, uint64(len(g.tasks)))
	msg = binary.BigEndian.AppendUint64(msg, uint64(len(g.edges)))
	for _, s := range final {
		msg = binary.BigEndian.AppendUint64(msg, s)
	}
	for _, e := range ets {
		msg = binary.BigEndian.AppendUint64(msg, e.from)
		msg = binary.BigEndian.AppendUint64(msg, e.to)
		msg = binary.BigEndian.AppendUint64(msg, e.data)
	}
	sum := sha256.Sum256(msg)
	return hex.EncodeToString(sum[:])
}

// canonicalOrder sorts task indices by topological depth, then signature;
// the sort is stable, so ties keep input order.
func (g *Graph) canonicalOrder(sigs []uint64) []int {
	n := len(g.tasks)
	depth := make([]int, n)
	if order, err := g.TopoOrder(); err == nil {
		for _, v := range order {
			for _, s := range g.succ[v] {
				if depth[v]+1 > depth[s] {
					depth[s] = depth[v] + 1
				}
			}
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	slices.SortStableFunc(out, func(a, b int) int {
		if c := cmp.Compare(depth[a], depth[b]); c != 0 {
			return c
		}
		return cmp.Compare(sigs[a], sigs[b])
	})
	return out
}
