package main

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"dynstream"
	"dynstream/internal/graph"
)

// The generators below are the benchmark's own: they share no code with
// the program's workload helpers (graph.ConnectedGNP, stream.WithChurn),
// so a change to those cannot silently change the benchmark's inputs,
// and they emit exact update counts, so stream length is not a noise
// source across seeds.

// graphSeed fixes each workload's base graph. The spanner's and the
// sparsifier's table counts follow the cluster structure of the final
// graph, so sketch_words is exact only if that graph does not move with
// the workload seed; the seed drives the churn edges, their order and
// the interleaving instead.
const graphSeed = 0x6ba5e

// rng is SplitMix64; its seed is its only state.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

type pair struct{ u, v int }

func canon(u, v int) pair {
	if u > v {
		u, v = v, u
	}
	return pair{u, v}
}

// edgeSet draws distinct random non-loop pairs.
type edgeSet struct {
	n    int
	r    *rng
	have map[pair]bool
}

// fresh returns a pair that is not in the set and adds it.
func (s *edgeSet) fresh() pair {
	for {
		u, v := s.r.intn(s.n), s.r.intn(s.n)
		if u == v {
			continue
		}
		p := canon(u, v)
		if !s.have[p] {
			s.have[p] = true
			return p
		}
	}
}

// connectedEdges returns exactly m distinct edges forming a connected
// graph on n vertices: a random recursive tree over a random vertex
// order, then random extra edges. m must be at least n-1.
func connectedEdges(n, m int, r *rng) ([]pair, *edgeSet) {
	set := &edgeSet{n: n, r: r, have: make(map[pair]bool, 2*m)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	edges := make([]pair, 0, m)
	for i := 1; i < n; i++ {
		p := canon(order[i], order[r.intn(i)])
		set.have[p] = true
		edges = append(edges, p)
	}
	for len(edges) < m {
		edges = append(edges, set.fresh())
	}
	return edges, set
}

func ins(p pair) dynstream.Update { return dynstream.Update{U: p.u, V: p.v, Delta: 1, W: 1} }
func del(p pair) dynstream.Update { return dynstream.Update{U: p.u, V: p.v, Delta: -1, W: 1} }

// batchInput is one batch workload's generated input.
type batchInput struct {
	stream *dynstream.MemoryStream
	final  *graph.Graph // the graph the stream leaves behind
}

// genBatch builds a dynamic stream of exactly baseEdges + 2*churnPairs
// updates whose final graph is a connected graph with baseEdges edges:
// every base edge is inserted once, and churnPairs further non-edges are
// each inserted and later deleted, all interleaved in random order.
func genBatch(n, baseEdges, churnPairs int, seed uint64) (*batchInput, error) {
	base, set := connectedEdges(n, baseEdges, &rng{s: graphSeed})
	r := &rng{s: seed}
	set.r = r
	type op struct {
		u   dynstream.Update
		pos uint64
	}
	ops := make([]op, 0, baseEdges+2*churnPairs)
	for _, p := range base {
		ops = append(ops, op{ins(p), r.next()})
	}
	for i := 0; i < churnPairs; i++ {
		p := set.fresh()
		a, b := r.next(), r.next()
		if a > b {
			a, b = b, a
		}
		if a == b {
			b++
		}
		ops = append(ops, op{ins(p), a}, op{del(p), b})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	st := dynstream.NewMemoryStream(n)
	for _, o := range ops {
		if err := st.Append(o.u); err != nil {
			return nil, err
		}
	}
	g := graph.New(n)
	for _, p := range base {
		g.AddUnitEdge(p.u, p.v)
	}
	return &batchInput{stream: st, final: g}, nil
}

// serveInput is one serve workload's generated input: a preload that
// leaves baseEdges + window edges in the graph, and a stationary churn
// log that keeps exactly that many.
type serveInput struct {
	n       int
	preload []dynstream.Update
	log     []dynstream.Update
}

// genServe builds the preload (a connected base graph plus `window`
// extra edges, shuffled) and a churn log of logPairs steps. Each step
// inserts one fresh random edge and deletes the oldest extra edge, so
// the live edge count never moves and query cost cannot drift with it.
func genServe(n, baseEdges, window, logPairs int, seed uint64) *serveInput {
	base, set := connectedEdges(n, baseEdges, &rng{s: graphSeed})
	r := &rng{s: seed}
	set.r = r
	extras := make([]pair, 0, window+logPairs)
	for i := 0; i < window; i++ {
		extras = append(extras, set.fresh())
	}
	in := &serveInput{n: n}
	for _, p := range base {
		in.preload = append(in.preload, ins(p))
	}
	for _, p := range extras {
		in.preload = append(in.preload, ins(p))
	}
	for i := len(in.preload) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		in.preload[i], in.preload[j] = in.preload[j], in.preload[i]
	}
	in.log = make([]dynstream.Update, 0, 2*logPairs)
	for i := 0; i < logPairs; i++ {
		p := set.fresh()
		extras = append(extras, p)
		old := extras[i]
		delete(set.have, old)
		in.log = append(in.log, ins(p), del(old))
	}
	return in
}

// digestUpdates fingerprints an update sequence (order included).
func digestUpdates(n int, seqs ...[]dynstream.Update) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(n))
	for _, s := range seqs {
		put(uint64(len(s)))
		for _, u := range s {
			put(uint64(u.U))
			put(uint64(u.V))
			put(uint64(int64(u.Delta)))
		}
	}
	return h.Sum64()
}

// streamUpdates copies a memory stream's updates out.
func streamUpdates(st *dynstream.MemoryStream) []dynstream.Update {
	out := make([]dynstream.Update, 0, st.Len())
	_ = st.Replay(func(u dynstream.Update) error { // the callback never fails
		out = append(out, u)
		return nil
	})
	return out
}
