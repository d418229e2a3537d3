// Package stream defines the dynamic streaming model of the paper: a
// multigraph on n vertices presented as a sequence of edge insertions
// and deletions, with multi-pass replay (the two-pass spanner and
// sparsifier algorithms read the stream twice). It also provides the
// workload generators (insert/delete churn), the weight-class
// partitioning of Remark 14, and the hash-filtered substreams E_j used
// by the sparsification algorithms of Section 6.
package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
)

// Update is one stream element a_k ∈ [n]×[n]×{-1,+1}: Delta=+1 inserts
// a copy of edge {U, V}, Delta=-1 deletes one. W is the weight of the
// edge; per the model (Section 1), weighted streams either add a
// weighted edge or remove it entirely, so W is known at update time.
type Update struct {
	U, V  int
	Delta int
	W     float64
}

// Canon returns the update with U < V.
func (u Update) Canon() Update {
	if u.U > u.V {
		u.U, u.V = u.V, u.U
	}
	return u
}

// Stream is a replayable sequence of updates over a graph on N
// vertices. Replay may be called multiple times (multi-pass model);
// each call visits the same updates in the same order.
type Stream interface {
	N() int
	Replay(fn func(Update) error) error
}

// MemoryStream is an in-memory Stream.
type MemoryStream struct {
	n       int
	updates []Update
}

// NewMemoryStream creates an empty stream over n vertices.
func NewMemoryStream(n int) *MemoryStream {
	return &MemoryStream{n: n}
}

// N returns the number of vertices.
func (s *MemoryStream) N() int { return s.n }

// Len returns the number of updates.
func (s *MemoryStream) Len() int { return len(s.updates) }

// Append adds an update, validating endpoints. The validation (and
// canonicalization) is the shared checkUpdate gate, so a MemoryStream
// holds exactly the updates a streaming source would deliver.
func (s *MemoryStream) Append(u Update) error {
	cu, err := checkUpdate(u, s.n)
	if err != nil {
		return err
	}
	s.updates = append(s.updates, cu)
	return nil
}

// Replay visits every update in order.
func (s *MemoryStream) Replay(fn func(Update) error) error {
	for _, u := range s.updates {
		if err := fn(u); err != nil {
			return err
		}
	}
	return nil
}

// Materialize replays the stream and returns the final graph (net
// multiplicity > 0 means present; the model requires multiplicities to
// stay non-negative, which is validated here).
func Materialize(s Stream) (*graph.Graph, error) {
	mult := map[[2]int]int{}
	weight := map[[2]int]float64{}
	err := s.Replay(func(u Update) error {
		k := [2]int{u.U, u.V}
		mult[k] += u.Delta
		if mult[k] < 0 {
			return fmt.Errorf("stream: negative multiplicity for edge %v", k)
		}
		weight[k] = u.W
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := graph.New(s.N())
	for k, m := range mult {
		if m > 0 {
			g.AddEdge(k[0], k[1], weight[k])
		}
	}
	return g, nil
}

// PairKey encodes the unordered pair {u, v} over n vertices as a uint64
// (canonical u < v order). This is the coordinate index of the edge in
// the (n choose 2)-dimensional vector the paper sketches.
func PairKey(u, v, n int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(n) + uint64(v)
}

// DecodePairKey inverts PairKey.
func DecodePairKey(key uint64, n int) (u, v int) {
	return int(key / uint64(n)), int(key % uint64(n))
}

// FromGraph emits the edges of g as insertions in a pseudorandom order.
func FromGraph(g *graph.Graph, seed uint64) *MemoryStream {
	s := NewMemoryStream(g.N())
	edges := g.Edges()
	rng := hashing.NewSplitMix64(seed)
	for _, i := range rng.Perm(len(edges)) {
		e := edges[i]
		// Appending canonical in-range edges cannot fail.
		_ = s.Append(Update{U: e.U, V: e.V, Delta: 1, W: e.W})
	}
	return s
}

// WithChurn emits a stream whose final graph is g, but which also
// inserts and later deletes `extra` additional random non-edges — the
// adversarial insert/delete workload that distinguishes dynamic
// streaming from insertion-only. The deletions are interleaved randomly
// after their matching insertions.
func WithChurn(g *graph.Graph, extra int, seed uint64) *MemoryStream {
	n := g.N()
	rng := hashing.NewSplitMix64(seed)
	type op struct {
		upd Update
		pos uint64
	}
	var ops []op
	for _, e := range g.Edges() {
		ops = append(ops, op{Update{U: e.U, V: e.V, Delta: 1, W: e.W}, rng.Next()})
	}
	tried := 0
	for added := 0; added < extra && tried < 20*extra+100; tried++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		p1, p2 := rng.Next(), rng.Next()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if p1 == p2 {
			p2++
		}
		ops = append(ops,
			op{Update{U: u, V: v, Delta: 1, W: 1}, p1},
			op{Update{U: u, V: v, Delta: -1, W: 1}, p2})
		added++
	}
	// Stable sort by position: identical output to the insertion sort
	// this replaced, but O(m log m) — million-update churn workloads
	// (the distributed smoke test) generate in milliseconds instead of
	// hours.
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].pos < ops[b].pos })
	s := NewMemoryStream(n)
	for _, o := range ops {
		_ = s.Append(o.upd)
	}
	return s
}

// Filtered wraps a stream, keeping only updates that pass keep. Used
// for the weight classes of Remark 14 and the subsampled edge sets E_j
// of Section 6 (keep is a deterministic function of the edge, so both
// passes see the same substream).
type Filtered struct {
	Base Source
	Keep func(Update) bool
}

// N returns the vertex count of the base stream.
func (f *Filtered) N() int { return f.Base.N() }

// CanReplay forwards the base source's replayability.
func (f *Filtered) CanReplay() bool { return CanReplay(f.Base) }

// ConcurrentReplay forwards the base source's concurrency capability.
func (f *Filtered) ConcurrentReplay() bool { return ConcurrentReplayable(f.Base) }

// Replay visits the updates of the base stream that pass the filter.
func (f *Filtered) Replay(fn func(Update) error) error {
	return f.Base.Replay(func(u Update) error {
		if !f.Keep(u) {
			return nil
		}
		return fn(u)
	})
}

// SampledSubstream returns the substream E_j of edges whose geometric
// hash level is at least j — each edge survives with probability 2^-j,
// deterministically across passes. seed selects the hash function.
func SampledSubstream(base Stream, seed uint64, j int) Stream {
	h := hashing.NewPoly(hashing.Mix(seed, 0xe1), 8)
	n := base.N()
	return &Filtered{
		Base: base,
		Keep: func(u Update) bool {
			return h.Level(PairKey(u.U, u.V, n)) >= j
		},
	}
}

// MaxWeightClass is the largest weight class index a class partition
// may use: the MSF decoder's bound on its class count. WeightClasses
// refuses a stream with a weight above it (ErrTooManyClasses).
const MaxWeightClass = 1 << 16

// ErrTooManyClasses reports a weight whose class index, at the given
// class base, exceeds MaxWeightClass.
var ErrTooManyClasses = errors.New("stream: weight class index exceeds MaxWeightClass")

// WeightClassOf returns the weight class index of w for class base
// (1+gamma): class c contains weights in [base^c, base^(c+1)).
// Weights below 1 are clamped into class 0 together with [1, base).
// Indices above MaxWeightClass read as MaxWeightClass+1 (see
// WeightClassAtMost).
func WeightClassOf(w, base float64) int { return WeightClassAtMost(w, base, MaxWeightClass+1) }

// WeightClassAtMost is min(WeightClassOf(w, base), limit) at a cost of
// at most limit divisions: logarithms settle before the loop runs
// whether the index is well above limit, and the loop stops at limit.
// A base just above 1 would otherwise take ≈ ln(w)/ln(base) divisions
// per weight. Below limit the index is the loop's: the logarithms
// decide only past the loop's own rounding.
func WeightClassAtMost(w, base float64, limit int) int {
	if w < base {
		return 0
	}
	// c divisions are exact to a factor within (1 ± 2^-52)^c, which is
	// at most limit·2^-52/ln(base) classes: the logarithms decide only
	// past that margin plus two classes.
	if lb := math.Log(base); lb > 0 && math.Log(w)/lb > float64(limit)+2+float64(limit)*0x1p-52/lb {
		return limit
	}
	c := 0
	for x := w; x >= base && c < limit; x /= base {
		c++
	}
	return c
}

// WeightClasses partitions a weighted stream into per-class unweighted
// substreams (Remark 14: round weights to powers of 1+gamma and run the
// unweighted construction per class). It returns the class indices
// present and a substream for each, or ErrTooManyClasses when a weight's
// class index exceeds MaxWeightClass.
func WeightClasses(base Stream, classBase float64) (classes []int, sub map[int]Stream, err error) {
	present := map[int]bool{}
	// One scan to find the classes actually present.
	err = base.Replay(func(u Update) error {
		c := WeightClassOf(u.W, classBase)
		if c > MaxWeightClass {
			return fmt.Errorf("%w: weight %v at class base %v", ErrTooManyClasses, u.W, classBase)
		}
		present[c] = true
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sub = make(map[int]Stream, len(present))
	for c := range present {
		c := c
		sub[c] = &Filtered{
			Base: base,
			Keep: func(u Update) bool { return WeightClassOf(u.W, classBase) == c },
		}
		classes = append(classes, c)
	}
	// Sorted ascending for deterministic iteration.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	return classes, sub, nil
}
