package agm

import (
	"fmt"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// This file implements the two classical applications of the AGM
// connectivity sketch beyond a single spanning forest — both from
// [AGM12a], which the paper cites as the foundation of dynamic graph
// streaming ("properties such as bipartiteness, connectivity,
// k-connectivity ... with near linear space"):
//
//   - KConnectivity: a k-edge-connectivity certificate from k
//     independent sketches, peeling one spanning forest at a time and
//     subtracting it (linearity) from the next sketch.
//   - Bipartiteness: via the bipartite double cover — G is bipartite
//     iff its double cover has exactly twice as many connected
//     components as G.

// stack is the list of AGM sketches an application keeps: the k
// certificate copies, the base and double-cover pair, the MSF class
// prefixes. It answers what the applications ask of their sketches
// alike; each application adds only its routing (AddBatchOpts), its
// compatibility check (Merge), its wire tag and header, and its decode.
type stack []*Sketch

// EnableDecodeCache turns the per-component pick cache on or off for
// every sketch of the stack (see Sketch.EnableDecodeCache).
func (st stack) EnableDecodeCache(on bool) {
	for _, s := range st {
		s.EnableDecodeCache(on)
	}
}

// DecodeCacheStats sums the decode-cache hit/miss counters of the
// stack's sketches.
func (st stack) DecodeCacheStats() (hits, misses uint64) {
	for _, s := range st {
		h, m := s.DecodeCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// SpaceWords returns the memory footprint in 64-bit words.
func (st stack) SpaceWords() int {
	w := 0
	for _, s := range st {
		w += s.SpaceWords()
	}
	return w
}

// merge adds each of o's sketches to its twin in st; the caller has
// checked that the two stacks are compatible. what names the
// application in an error.
func (st stack) merge(o stack, what string) error {
	for i := range st {
		if err := st[i].Merge(o[i]); err != nil {
			return fmt.Errorf("agm: %s merge sketch %d: %w", what, i, err)
		}
	}
	return nil
}

// KConnectivity maintains k independent AGM sketches of the same
// stream and extracts k edge-disjoint spanning forests F_1..F_k; their
// union is a k-edge-connectivity certificate: every cut of value < k
// in G has exactly its G-value in the certificate.
type KConnectivity struct {
	stack // one sketch per forest, k in all
	n     int
}

// maxCertK is the largest k a certificate sketch may have, one sketch
// per forest; UnmarshalBinary rejects more.
const maxCertK = 1 << 16

// CertificateFits reports whether NewKConnectivity's sketch at k (k < 1
// meaning 1) keeps within what UnmarshalBinary accepts.
func CertificateFits(k int) bool { return k <= maxCertK }

// NewKConnectivity creates the certificate sketch for a graph on n
// vertices with connectivity parameter k >= 1.
func NewKConnectivity(seed uint64, n, k int) *KConnectivity {
	if k < 1 {
		k = 1
	}
	kc := &KConnectivity{stack: make(stack, k), n: n}
	for i := range kc.stack {
		kc.stack[i] = New(hashing.Mix(seed, 0x6c, uint64(i)), n, Config{})
	}
	return kc
}

// N returns the vertex count.
func (kc *KConnectivity) N() int { return kc.n }

// AddUpdate folds a stream update into all k sketches.
func (kc *KConnectivity) AddUpdate(u stream.Update) { kc.AddBatch([]stream.Update{u}) }

// AddEdge folds an explicit edge with multiplicity delta.
func (kc *KConnectivity) AddEdge(u, v int, delta int64) {
	kc.AddUpdate(stream.Update{U: u, V: v, Delta: int(delta)})
}

// AddBatch folds a batch of stream updates into all k sketches;
// bit-identical to calling AddUpdate per element.
func (kc *KConnectivity) AddBatch(batch []stream.Update) { kc.AddBatchOpts(batch, serial) }

// AddBatchOpts is AddBatch with each sketch's ingest fanned out across
// the policy's workers (Sketch.AddBatchOpts).
func (kc *KConnectivity) AddBatchOpts(batch []stream.Update, p *parallel.Policy) {
	for _, s := range kc.stack {
		s.AddBatchOpts(batch, p)
	}
}

// Merge adds another certificate sketch built with the same seed and
// parameters; the result sketches the union of the two streams.
func (kc *KConnectivity) Merge(o *KConnectivity) error {
	if len(kc.stack) != len(o.stack) || kc.n != o.n {
		return fmt.Errorf("agm: merging incompatible k-connectivity sketches (k %d/%d, n %d/%d)",
			len(kc.stack), len(o.stack), kc.n, o.n)
	}
	return kc.merge(o.stack, "k-connectivity")
}

// Certificate extracts k edge-disjoint spanning forests. Forest F_i is
// computed from sketch i after subtracting F_1..F_{i-1} — each sketch's
// randomness is consumed exactly once, so the whp guarantee of
// Theorem 10 applies per forest.
func (kc *KConnectivity) Certificate() ([][]graph.Edge, error) {
	return kc.CertificateOpts(parallel.Default())
}

// CertificateOpts is the policy-driven certificate extraction behind
// Certificate: the policy supplies cancellation and the tracer to each
// forest's Borůvka rounds, and the k forests run in order — forest i is
// defined over the sketch minus forests 1..i-1. The subtraction is
// Sketch.SubtractTo: a re-query whose earlier forests are unchanged
// touches no sampler of the later sketches.
func (kc *KConnectivity) CertificateOpts(p *parallel.Policy) ([][]graph.Edge, error) {
	prior := map[[2]int]int64{}
	out := make([][]graph.Edge, 0, len(kc.stack))
	for i, s := range kc.stack {
		s.SubtractTo(prior)
		f, err := s.SpanningForestOpts(nil, p)
		if err != nil {
			return nil, fmt.Errorf("agm: certificate forest %d: %w", i, err)
		}
		out = append(out, f)
		for _, e := range f {
			e = e.Canon()
			prior[[2]int{e.U, e.V}]++
		}
	}
	return out, nil
}

// CertificateGraph returns the union of the certificate forests as a
// graph — the sparse subgraph preserving all cuts up to value k.
func (kc *KConnectivity) CertificateGraph() (*graph.Graph, error) {
	return kc.CertificateGraphOpts(parallel.Default())
}

// CertificateGraphOpts is the policy-driven form of CertificateGraph.
func (kc *KConnectivity) CertificateGraphOpts(p *parallel.Policy) (*graph.Graph, error) {
	forests, err := kc.CertificateOpts(p)
	if err != nil {
		return nil, err
	}
	g := graph.New(kc.n)
	for _, f := range forests {
		for _, e := range f {
			g.AddUnitEdge(e.U, e.V)
		}
	}
	return g, nil
}

// Bipartiteness tests whether the streamed graph is bipartite using
// the double-cover reduction: the cover has vertices (v, 0), (v, 1)
// and, for every edge {u, v}, edges {(u,0),(v,1)} and {(u,1),(v,0)}.
// A connected non-bipartite component's cover is connected (one
// component), a bipartite one's cover splits in two — so G is
// bipartite iff components(cover) = 2·components(G).
type Bipartiteness struct {
	stack // the sketch of G on n vertices, then its double cover's on 2n
	n     int

	coverBuf []stream.Update // AddBatch's double-cover batch, reused
}

// NewBipartiteness creates the tester for a graph on n vertices.
func NewBipartiteness(seed uint64, n int) *Bipartiteness {
	return &Bipartiteness{
		stack: stack{New(hashing.Mix(seed, 0xb1), n, Config{}), New(hashing.Mix(seed, 0xb2), 2*n, Config{})},
		n:     n,
	}
}

// N returns the vertex count.
func (b *Bipartiteness) N() int { return b.n }

// AddUpdate folds a stream update into both sketches.
func (b *Bipartiteness) AddUpdate(u stream.Update) {
	b.AddBatch([]stream.Update{u})
}

// AddBatch folds a batch of stream updates into the base sketch and
// the batch's double cover — two updates per input, (u,0)=u and
// (u,1)=u+n — into the cover sketch.
func (b *Bipartiteness) AddBatch(batch []stream.Update) { b.AddBatchOpts(batch, serial) }

// AddBatchOpts is AddBatch with both sketches' ingest fanned out across
// the policy's workers (Sketch.AddBatchOpts).
func (b *Bipartiteness) AddBatchOpts(batch []stream.Update, p *parallel.Policy) {
	b.stack[0].AddBatchOpts(batch, p)
	cover := b.coverBuf[:0]
	for _, u := range batch {
		cover = append(cover,
			stream.Update{U: u.U, V: u.V + b.n, Delta: u.Delta},
			stream.Update{U: u.U + b.n, V: u.V, Delta: u.Delta})
	}
	b.stack[1].AddBatchOpts(cover, p)
	b.coverBuf = cover
}

// Merge adds another tester built with the same seed; the result tests
// the union of the two streams.
func (b *Bipartiteness) Merge(o *Bipartiteness) error {
	if b.n != o.n {
		return fmt.Errorf("agm: merging incompatible bipartiteness testers (n %d/%d)", b.n, o.n)
	}
	return b.merge(o.stack, "bipartiteness")
}

// IsBipartite decides bipartiteness whp from the sketches alone.
func (b *Bipartiteness) IsBipartite() (bool, error) {
	return b.IsBipartiteOpts(parallel.Default())
}

// IsBipartiteOpts is the policy-driven form of IsBipartite.
func (b *Bipartiteness) IsBipartiteOpts(p *parallel.Policy) (bool, error) {
	fBase, err := b.stack[0].SpanningForestOpts(nil, p)
	if err != nil {
		return false, err
	}
	fCover, err := b.stack[1].SpanningForestOpts(nil, p)
	if err != nil {
		return false, err
	}
	compG := b.n - len(fBase)
	compCover := 2*b.n - len(fCover)
	return compCover == 2*compG, nil
}
