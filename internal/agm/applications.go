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

// KConnectivity maintains k independent AGM sketches of the same
// stream and extracts k edge-disjoint spanning forests F_1..F_k; their
// union is a k-edge-connectivity certificate: every cut of value < k
// in G has exactly its G-value in the certificate.
type KConnectivity struct {
	k        int
	n        int
	sketches []*Sketch

	// subtracted[i] is the edge multiset currently folded OUT of
	// sketch i (the prior forests of the last Certificate call).
	// Extraction reconciles it against the forests it actually needs
	// subtracted, applying only the difference — so a re-query whose
	// upstream forests are unchanged leaves every sampler generation
	// untouched and the decode caches hot, and repeated Certificate
	// calls are idempotent instead of double-subtracting.
	subtracted [][]graph.Edge
}

// NewKConnectivity creates the certificate sketch for a graph on n
// vertices with connectivity parameter k >= 1.
func NewKConnectivity(seed uint64, n, k int) *KConnectivity {
	if k < 1 {
		k = 1
	}
	kc := &KConnectivity{k: k, n: n, sketches: make([]*Sketch, k), subtracted: make([][]graph.Edge, k)}
	for i := 0; i < k; i++ {
		kc.sketches[i] = New(hashing.Mix(seed, 0x6c, uint64(i)), n, Config{})
	}
	return kc
}

// EnableDecodeCache turns the per-component pick cache on or off for
// every constituent sketch (see Sketch.EnableDecodeCache).
func (kc *KConnectivity) EnableDecodeCache(on bool) {
	for _, s := range kc.sketches {
		s.EnableDecodeCache(on)
	}
}

// DecodeCacheStats sums the decode-cache hit/miss counters of the k
// constituent forest sketches.
func (kc *KConnectivity) DecodeCacheStats() (hits, misses uint64) {
	for _, s := range kc.sketches {
		h, m := s.DecodeCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// reconcile adjusts sketch i so that exactly `want` is folded out of
// it, applying only the multiset difference against what is currently
// subtracted. An unchanged `want` is a no-op that touches no sampler.
func (kc *KConnectivity) reconcile(i int, want []graph.Edge) {
	have := kc.subtracted[i]
	if len(have) == len(want) {
		same := true
		for j := range have {
			if have[j] != want[j] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	counts := map[[2]int]int64{}
	for _, e := range want {
		e = e.Canon()
		counts[[2]int{e.U, e.V}]++
	}
	for _, e := range have {
		e = e.Canon()
		counts[[2]int{e.U, e.V}]--
	}
	diff := make([]stream.Update, 0, len(counts))
	for key, d := range counts {
		diff = append(diff, stream.Update{U: key[0], V: key[1], Delta: int(-d)})
	}
	kc.sketches[i].AddBatch(diff)
	kc.subtracted[i] = append([]graph.Edge(nil), want...)
}

// restoreStream folds every subtracted forest back in, returning all
// sketches to pure functions of the update stream — the state the
// wire format and Merge are defined over.
func (kc *KConnectivity) restoreStream() {
	for i := range kc.sketches {
		kc.reconcile(i, nil)
	}
}

// N returns the vertex count.
func (kc *KConnectivity) N() int { return kc.n }

// AddUpdate folds a stream update into all k sketches.
func (kc *KConnectivity) AddUpdate(u stream.Update) {
	for _, s := range kc.sketches {
		s.AddUpdate(u)
	}
}

// AddEdge folds an explicit edge with multiplicity delta.
func (kc *KConnectivity) AddEdge(u, v int, delta int64) {
	for _, s := range kc.sketches {
		s.AddEdge(u, v, delta)
	}
}

// AddBatch folds a batch of stream updates into all k sketches;
// bit-identical to calling AddUpdate per element.
func (kc *KConnectivity) AddBatch(batch []stream.Update) { kc.AddBatchOpts(batch, serial) }

// AddBatchOpts is AddBatch with each sketch's ingest fanned out across
// the policy's workers (Sketch.AddBatchOpts).
func (kc *KConnectivity) AddBatchOpts(batch []stream.Update, p *parallel.Policy) {
	for _, s := range kc.sketches {
		s.AddBatchOpts(batch, p)
	}
}

// Merge adds another certificate sketch built with the same seed and
// parameters; the result sketches the union of the two streams.
func (kc *KConnectivity) Merge(o *KConnectivity) error {
	if kc.k != o.k || kc.n != o.n {
		return fmt.Errorf("agm: merging incompatible k-connectivity sketches (k %d/%d, n %d/%d)",
			kc.k, o.k, kc.n, o.n)
	}
	// Merge is defined over pure stream states: fold any extraction-era
	// subtractions back in on both sides first.
	kc.restoreStream()
	o.restoreStream()
	for i := range kc.sketches {
		if err := kc.sketches[i].Merge(o.sketches[i]); err != nil {
			return fmt.Errorf("agm: k-connectivity merge sketch %d: %w", i, err)
		}
	}
	return nil
}

// Certificate extracts k edge-disjoint spanning forests. Forest F_i is
// computed from sketch i after subtracting F_1..F_{i-1} — each sketch's
// randomness is consumed exactly once, so the whp guarantee of
// Theorem 10 applies per forest.
func (kc *KConnectivity) Certificate() ([][]graph.Edge, error) {
	return kc.CertificateOpts(parallel.Default())
}

// CertificateOpts is the policy-driven certificate extraction behind
// Certificate: each forest's Borůvka rounds decode on the policy's
// workers, while the k forests themselves stay sequential — forest i is
// defined over the sketch minus forests 1..i-1 — so the output is
// bit-identical at every worker count.
func (kc *KConnectivity) CertificateOpts(p *parallel.Policy) ([][]graph.Edge, error) {
	var prior []graph.Edge
	out := make([][]graph.Edge, 0, kc.k)
	for i, s := range kc.sketches {
		kc.reconcile(i, prior)
		f, err := s.SpanningForestOpts(nil, p)
		if err != nil {
			return nil, fmt.Errorf("agm: certificate forest %d: %w", i, err)
		}
		out = append(out, f)
		prior = append(prior, f...)
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

// SpaceWords returns the memory footprint in 64-bit words.
func (kc *KConnectivity) SpaceWords() int {
	w := 0
	for _, s := range kc.sketches {
		w += s.SpaceWords()
	}
	return w
}

// Bipartiteness tests whether the streamed graph is bipartite using
// the double-cover reduction: the cover has vertices (v, 0), (v, 1)
// and, for every edge {u, v}, edges {(u,0),(v,1)} and {(u,1),(v,0)}.
// A connected non-bipartite component's cover is connected (one
// component), a bipartite one's cover splits in two — so G is
// bipartite iff components(cover) = 2·components(G).
type Bipartiteness struct {
	n     int
	base  *Sketch // sketch of G on n vertices
	cover *Sketch // sketch of the double cover on 2n vertices

	coverBuf []stream.Update // AddBatch's double-cover batch, reused
}

// NewBipartiteness creates the tester for a graph on n vertices.
func NewBipartiteness(seed uint64, n int) *Bipartiteness {
	return &Bipartiteness{
		n:     n,
		base:  New(hashing.Mix(seed, 0xb1), n, Config{}),
		cover: New(hashing.Mix(seed, 0xb2), 2*n, Config{}),
	}
}

// N returns the vertex count.
func (b *Bipartiteness) N() int { return b.n }

// EnableDecodeCache turns the per-component pick cache on or off for
// both the base and double-cover sketches.
func (b *Bipartiteness) EnableDecodeCache(on bool) {
	b.base.EnableDecodeCache(on)
	b.cover.EnableDecodeCache(on)
}

// DecodeCacheStats sums the decode-cache hit/miss counters of the base
// and double-cover sketches.
func (b *Bipartiteness) DecodeCacheStats() (hits, misses uint64) {
	h1, m1 := b.base.DecodeCacheStats()
	h2, m2 := b.cover.DecodeCacheStats()
	return h1 + h2, m1 + m2
}

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
	b.base.AddBatchOpts(batch, p)
	cover := b.coverBuf[:0]
	for _, u := range batch {
		cover = append(cover,
			stream.Update{U: u.U, V: u.V + b.n, Delta: u.Delta},
			stream.Update{U: u.U + b.n, V: u.V, Delta: u.Delta})
	}
	b.cover.AddBatchOpts(cover, p)
	b.coverBuf = cover
}

// Merge adds another tester built with the same seed; the result tests
// the union of the two streams.
func (b *Bipartiteness) Merge(o *Bipartiteness) error {
	if b.n != o.n {
		return fmt.Errorf("agm: merging incompatible bipartiteness testers (n %d/%d)", b.n, o.n)
	}
	if err := b.base.Merge(o.base); err != nil {
		return fmt.Errorf("agm: bipartiteness merge base: %w", err)
	}
	if err := b.cover.Merge(o.cover); err != nil {
		return fmt.Errorf("agm: bipartiteness merge cover: %w", err)
	}
	return nil
}

// IsBipartite decides bipartiteness whp from the sketches alone.
func (b *Bipartiteness) IsBipartite() (bool, error) {
	return b.IsBipartiteOpts(parallel.Default())
}

// IsBipartiteOpts is the policy-driven form of IsBipartite.
func (b *Bipartiteness) IsBipartiteOpts(p *parallel.Policy) (bool, error) {
	fBase, err := b.base.SpanningForestOpts(nil, p)
	if err != nil {
		return false, err
	}
	fCover, err := b.cover.SpanningForestOpts(nil, p)
	if err != nil {
		return false, err
	}
	compG := b.n - len(fBase)
	compCover := 2*b.n - len(fCover)
	return compCover == 2*compG, nil
}

// SpaceWords returns the memory footprint in 64-bit words.
func (b *Bipartiteness) SpaceWords() int {
	return b.base.SpaceWords() + b.cover.SpaceWords()
}
