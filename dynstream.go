// Package dynstream is a Go implementation of "Spanners and Sparsifiers
// in Dynamic Streams" (Kapralov & Woodruff, PODC 2014): linear graph
// sketching for streams of edge insertions and deletions.
//
// Build is the single front door; it runs a Target over a Source:
//
//   - Two-pass multiplicative spanners (Theorem 1): SpannerTarget
//     computes a 2^k-spanner in Õ(n^{1+1/k}) sketch space with exactly
//     two passes over the stream.
//   - Single-pass additive spanners (Theorem 3): AdditiveTarget
//     computes an O(n/d)-additive spanner in Õ(nd) space; Theorem 4
//     shows this tradeoff is optimal (see internal/lowerbound).
//   - Two-pass spectral sparsifiers (Corollary 2): SparsifierTarget
//     combines the spanner with the KP12 sampling reduction.
//   - The AGM connectivity substrate (Theorem 10): ForestTarget,
//     KConnectivityTarget, BipartitenessTarget, MSFTarget ingest into
//     linear sketches decoded on demand.
//
// Open is the live front door: same targets, but the returned Handle
// keeps the sketch state mutable — Apply folds in further updates and
// Query re-extracts incrementally from per-region decode caches,
// bit-identical to a cold Build over the total stream.
//
// All constructions are linear sketches: states built from disjoint
// shards of a stream can be merged, which is what makes them usable in
// the distributed setting the paper's introduction motivates (see
// examples/distributed).
//
// The identifiers below are type aliases into the implementation
// packages so that the full method sets (Graph.BFS, MemoryStream.Append,
// ...) are available through this package's front door.
package dynstream

import (
	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

// Graph is an undirected weighted graph on vertices 0..N-1 with exact
// BFS/Dijkstra distances — the ground-truth object spanners are
// verified against.
type Graph = graph.Graph

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Update is one dynamic-stream element: insert (Delta=+1) or delete
// (Delta=-1) an edge {U, V} of weight W.
type Update = stream.Update

// Stream is a replayable sequence of updates (multi-pass model).
type Stream = stream.Stream

// MemoryStream is an in-memory Stream with Append.
type MemoryStream = stream.MemoryStream

// SpannerConfig configures the two-pass 2^k-spanner (Theorem 1).
type SpannerConfig = spanner.Config

// SpannerResult is the output of the two-pass construction.
type SpannerResult = spanner.Result

// AdditiveConfig configures the single-pass additive spanner (Theorem 3).
type AdditiveConfig = spanner.AdditiveConfig

// AdditiveResult is the output of the additive construction.
type AdditiveResult = spanner.AdditiveResult

// AdditiveSpanner is the explicit single-pass streaming state.
type AdditiveSpanner = spanner.Additive

// SparsifierConfig configures the two-pass spectral sparsifier
// (Corollary 2).
type SparsifierConfig = sparsify.Config

// SparsifierResult is the output of the sparsifier.
type SparsifierResult = sparsify.Result

// EstimateConfig configures the robust-connectivity oracle grid
// (Algorithm 4) inside SparsifierConfig.
type EstimateConfig = sparsify.EstimateConfig

// ForestSketch is the AGM connectivity sketch (Theorem 10).
type ForestSketch = agm.Sketch

// ForestConfig tunes the AGM sketch.
type ForestConfig = agm.Config

// StretchReport / AdditiveReport are verification summaries.
type (
	StretchReport  = verify.StretchReport
	AdditiveReport = verify.AdditiveReport
)

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewMemoryStream returns an empty in-memory stream over n vertices.
func NewMemoryStream(n int) *MemoryStream { return stream.NewMemoryStream(n) }

// StreamFromGraph emits g's edges as insertions in pseudorandom order.
func StreamFromGraph(g *Graph, seed uint64) *MemoryStream {
	return stream.FromGraph(g, seed)
}

// StreamWithChurn emits a stream whose final graph is g but which also
// inserts and later deletes `extra` random non-edges.
func StreamWithChurn(g *Graph, extra int, seed uint64) *MemoryStream {
	return stream.WithChurn(g, extra, seed)
}

// Materialize replays a stream into the final graph (testing/ground
// truth; a streaming algorithm never does this).
func Materialize(s Stream) (*Graph, error) { return stream.Materialize(s) }

// NewAdditiveSpanner creates the explicit single-pass streaming state.
func NewAdditiveSpanner(n int, cfg AdditiveConfig) *AdditiveSpanner {
	return spanner.NewAdditive(n, cfg)
}

// NewForestSketch creates an AGM connectivity sketch for a graph on n
// vertices (Theorem 10).
func NewForestSketch(seed uint64, n int, cfg ForestConfig) *ForestSketch {
	return agm.New(seed, n, cfg)
}

// KConnectivity is the k-edge-connectivity certificate sketch built
// from k independent AGM sketches ([AGM12a], the substrate family the
// paper builds on).
type KConnectivity = agm.KConnectivity

// NewKConnectivity creates the certificate sketch for parameter k.
func NewKConnectivity(seed uint64, n, k int) *KConnectivity {
	return agm.NewKConnectivity(seed, n, k)
}

// Bipartiteness is the sketch-based bipartiteness tester (double-cover
// reduction over AGM sketches).
type Bipartiteness = agm.Bipartiteness

// NewBipartiteness creates the tester for a graph on n vertices.
func NewBipartiteness(seed uint64, n int) *Bipartiteness {
	return agm.NewBipartiteness(seed, n)
}

// MSF is the (1+γ)-approximate minimum-spanning-forest sketch (the
// remaining [AGM12a] application in the paper's toolbox).
type MSF = agm.MSF

// NewMSF creates the MSF sketch for weights in [1, wmax] with class
// ratio 1+gamma.
func NewMSF(seed uint64, n int, wmax, gamma float64) *MSF {
	return agm.NewMSF(seed, n, wmax, gamma)
}

// DistanceOracle answers approximate distance queries from a spanner
// with a known stretch bound.
type DistanceOracle = spanner.DistanceOracle

// NewDistanceOracle wraps an unweighted spanner result (stretch 2^k).
func NewDistanceOracle(res *SpannerResult, k int) *DistanceOracle {
	return spanner.NewDistanceOracle(res, k)
}

// NewWeightedDistanceOracle wraps a weighted spanner result (stretch
// classBase·2^k).
func NewWeightedDistanceOracle(res *SpannerResult, k int, classBase float64) *DistanceOracle {
	return spanner.NewWeightedDistanceOracle(res, k, classBase)
}

// VerifyStretch measures multiplicative stretch of h against g over
// BFS trees from every ⌊n/sources⌋-th vertex, so at least `sources` of
// them (all if <= 0).
func VerifyStretch(g, h *Graph, sources int) StretchReport {
	return verify.Stretch(g, h, sources)
}

// VerifyAdditive measures additive distortion of h against g.
func VerifyAdditive(g, h *Graph, sources int) AdditiveReport {
	return verify.Additive(g, h, sources)
}

// VerifySpectral returns the exact spectral approximation error ε such
// that (1−ε)L_G ⪯ L_H ⪯ (1+ε)L_G on range(L_G).
func VerifySpectral(g, h *Graph) (float64, error) {
	return verify.SpectralEpsilon(g, h)
}
