// Package sparsify implements Section 6 of the paper: the two-pass
// ε-spectral sparsifier of Corollary 2, obtained by plugging the
// two-pass 2^k-spanner into the KP12 reduction. Its pieces map onto
// the paper's pseudocode:
//
//   - Estimator (Algorithm 4, ESTIMATE): robust-connectivity estimates
//     q̂_{α,δ}(e) from J×T spanner-based distance oracles over nested
//     subsampled edge sets E^j_t.
//   - SampleOnce (Algorithm 5, SAMPLE-AUGMENTED-SPANNER): one weighted
//     sample X_s built from H augmented spanners over E_j. The serial
//     reference builds them one by one; every other build holds them
//     as a sample column of the Grid, beside the estimator's oracle
//     columns, so one pair of passes feeds all of them.
//   - Sparsify (Algorithm 6, AUGMENTED-SPANNER-SPARSIFY): the average
//     of Z independent samples.
//   - SpielmanSrivastava (Theorem 7): the offline effective-resistance
//     sampling baseline used for quality comparison (experiment E7).
package sparsify

import (
	"fmt"
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// Oracle estimates hop distances with a known stretch: the true
// distance d satisfies d <= Dist(u,v) <= Alpha()·d (up to the whp
// failure of the underlying spanner).
type Oracle interface {
	// Dist returns the estimated distance between u and v in hops;
	// +Inf if they are disconnected in the oracle's subgraph.
	Dist(u, v int) float64
	// Alpha returns the stretch bound of the estimate.
	Alpha() float64
	// SpaceWords reports the sketch footprint used to build the oracle.
	SpaceWords() int
}

// spannerOracle answers distance queries by BFS on a two-pass spanner,
// memoizing BFS trees per source. This is exactly the paper's oracle:
// "our multiplicative spanner construction provides such an estimate
// with α <= 2^k".
type spannerOracle struct {
	h     *graph.Graph
	alpha float64
	space int
	memo  [][]int // memo[u]: BFS distances from u, nil until asked
}

// NewSpannerOracle builds a stretch-2^k distance oracle over a dynamic
// stream using the two-pass spanner of Theorem 1.
func NewSpannerOracle(st stream.Stream, k int, seed uint64) (Oracle, error) {
	res, err := spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("sparsify: oracle spanner: %w", err)
	}
	return newSpannerOracle(res, k), nil
}

// newSpannerOracle is the stretch-2^k oracle over a built spanner.
func newSpannerOracle(res *spanner.Result, k int) Oracle {
	return &spannerOracle{h: res.Spanner, alpha: math.Pow(2, float64(k)), space: res.SpaceWords, memo: make([][]int, res.Spanner.N())}
}

func (o *spannerOracle) Dist(u, v int) float64 {
	d := o.memo[u]
	if d == nil {
		d = o.h.BFS(u)
		o.memo[u] = d
	}
	if d[v] < 0 {
		return math.Inf(1)
	}
	return float64(d[v])
}

func (o *spannerOracle) Alpha() float64  { return o.alpha }
func (o *spannerOracle) SpaceWords() int { return o.space }
