package sparsify

import (
	"fmt"
	"math"

	"dynstream/internal/hashing"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// EstimateConfig parameterizes Algorithm 4 (ESTIMATE). The paper sets
// J = O(log n / δ²) and T = log n⁴; both are exposed so experiments can
// trade accuracy for the (J·T)-fold spanner-construction cost.
type EstimateConfig struct {
	// K is the stretch exponent of the underlying spanner oracles
	// (α = 2^K).
	K int
	// J is the number of independent subsample repetitions per rate.
	J int
	// T is the number of nested subsampling rates (E^j_1 = E, rate
	// halves per step).
	T int
	// Delta is the robustness parameter δ: q̂ = 2^{-t} for the smallest
	// t at which ≥ (1−δ)J oracles report disconnection-at-scale.
	Delta float64
	// Threshold is the oracle-distance cutoff for ρ_j(t) = 1; zero
	// means "use the oracle's stretch α".
	Threshold float64
	// Seed selects all randomness.
	Seed uint64
}

func (c EstimateConfig) withDefaults(n int) EstimateConfig {
	if c.K < 1 {
		c.K = 2
	}
	log2n := int(math.Ceil(math.Log2(float64(n + 1))))
	if log2n < 1 {
		log2n = 1
	}
	if c.J == 0 {
		c.J = 4
	}
	if c.T == 0 {
		c.T = 2*log2n + 1
	}
	if c.Delta == 0 {
		c.Delta = 0.25
	}
	return c
}

// Estimator is the preprocessed state of Algorithm 4: a J×T grid of
// stretch-α distance oracles over nested subsampled edge sets, queried
// on demand for robust-connectivity estimates q̂_{α,δ}(u, v).
type Estimator struct {
	cfg       EstimateConfig
	threshold float64
	oracles   [][]Oracle // oracles[t-1][j], E^j_t at rate 2^{-(t-1)}
	space     int
	// samples are a sparsifier grid's Z·H augmented spanners, s-major
	// (see Grid): decoded with the oracles, read by sampleAndAverage.
	samples []*spanner.Result
}

// NewEstimator builds the oracle grid over the stream (each oracle is a
// two-pass spanner over a filtered substream, so this replays st
// 2·J·T times — the paper's preprocessing loop). It is the serial
// reference the sketch-grid builds are tested against.
func NewEstimator(st stream.Stream, cfg EstimateConfig) (*Estimator, error) {
	cfg = cfg.withDefaults(st.N())
	oracles := make([]Oracle, cfg.T*cfg.J)
	for i := range oracles {
		o, err := cfg.oracle(st, i)
		if err != nil {
			return nil, err
		}
		oracles[i] = o
	}
	return newEstimator(cfg, oracles), nil
}

// newEstimator assembles the Estimator of a resolved configuration
// from its T·J oracles, t-major (oracles[(t-1)·J + j] answers on E^j_t)
// — the one assembly every estimator build and live query ends in.
func newEstimator(cfg EstimateConfig, oracles []Oracle) *Estimator {
	e := &Estimator{cfg: cfg, threshold: cfg.Threshold, oracles: make([][]Oracle, cfg.T)}
	if e.threshold == 0 {
		e.threshold = math.Pow(2, float64(cfg.K)) // the oracles' stretch α
	}
	for t := range e.oracles {
		e.oracles[t] = oracles[t*cfg.J : (t+1)*cfg.J]
		for _, o := range e.oracles[t] {
			e.space += o.SpaceWords()
		}
	}
	return e
}

// substream is E^j_t, the edge set oracle (t, j) answers on: column j's
// nested sample at rate 2^{-(t-1)}.
func (c EstimateConfig) substream(st stream.Stream, t, j int) stream.Stream {
	return stream.SampledSubstream(st, hashing.Mix(c.Seed, 0xe5, uint64(j)), t-1)
}

// cellConfig is the spanner configuration of grid cell i (t-major).
func (c EstimateConfig) cellConfig(i int) spanner.Config {
	t, j := i/c.J+1, i%c.J
	return spanner.Config{K: c.K, Seed: hashing.Mix(c.Seed, 0x0a, uint64(t), uint64(j))}
}

// oracle builds the oracle of grid cell i (t-major) serially over st.
func (c EstimateConfig) oracle(st stream.Stream, i int) (Oracle, error) {
	t, j := i/c.J+1, i%c.J
	o, err := NewSpannerOracle(c.substream(st, t, j), c.K, c.cellConfig(i).Seed)
	if err != nil {
		return nil, fmt.Errorf("sparsify: estimator oracle (t=%d, j=%d): %w", t, j, err)
	}
	return o, nil
}

// QExp returns the exponent t* of the robust-connectivity estimate
// q̂(u,v) = 2^{-t*}: the smallest t at which at least (1−δ)J of the
// rate-2^{-(t-1)} oracles report distance above the threshold. If no t
// qualifies, T is returned (the edge is maximally well-connected at
// every probed rate).
func (e *Estimator) QExp(u, v int) int {
	need := (1 - e.cfg.Delta) * float64(e.cfg.J)
	for t := 1; t <= e.cfg.T; t++ {
		far := 0
		for _, o := range e.oracles[t-1] {
			if o.Dist(u, v) > e.threshold {
				far++
			}
		}
		if float64(far) >= need {
			return t
		}
	}
	return e.cfg.T
}

// QHat returns q̂_{α,δ}(u, v) = 2^{-QExp(u,v)}.
func (e *Estimator) QHat(u, v int) float64 {
	return math.Pow(2, -float64(e.QExp(u, v)))
}

// SpaceWords reports the total sketch footprint of the oracle grid.
func (e *Estimator) SpaceWords() int { return e.space }
