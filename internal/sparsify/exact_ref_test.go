package sparsify

import (
	"fmt"
	"math"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// exactOracle materializes the substream and answers exactly (stretch
// 1). It violates the streaming space budget and exists only as the
// test reference the sketch oracles are compared against: an estimator
// over exact oracles is what ESTIMATE would compute if every spanner
// were the whole substream.
type exactOracle struct {
	g    *graph.Graph
	memo map[int][]int
}

// NewExactOracle materializes st and answers by BFS.
func NewExactOracle(st stream.Stream) (Oracle, error) {
	g, err := stream.Materialize(st)
	if err != nil {
		return nil, fmt.Errorf("sparsify: exact oracle: %w", err)
	}
	return &exactOracle{g: g, memo: map[int][]int{}}, nil
}

func (o *exactOracle) Dist(u, v int) float64 {
	d, ok := o.memo[u]
	if !ok {
		d = o.g.BFS(u)
		o.memo[u] = d
	}
	if d[v] < 0 {
		return math.Inf(1)
	}
	return float64(d[v])
}

func (o *exactOracle) Alpha() float64  { return 1 }
func (o *exactOracle) SpaceWords() int { return 2 * o.g.M() }

// exactEstimator is NewEstimator with an exact oracle in every grid
// cell: cell (t, j) answers on the same substream E^j_t, and the
// estimator keeps the sketch oracles' threshold 2^K.
func exactEstimator(st stream.Stream, cfg EstimateConfig) (*Estimator, error) {
	cfg = cfg.withDefaults(st.N())
	oracles := make([]Oracle, cfg.T*cfg.J)
	for i := range oracles {
		o, err := NewExactOracle(cfg.substream(st, i/cfg.J+1, i%cfg.J))
		if err != nil {
			return nil, err
		}
		oracles[i] = o
	}
	return newEstimator(cfg, oracles), nil
}

// sparsifyExact is Sparsify with exactEstimator's oracle grid; the Z·H
// sample spanners are the sketch ones.
func sparsifyExact(st stream.Source, cfg Config) (*Result, error) {
	return SparsifyWith(st, cfg, func(ec EstimateConfig) (*Estimator, error) { return exactEstimator(st, ec) }, buildTwoPass)
}

func TestExactOracle(t *testing.T) {
	g := graph.Path(10)
	st := stream.FromGraph(g, 4)
	o, err := NewExactOracle(st)
	if err != nil {
		t.Fatal(err)
	}
	if o.Alpha() != 1 {
		t.Errorf("alpha = %v", o.Alpha())
	}
	if o.Dist(0, 9) != 9 {
		t.Errorf("dist = %v, want 9", o.Dist(0, 9))
	}
}

func TestOracleDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddUnitEdge(0, 1)
	st := stream.FromGraph(g, 5)
	o, err := NewExactOracle(st)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(o.Dist(0, 5), 1) {
		t.Errorf("disconnected dist = %v, want +Inf", o.Dist(0, 5))
	}
}
