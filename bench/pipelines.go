package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"dynstream"
	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
)

// sketchSeed fixes every sketch's randomness. The workload seed drives
// only the generated inputs, so sketch_words is exact and a result
// digest depends on nothing but the input.
const sketchSeed = 0x5eed_0013

const (
	spannerK    = 2
	sparsifierK = 2
	sparsifierJ = 4 // the oracle grid's column count, stated so cells_per_update can be counted
)

// answer is one operation's complete result, reduced to what the
// checks and the metrics need.
type answer struct {
	kind   string       // forest | spanner | sparsifier
	forest []graph.Edge // kind == forest
	g      *graph.Graph // kind == spanner, sparsifier
	words  int          // SpaceWords of the built state
	opMs   float64      // source to result, excluding digesting
	digest uint64
}

func (a *answer) seal() *answer {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	edges := a.forest
	if a.g != nil {
		edges = a.g.Edges()
	}
	put(uint64(len(edges)))
	for _, e := range edges {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.W))
	}
	put(uint64(a.words))
	a.digest = h.Sum64()
	return a
}

// pipeline is one batch workload's program under test: the opaque
// front-door call, and the same computation replayed stage by stage
// through each layer's exported functions.
type pipeline struct {
	kind    string
	workers int
}

func (p pipeline) policy(ctx context.Context, tr *dynstream.Tracer) *parallel.Policy {
	// Exactly the policy dynstream.Build derives from
	// WithWorkers(w), WithDecodeWorkers(w) and the default batch size.
	return parallel.NewPolicy(ctx, p.workers, 0, nil).WithDecode(p.workers).WithTracer(tr)
}

func (p pipeline) opts(tr *dynstream.Tracer) []dynstream.Option {
	o := []dynstream.Option{dynstream.WithWorkers(p.workers), dynstream.WithDecodeWorkers(p.workers)}
	if tr != nil {
		o = append(o, dynstream.WithTracer(tr))
	}
	return o
}

func sparsifierConfig() dynstream.SparsifierConfig {
	return dynstream.SparsifierConfig{K: sparsifierK, Seed: sketchSeed,
		Estimate: dynstream.EstimateConfig{J: sparsifierJ}}
}

// run is one opaque operation: dynstream.Build plus, for the forest,
// the decode that yields the answer.
func (p pipeline) run(ctx context.Context, src dynstream.Source, tr *dynstream.Tracer) (*answer, error) {
	a := &answer{kind: p.kind}
	t0 := time.Now()
	switch p.kind {
	case "forest":
		sk, err := dynstream.Build(ctx, src, dynstream.ForestTarget{Seed: sketchSeed}, p.opts(tr)...)
		if err != nil {
			return nil, err
		}
		a.forest, err = sk.SpanningForestOpts(nil, p.policy(ctx, tr))
		if err != nil {
			return nil, err
		}
		a.opMs = ms(time.Since(t0))
		a.words = sk.SpaceWords()
	case "spanner":
		res, err := dynstream.Build(ctx, src,
			dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: spannerK, Seed: sketchSeed}}, p.opts(tr)...)
		if err != nil {
			return nil, err
		}
		a.opMs = ms(time.Since(t0))
		a.g, a.words = res.Spanner, res.SpaceWords
	case "sparsifier":
		res, err := dynstream.Build(ctx, src,
			dynstream.SparsifierTarget{Config: sparsifierConfig()}, p.opts(tr)...)
		if err != nil {
			return nil, err
		}
		a.opMs = ms(time.Since(t0))
		a.g, a.words = res.Sparsifier, res.SpaceWords
	default:
		return nil, fmt.Errorf("unknown pipeline %q", p.kind)
	}
	return a.seal(), nil
}

// counts tallies work per stage name; stages of a sharded ingest run on
// several goroutines.
type counts struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *counts) add(name string, n int) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]int64{}
	}
	c.m[name] += int64(n)
	c.mu.Unlock()
}

func (c *counts) get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.m[name])
}

// staged is the traced replay's state: the span under which stages open
// their own spans, the work counters, and what later probes reuse.
type staged struct {
	ctx    context.Context
	p      pipeline
	tr     *dynstream.Tracer
	n      counts
	sketch *agm.Sketch             // forest: the built sketch, kept for the agm probes
	ecfg   sparsify.EstimateConfig // sparsifier: the grid's resolved configuration
}

// ingest runs one sharded-ingest pass through parallel.IngestOpts — the
// call every Build pass makes — with each callback into the sketch
// layer under its own span. The pass span's self time is therefore the
// parallel and stream layers' own work: splitting, batching, replay.
func ingest[S any](s *staged, parent spanRef, src stream.Source, layer string,
	newState func() (S, error), update func(S, []stream.Update) error, merge func(dst, src S) error,
) (S, error) {
	pass := parent.child("parallel.ingest")
	defer pass.end()
	return parallel.IngestOpts(s.p.policy(s.ctx, s.tr), src,
		func() (S, error) {
			sp := pass.child(layer + ".new")
			defer sp.end()
			return newState()
		},
		func(st S, b []stream.Update) error {
			sp := pass.child(layer + ".add")
			defer sp.end()
			s.n.add(layer+".add", len(b))
			return update(st, b)
		},
		func(dst, src S) error {
			sp := pass.child(layer + ".merge")
			defer sp.end()
			return merge(dst, src)
		})
}

func (s *staged) forest(root spanRef, src stream.Source) (*answer, error) {
	sk, err := ingest(s, root, src, "agm",
		func() (*agm.Sketch, error) { return agm.New(sketchSeed, src.N(), agm.Config{}), nil },
		func(st *agm.Sketch, b []stream.Update) error { st.AddBatch(b); return nil },
		(*agm.Sketch).Merge)
	if err != nil {
		return nil, err
	}
	dec := root.child("agm.forest")
	forest, err := sk.SpanningForestOpts(nil, s.p.policy(s.ctx, s.tr))
	dec.end()
	if err != nil {
		return nil, err
	}
	s.sketch = sk
	return &answer{kind: "forest", forest: forest}, nil
}

// twoPassState is the pass protocol spanner.TwoPass and sparsify.Grid
// share: ingest, close pass 1, fork table-only states, ingest again,
// fold them back, finish.
type twoPassState[S, R any] interface {
	Pass1AddBatch([]stream.Update) error
	MergePass1(S) error
	EndPass1Opts(*parallel.Policy) error
	ForkPass2() (S, error)
	Pass2AddBatch([]stream.Update) error
	MergePass2(S) error
	FinishOpts(*parallel.Policy) (R, error)
}

// twoPass replays a two-pass build (spanner.BuildTwoPassOpts,
// sparsify.NewEstimatorOpts) stage by stage; layer names the spans.
func twoPass[S twoPassState[S, R], R any](s *staged, parent spanRef, src stream.Source, layer string,
	newState func() (S, error)) (R, error) {
	var zero R
	p := s.p.policy(s.ctx, s.tr)
	main, err := ingest(s, parent, src, layer+".pass1", newState, S.Pass1AddBatch, S.MergePass1)
	if err != nil {
		return zero, err
	}
	sp := parent.child(layer + ".endpass1")
	err = main.EndPass1Opts(p)
	sp.end()
	if err != nil {
		return zero, err
	}
	tables, err := ingest(s, parent, src, layer+".pass2", main.ForkPass2, S.Pass2AddBatch, S.MergePass2)
	if err != nil {
		return zero, err
	}
	sp = parent.child(layer + ".finish")
	defer sp.end()
	if err := main.MergePass2(tables); err != nil {
		return zero, err
	}
	return main.FinishOpts(p)
}

func (s *staged) spannerBuild(parent spanRef, src stream.Source, cfg spanner.Config) (*spanner.Result, error) {
	return twoPass(s, parent, src, "spanner",
		func() (*spanner.TwoPass, error) { return spanner.NewTwoPass(src.N(), cfg), nil })
}

func (s *staged) spanner(root spanRef, src stream.Source) (*answer, error) {
	res, err := s.spannerBuild(root, src, spanner.Config{K: spannerK, Seed: sketchSeed})
	if err != nil {
		return nil, err
	}
	return &answer{kind: "spanner", g: res.Spanner, words: res.SpaceWords}, nil
}

// sparsifier replays sparsify.SparsifyOpts through SparsifyWith, the
// exported form that takes the two pass engines as arguments. The
// root's self time is then the sparsify layer's own sampling work:
// substream filters, the estimator queries, the averaging.
func (s *staged) sparsifier(root spanRef, src stream.Source) (*answer, error) {
	res, err := sparsify.SparsifyWith(src, sparsifierConfig(),
		func(ecfg sparsify.EstimateConfig) (*sparsify.Estimator, error) {
			sp := root.child("sparsify.grid")
			defer sp.end()
			s.ecfg = ecfg
			return twoPass(s, sp, src, "sparsify.grid",
				func() (*sparsify.Grid, error) { return sparsify.NewGrid(src.N(), ecfg) })
		},
		func(sub stream.Source, scfg spanner.Config) (*spanner.Result, error) {
			sp := root.child("spanner.build")
			defer sp.end()
			return s.spannerBuild(sp, sub, scfg)
		})
	if err != nil {
		return nil, err
	}
	return &answer{kind: "sparsifier", g: res.Sparsifier, words: res.SpaceWords}, nil
}

// gridCells counts the (update, cell) deliveries of one grid pass: cell
// (t, j) of the oracle grid sketches the substream
// SampledSubstream(src, Mix(seed, 0xe5, j), t-1), by NewGrid's contract.
func gridCells(src stream.Source, ecfg sparsify.EstimateConfig) int {
	total := 0
	for j := 0; j < ecfg.J; j++ {
		for t := 1; t <= ecfg.T; t++ {
			sub := stream.SampledSubstream(src, hashing.Mix(ecfg.Seed, 0xe5, uint64(j)), t-1)
			_ = sub.Replay(func(stream.Update) error { total++; return nil }) // a memory stream's replay cannot fail
		}
	}
	return total
}

// replay runs the staged form of the pipeline under a root span.
func (s *staged) replay(rec *recorder, op int, src stream.Source) (*answer, error) {
	root := rec.root("op", op)
	t0 := time.Now()
	var a *answer
	var err error
	switch s.p.kind {
	case "forest":
		a, err = s.forest(root, src)
	case "spanner":
		a, err = s.spanner(root, src)
	case "sparsifier":
		a, err = s.sparsifier(root, src)
	default:
		err = fmt.Errorf("unknown pipeline %q", s.p.kind)
	}
	root.end()
	if err != nil {
		return nil, err
	}
	a.opMs = ms(time.Since(t0))
	// Bookkeeping the opaque op does outside its timer stays outside the
	// root span too.
	switch s.p.kind {
	case "forest":
		a.words = s.sketch.SpaceWords()
	case "sparsifier":
		s.n.add("sparsify.grid_cells", gridCells(src, s.ecfg))
	}
	return a.seal(), nil
}
