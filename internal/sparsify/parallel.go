package sparsify

import (
	"fmt"
	"math"
	"slices"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// This file makes the sparsification pipeline concurrent. Two layers:
//
//   - Grid is the mergeable sketch state of Algorithm 4's J×T oracle
//     grid: every cell is a two-pass spanner state over a nested
//     subsampled edge set, and the whole grid is a linear function of
//     the update stream — so per-shard grids merge into exactly the
//     single-threaded grid (the "oracle-grid state" merge).
//   - SparsifyOpts / NewEstimatorOpts drive the grid's two passes
//     (parallel.RunTwoPass) — pass 1 over round-robin stream shards with
//     a worker per shard, pass 2 into the one merged grid with its cells
//     swept in ranges — and fan the Z×H augmented-spanner builds of
//     Algorithms 5–6 out over a bounded worker pool. Every decode happens
//     on the merged state, so the output is identical to the serial
//     pipeline.

// Grid is the linear sketch state underlying an Estimator: cell
// (t, j) holds the two-pass spanner state of oracle j at subsampling
// rate 2^{-(t-1)}. It supports the same pass protocol as
// spanner.TwoPass, plus cell-wise merging, and finishes into an
// Estimator identical to NewEstimator's.
type Grid struct {
	cfg     EstimateConfig
	n       int
	colHash []*hashing.Poly    // per column j: the E^j_t level hash
	cells   []*spanner.TwoPass // t-major: cells[(t-1)·J + j]
	phase   int
	sweep   *gridSweep // ingest scratch
}

// NewGrid creates the oracle-grid sketch state for a graph on n
// vertices. Grids built from the same (n, cfg) are mergeable.
func NewGrid(n int, cfg EstimateConfig) (*Grid, error) {
	cfg = cfg.withDefaults(n)
	return newGrid(n, cfg, func(i int) *spanner.TwoPass { return spanner.NewTwoPass(n, cfg.cellConfig(i)) }), nil
}

// newGrid lays out a grid for a resolved configuration with cell(i) as
// cell i: a fresh state, or an empty one for a decoder to fill.
func newGrid(n int, cfg EstimateConfig, cell func(i int) *spanner.TwoPass) *Grid {
	g := &Grid{cfg: cfg, n: n, cells: make([]*spanner.TwoPass, cfg.T*cfg.J)}
	for i := range g.cells {
		g.cells[i] = cell(i)
	}
	g.colHash = make([]*hashing.Poly, cfg.J)
	for j := range g.colHash {
		// Must match cfg.substream so that cell (t, j) sees exactly the
		// substream E^j_t the serial estimator feeds oracle (t, j).
		g.colHash[j] = hashing.NewPoly(hashing.Mix(hashing.Mix(cfg.Seed, 0xe5, uint64(j)), 0xe1), 8)
	}
	return g
}

// N returns the vertex count.
func (g *Grid) N() int { return g.n }

// Phase reports the build phase: 0 while pass 1 is open, 1 after
// EndPass1 (pass 2 open), 2 after Finish. Remote workers use it to
// route ingest on a grid decoded from the wire.
func (g *Grid) Phase() int { return g.phase }

// Pass1Update ingests one first-pass update: a batch of one.
func (g *Grid) Pass1Update(u stream.Update) error { return g.Pass1AddBatch([]stream.Update{u}) }

// Pass1AddBatch ingests a batch of first-pass updates, feeding each to
// every cell whose substream contains the edge: the grid's sweep on the
// calling goroutine (see Pass2AddBatchOpts).
func (g *Grid) Pass1AddBatch(batch []stream.Update) error { return g.ingest(batch, 0, 1) }

// MergePass1 adds another grid's first-pass state, cell-wise.
func (g *Grid) MergePass1(o *Grid) error {
	return g.merge(o, (*spanner.TwoPass).MergePass1)
}

// EndPass1 runs the offline cluster construction in every cell.
func (g *Grid) EndPass1() error {
	return g.EndPass1Opts(parallel.Default())
}

// EndPass1Opts fans the per-cell cluster constructions — each cell is
// an independent two-pass spanner state — across the policy's decode
// workers. Cells are addressed by (t, j) index, so the grid that
// emerges is identical to the serial cell-by-cell construction; each
// cell's own construction runs serially (the cell fan-out already
// saturates the pool).
func (g *Grid) EndPass1Opts(p *parallel.Policy) error {
	if g.phase != 0 {
		return fmt.Errorf("sparsify: grid EndPass1 in phase %d", g.phase)
	}
	sp := p.Tracer().Span("sparsify/grid/endpass1")
	err := parallel.ForEachOpts(p.DecodePolicy(), len(g.cells), func(i int) error {
		return g.cellErr(i, g.cells[i].EndPass1())
	})
	if err != nil {
		return err
	}
	g.phase = 1
	sp.End(obs.A("cells", int64(len(g.cells))))
	return nil
}

// ForkPass2 returns a second-pass worker grid sharing this grid's
// cluster structures, with freshly zeroed tables (see
// spanner.TwoPass.ForkPass2): the state remote builds ship.
func (g *Grid) ForkPass2() (*Grid, error) {
	if g.phase != 1 {
		return nil, fmt.Errorf("sparsify: grid ForkPass2 in phase %d", g.phase)
	}
	w := &Grid{cfg: g.cfg, n: g.n, colHash: g.colHash, cells: make([]*spanner.TwoPass, len(g.cells)), phase: 1}
	for i, c := range g.cells {
		f, err := c.ForkPass2()
		if err != nil {
			return nil, err
		}
		w.cells[i] = f
	}
	return w, nil
}

// Pass2Update ingests one second-pass update: a batch of one.
func (g *Grid) Pass2Update(u stream.Update) error { return g.Pass2AddBatch([]stream.Update{u}) }

// Pass2AddBatch ingests a batch of second-pass updates on the calling
// goroutine: Pass2AddBatchOpts at one worker.
func (g *Grid) Pass2AddBatch(batch []stream.Update) error { return g.ingest(batch, 1, 1) }

// Pass2AddBatchOpts ingests a batch of second-pass updates, fanned out
// across the policy's workers. Each chunk is bucketed once per column
// — an update reaches cells (1, j)..(t, j) for its column-j level — and
// every cell then ingests its whole share of the chunk in one call to
// its own pass-2 kernel. With w workers (parallel.BatchWorkers) a
// parallel.Crew sweeps w cell ranges of equal update share; cells are
// independent states, so no lock is taken, and the grid is bit-identical
// to feeding every update to its cells one at a time.
func (g *Grid) Pass2AddBatchOpts(batch []stream.Update, p *parallel.Policy) error {
	return g.ingest(batch, 1, parallel.BatchWorkers(p.Workers(), len(batch)))
}

// gridSweep is the working memory of the grid's ingest, kept on the
// grid. cols[j] holds a chunk's updates deepest column-j level first, so
// that cell (t, j)'s substream E^j_t is a prefix of it; below[i] counts
// the updates of the cells under i, so cell i's prefix is
// below[i+1]−below[i] long, and is the weight the crew's cut balances.
type gridSweep struct {
	tops  []int // per update: the last row t whose column-j cell it reaches
	reach []int // per row: the column's updates reaching it
	at    []int // placement cursors per row
	cols  [][]stream.Update
	below []int
	add   func(cell *spanner.TwoPass, sub []stream.Update) error // the open pass's batch ingest
	errs  []error
	crew  parallel.Crew[*Grid, struct{}]
}

// ingest feeds a batch to the cells of the pass open in the given phase
// (0: pass 1, 1: pass 2), a default batch at a time: each is bucketed
// per column, the cells are cut into w ranges and every range is swept
// on its own goroutine.
func (g *Grid) ingest(batch []stream.Update, phase, w int) error {
	if g.phase != phase {
		return fmt.Errorf("sparsify: grid pass-%d ingest in phase %d", phase+1, g.phase)
	}
	if g.sweep == nil {
		g.sweep = &gridSweep{reach: make([]int, g.cfg.T+2), at: make([]int, g.cfg.T+2),
			cols: make([][]stream.Update, g.cfg.J), below: make([]int, len(g.cells)+1)}
	}
	sw := g.sweep
	sw.add = (*spanner.TwoPass).Pass1AddBatch
	if phase == 1 {
		sw.add = (*spanner.TwoPass).Pass2AddBatch
	}
	sw.crew.Borrow(nil, w)
	if len(sw.errs) < w {
		sw.errs = make([]error, w)
	}
	for lo := 0; lo < len(batch); lo += stream.DefaultBatchSize {
		g.bucket(batch[lo:min(lo+stream.DefaultBatchSize, len(batch))])
		sw.crew.Cut(len(g.cells), g.cellsBelow)
		sw.crew.Run(g, sweepCells)
		for _, err := range sw.errs[:w] {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// bucket sorts the chunk into every column's list, deepest level first,
// and counts each cell's prefix.
func (g *Grid) bucket(chunk []stream.Update) {
	sw, T, J := g.sweep, g.cfg.T, g.cfg.J
	sw.tops = slices.Grow(sw.tops[:0], len(chunk))[:len(chunk)]
	for j := range sw.cols {
		reach := sw.reach
		clear(reach)
		for i, u := range chunk {
			sw.tops[i] = min(g.colHash[j].Level(stream.PairKey(u.U, u.V, g.n))+1, T)
			reach[sw.tops[i]]++
		}
		// reach[t] becomes the count of updates reaching row t, and at[t]
		// the first slot of those whose last row is t.
		for t := T; t >= 1; t-- {
			sw.at[t] = reach[t+1]
			reach[t] += reach[t+1]
			sw.below[(t-1)*J+j+1] = reach[t]
		}
		col := slices.Grow(sw.cols[j][:0], len(chunk))[:len(chunk)]
		for i, u := range chunk {
			col[sw.at[sw.tops[i]]] = u
			sw.at[sw.tops[i]]++
		}
		sw.cols[j] = col
	}
	for i := range g.cells {
		sw.below[i+1] += sw.below[i]
	}
}

// cellsBelow counts the bucketed updates of the cells under i.
func (g *Grid) cellsBelow(i int) int { return g.sweep.below[i] }

// sweepCells feeds part k's cells their shares of the chunk.
func sweepCells(g *Grid, k int) {
	sw, J := g.sweep, g.cfg.J
	sp := &sw.crew.Spans[k]
	sw.errs[k] = nil
	for i := sp.Lo; i < sp.Hi; i++ {
		sub := sw.cols[i%J][:sw.below[i+1]-sw.below[i]]
		if len(sub) == 0 {
			continue
		}
		if err := sw.add(g.cells[i], sub); err != nil {
			sw.errs[k] = g.cellErr(i, err)
			return
		}
	}
}

// MergePass2 adds another grid's second-pass table state, cell-wise.
func (g *Grid) MergePass2(o *Grid) error {
	return g.merge(o, (*spanner.TwoPass).MergePass2)
}

// merge folds another grid into g cell by cell with the pass's merge.
func (g *Grid) merge(o *Grid, mergeCell func(dst, src *spanner.TwoPass) error) error {
	if g.n != o.n || g.cfg != o.cfg {
		return fmt.Errorf("sparsify: merging incompatible grids (n %d/%d)", g.n, o.n)
	}
	for i, c := range g.cells {
		if err := mergeCell(c, o.cells[i]); err != nil {
			return g.cellErr(i, fmt.Errorf("merge: %w", err))
		}
	}
	return nil
}

// cellErr names cell i in a cell's error.
func (g *Grid) cellErr(i int, err error) error {
	if err != nil {
		return fmt.Errorf("sparsify: grid cell (t=%d, j=%d): %w", i/g.cfg.J+1, i%g.cfg.J, err)
	}
	return nil
}

// Finish decodes every cell into its distance oracle and assembles the
// Estimator — identical to NewEstimator over the same whole stream.
func (g *Grid) Finish() (*Estimator, error) {
	return g.FinishOpts(parallel.Default())
}

// FinishOpts fans the per-cell spanner extraction (table peeling and
// neighborhood recovery of every cell's Finish) across the policy's
// decode workers, assembling the oracle grid by (t, j) index — the
// Estimator is identical to Finish's.
func (g *Grid) FinishOpts(p *parallel.Policy) (*Estimator, error) {
	if g.phase != 1 {
		return nil, fmt.Errorf("sparsify: grid Finish in phase %d", g.phase)
	}
	p = p.DecodePolicy()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}
	g.phase = 2
	sp := p.Tracer().Span("sparsify/grid/extract")
	oracles, err := parallel.MapOpts(p, len(g.cells), func(i int) (Oracle, error) {
		res, err := g.cells[i].Finish()
		if err != nil {
			return nil, g.cellErr(i, err)
		}
		return newSpannerOracle(res, g.cfg.K), nil
	})
	if err != nil {
		return nil, err
	}
	sp.End(obs.A("cells", int64(len(g.cells))))
	return newEstimator(g.cfg, oracles), nil
}

// NewEstimatorOpts is the policy-driven estimator build: the oracle
// grid's two passes run through parallel.RunTwoPass under p's context,
// workers, batch size, and progress sink, producing an Estimator
// identical to NewEstimator's for any policy. The source must be
// replayable.
func NewEstimatorOpts(src stream.Source, cfg EstimateConfig, p *parallel.Policy) (*Estimator, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: estimator: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	return parallel.RunTwoPass(p, "sparsify: estimator", parallel.Local[*Grid](p, src),
		func() (*Grid, error) { return NewGrid(src.N(), cfg) })
}

// SparsifyOpts is the policy-driven sparsifier build: the oracle grid
// runs its two passes under p, and the Z×H augmented-spanner builds of
// Algorithms 5–6 fan out over p's worker pool (each inner build runs
// serially under the same context, so cancellation is observed at
// batch granularity everywhere). All filtering and averaging happens
// on the merged states in the serial order, so the output sparsifier
// is identical to Sparsify's for the same configuration under any
// policy.
func SparsifyOpts(src stream.Source, cfg Config, p *parallel.Policy) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	est, err := NewEstimatorOpts(src, cfg.Estimate, p)
	if err != nil {
		return nil, err
	}

	// Fan the Z×H augmented-spanner builds out over the pool. Each
	// build is self-contained (its own sketch state over a filtered
	// replay of src), so tasks share nothing but the read-only stream —
	// which must therefore support concurrent replay; a single-cursor
	// source (file-backed ReaderSource) degrades to a sequential loop.
	// Substream and spanner configuration come from the same helpers
	// SampleOnce uses, so the serial and parallel samples cannot drift.
	// While the fan-out is actually parallel the inner builds run fully
	// serial — ingest and decode — since the task fan already saturates
	// the pool; a sequential fan (single-cursor source, or one worker)
	// keeps the policy's decode parallelism inside each build instead.
	inner := p.WithWorkers(1)
	fan := p
	if !stream.ConcurrentReplayable(src) {
		fan = inner
	}
	if fan.Workers() > 1 {
		inner = inner.WithDecode(1)
	}
	aug, err := parallel.MapOpts(fan, cfg.Z*cfg.H, func(i int) (*spanner.Result, error) {
		s, j := i/cfg.H, i%cfg.H+1
		res, err := spanner.BuildTwoPassOpts(sampleSubstream(src, cfg, s, j), sampleSpannerConfig(cfg, s, j), inner)
		if err != nil {
			return nil, fmt.Errorf("sparsify: sample rep=%d j=%d: %w", s, j, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return sampleAndAverage(src.N(), cfg, est, func(s int) ([]*spanner.Result, error) {
		return aug[s*cfg.H : (s+1)*cfg.H], nil
	})
}

// SparsifyWith is the sparsification pipeline with injected pass
// engines: buildEstimator constructs the robust-connectivity estimator
// (the oracle grid's two passes), and buildSpanner constructs one
// augmented spanner over a subsampled substream. The substream/config
// derivations, the filtering against the estimates, and the averaging
// are shared with every other pipeline, so any engine that ingests the
// same updates into the same-seeded states — the serial references, a
// policy worker pool, or dynnet's remote workers — produces an
// identical sparsifier. The Z×H sample builds run sequentially;
// concurrent fan-out stays in SparsifyOpts.
func SparsifyWith(src stream.Source, cfg Config,
	buildEstimator func(cfg EstimateConfig) (*Estimator, error),
	buildSpanner func(sub stream.Source, scfg spanner.Config) (*spanner.Result, error),
) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	est, err := buildEstimator(cfg.Estimate)
	if err != nil {
		return nil, err
	}
	return sampleAndAverage(src.N(), cfg, est, func(s int) ([]*spanner.Result, error) {
		return sampleSpanners(src, cfg, s, buildSpanner)
	})
}

// SparsifyWeightedWith is the weight-class sparsifier with an injected
// per-class builder (see spanner.BuildTwoPassWeightedWith for the
// pattern): each class is sparsified and rescaled by its class upper
// bound. classBase 0 means no weight classes: build runs once over src.
func SparsifyWeightedWith(src stream.Source, cfg Config, classBase float64, build func(stream.Source, Config) (*Result, error)) (*Result, error) {
	if classBase == 0 {
		return build(src, cfg)
	}
	if classBase <= 1 {
		return nil, fmt.Errorf("sparsify: classBase must be > 1, got %v", classBase)
	}
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	classes, sub := stream.WeightClasses(src, classBase)
	out := graph.New(src.N())
	total := &Result{Sparsifier: out}
	for _, c := range classes {
		ccfg := cfg
		ccfg.Seed = hashing.Mix(cfg.Seed, 0x3d, uint64(c))
		ccfg.Estimate.Seed = hashing.Mix(cfg.Seed, 0x3e, uint64(c))
		res, err := build(sub[c], ccfg)
		if err != nil {
			return nil, fmt.Errorf("sparsify: weight class %d: %w", c, err)
		}
		scale := math.Pow(classBase, float64(c+1))
		for _, e := range res.Sparsifier.Edges() {
			if w, ok := out.Weight(e.U, e.V); ok {
				out.AddEdge(e.U, e.V, w+scale*e.W)
			} else {
				out.AddEdge(e.U, e.V, scale*e.W)
			}
		}
		total.SpaceWords += res.SpaceWords
		total.Samples += res.Samples
	}
	return total, nil
}
