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

// This file is the sparsifier's one sketch state and the builds that
// drive it. Two layers:
//
//   - Grid is the mergeable sketch state of every two-pass spanner the
//     sparsifier runs: Algorithm 4's J×T oracle grid and, in a
//     sparsifier's grid, the Z×H augmented sample spanners of
//     Algorithms 5–6. Both are families of nested subsampled edge sets,
//     so each family is a column of cells under one level hash, and the
//     whole grid is a linear function of the update stream — grids of
//     disjoint stream parts merge into exactly the single-threaded grid.
//   - SparsifyOpts / NewEstimatorOpts run one grid's two passes through
//     parallel.RunTwoPass: both passes ingest into that one grid, its
//     cells swept in ranges by the policy's workers. The remote
//     sparsifier runs the same grid on dynnet workers (SparsifyOn), and
//     a live sparsifier holds it live. Every decode happens on the one
//     state, so the output is identical to the serial pipeline.

// Grid is the linear sketch state underlying an Estimator and a
// sparsifier: one two-pass spanner state per cell, in columns of nested
// subsampled edge sets. Oracle column j's cell (t, j) sketches E^j_t at
// rate 2^{-(t-1)}; sample column s's cell (s, j) sketches invocation
// s's E_j at rate 2^{-j}. It supports the same pass protocol as
// spanner.TwoPass, plus cell-wise merging, and finishes into an
// Estimator identical to NewEstimator's.
type Grid struct {
	cfg  Config // Estimate is the oracle grid's; Z = 0 in an estimator's grid
	n    int
	cols []gridCol // the J oracle columns, then the Z sample columns
	// cells holds the oracle cells t-major, cells[(t-1)·J + j], then the
	// sample cells s-major, cells[T·J + s·H + j-1].
	cells []*spanner.TwoPass
	phase int
	sweep *gridSweep // ingest scratch
}

// gridCol is one column: rows cells over the nested samples
// SampledSubstream(src, seed, ·). The cell of row r (from 0) sketches
// the edges whose level is at least r+first, and is
// cells[base + r·stride].
type gridCol struct {
	seed         uint64
	hash         *hashing.Poly // SampledSubstream's level hash for seed
	rows, first  int
	base, stride int
}

// NewGrid creates the oracle-grid sketch state of an estimator for a
// graph on n vertices: a grid without sample columns. Grids built from
// the same (n, cfg) are mergeable.
func NewGrid(n int, cfg EstimateConfig) (*Grid, error) {
	return newGrid(n, Config{Estimate: cfg.withDefaults(n)}, true), nil
}

// newGrid lays out the grid of a resolved configuration, its cells
// fresh states or, for a decoder to fill, empty ones.
func newGrid(n int, cfg Config, fresh bool) *Grid {
	e := cfg.Estimate
	g := &Grid{cfg: cfg, n: n, cells: make([]*spanner.TwoPass, e.T*e.J+cfg.Z*cfg.H)}
	col := func(seed uint64, rows, first, base, stride int) {
		g.cols = append(g.cols, gridCol{seed: seed, hash: hashing.NewPoly(hashing.Mix(seed, 0xe1), 8),
			rows: rows, first: first, base: base, stride: stride})
	}
	for j := 0; j < e.J; j++ {
		col(hashing.Mix(e.Seed, 0xe5, uint64(j)), e.T, 0, j, e.J) // the seed of e.substream
	}
	for s := 0; s < cfg.Z; s++ {
		col(hashing.Mix(cfg.Seed, 0x5a, uint64(s)), cfg.H, 1, e.T*e.J+s*cfg.H, 1) // the seed of sampleSubstream
	}
	for i := range g.cells {
		if fresh {
			g.cells[i] = spanner.NewTwoPass(n, g.cellConfig(i))
		} else {
			g.cells[i] = new(spanner.TwoPass)
		}
	}
	return g
}

// locate returns the column and row (from 0) of cell i.
func (g *Grid) locate(i int) (c, r int) {
	J, TJ := g.cfg.Estimate.J, g.cfg.Estimate.T*g.cfg.Estimate.J
	if i < TJ {
		return i % J, i / J
	}
	return J + (i-TJ)/g.cfg.H, (i - TJ) % g.cfg.H
}

// cellConfig is the spanner configuration of cell i.
func (g *Grid) cellConfig(i int) spanner.Config {
	if c, r := g.locate(i); c >= g.cfg.Estimate.J {
		return sampleSpannerConfig(g.cfg, c-g.cfg.Estimate.J, r+1)
	}
	return g.cfg.Estimate.cellConfig(i)
}

// substream is the view of src that cell i sketches.
func (g *Grid) substream(src stream.Stream, i int) stream.Stream {
	c, r := g.locate(i)
	return stream.SampledSubstream(src, g.cols[c].seed, r+g.cols[c].first)
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

// Pass1AddBatchOpts ingests a batch of first-pass updates with the
// cell-range sweep of Pass2AddBatchOpts, each cell's share going to its
// pass-1 kernel.
func (g *Grid) Pass1AddBatchOpts(batch []stream.Update, p *parallel.Policy) error {
	return g.ingest(batch, 0, parallel.BatchWorkers(p.Workers(), len(batch)))
}

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
// workers. Cells are addressed by index, so the grid that emerges is
// identical to the serial cell-by-cell construction; each cell's own
// construction runs serially (the cell fan-out already saturates the
// pool).
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
	w := &Grid{cfg: g.cfg, n: g.n, cols: g.cols, cells: make([]*spanner.TwoPass, len(g.cells)), phase: 1}
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
// — an update reaches the column's cells from row 1 down to its level —
// and every cell then ingests its whole share of the chunk in one call
// to its own pass-2 kernel. With w workers (parallel.BatchWorkers) a
// parallel.Crew sweeps w cell ranges of equal update share; cells are
// independent states, so no lock is taken, and the grid is bit-identical
// to feeding every update to its cells one at a time.
func (g *Grid) Pass2AddBatchOpts(batch []stream.Update, p *parallel.Policy) error {
	return g.ingest(batch, 1, parallel.BatchWorkers(p.Workers(), len(batch)))
}

// gridSweep is the working memory of the grid's ingest, kept on the
// grid. cols[c] holds a chunk's updates deepest column-c level first,
// so that every cell's substream is a prefix of its column's list;
// below[i] counts the updates of the cells under i, so cell i's prefix
// is below[i+1]−below[i] long, and is the weight the crew's cut
// balances.
type gridSweep struct {
	pows  []hashing.Powers // per update: its pair key's powers, shared by the columns
	tops  []int            // per update: the last row (from 1) of the column it reaches, 0 for none
	reach []int            // per row: the column's updates reaching it
	at    []int            // placement cursors per row
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
		rows := max(g.cfg.Estimate.T, g.cfg.H) + 2
		g.sweep = &gridSweep{reach: make([]int, rows), at: make([]int, rows),
			cols: make([][]stream.Update, len(g.cols)), below: make([]int, len(g.cells)+1)}
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
// and counts each cell's prefix. Each key's powers are computed once
// and every column's level hash is a dot product over them.
func (g *Grid) bucket(chunk []stream.Update) {
	sw := g.sweep
	sw.pows = slices.Grow(sw.pows[:0], len(chunk))[:len(chunk)]
	for i, u := range chunk {
		hashing.PowersOf(stream.PairKey(u.U, u.V, g.n), &sw.pows[i])
	}
	sw.tops = slices.Grow(sw.tops[:0], len(chunk))[:len(chunk)]
	for c, col := range g.cols {
		reach := sw.reach[:col.rows+2]
		clear(reach)
		for i := range sw.pows {
			sw.tops[i] = min(col.hash.LevelPow(&sw.pows[i])+1-col.first, col.rows)
			reach[sw.tops[i]]++
		}
		// reach[r] becomes the count of updates reaching row r, and at[r]
		// the first slot of those whose last row is r; the updates that
		// reach no row go last.
		for r := col.rows; r >= 1; r-- {
			sw.at[r] = reach[r+1]
			reach[r] += reach[r+1]
			sw.below[col.base+(r-1)*col.stride+1] = reach[r]
		}
		sw.at[0] = reach[1]
		list := slices.Grow(sw.cols[c][:0], len(chunk))[:len(chunk)]
		for i, u := range chunk {
			list[sw.at[sw.tops[i]]] = u
			sw.at[sw.tops[i]]++
		}
		sw.cols[c] = list
	}
	for i := range g.cells {
		sw.below[i+1] += sw.below[i]
	}
}

// cellsBelow counts the bucketed updates of the cells under i.
func (g *Grid) cellsBelow(i int) int { return g.sweep.below[i] }

// sweepCells feeds part k's cells their shares of the chunk.
func sweepCells(g *Grid, k int) {
	sw := g.sweep
	sp := &sw.crew.Spans[k]
	sw.errs[k] = nil
	for i := sp.Lo; i < sp.Hi; i++ {
		c, _ := g.locate(i)
		sub := sw.cols[c][:sw.below[i+1]-sw.below[i]]
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
	a, b := g.cfg, o.cfg
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"n", g.n, o.n}, {"K", a.K, b.K}, {"Z", a.Z, b.Z}, {"H", a.H, b.H}, {"Seed", a.Seed, b.Seed},
		{"Estimate.K", a.Estimate.K, b.Estimate.K}, {"Estimate.J", a.Estimate.J, b.Estimate.J},
		{"Estimate.T", a.Estimate.T, b.Estimate.T}, {"Estimate.Delta", a.Estimate.Delta, b.Estimate.Delta},
		{"Estimate.Threshold", a.Estimate.Threshold, b.Estimate.Threshold},
		{"Estimate.Seed", a.Estimate.Seed, b.Estimate.Seed},
	} {
		if f.a != f.b {
			return fmt.Errorf("sparsify: merging incompatible grids (%s %v/%v)", f.name, f.a, f.b)
		}
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
	if err == nil {
		return nil
	}
	c, r := g.locate(i)
	if J := g.cfg.Estimate.J; c >= J {
		return fmt.Errorf("sparsify: sample rep=%d j=%d: %w", c-J, r+1, err)
	}
	return fmt.Errorf("sparsify: grid cell (t=%d, j=%d): %w", r+1, c, err)
}

// Finish decodes every cell into its distance oracle and assembles the
// Estimator — identical to NewEstimator over the same whole stream.
func (g *Grid) Finish() (*Estimator, error) {
	return g.FinishOpts(parallel.Default())
}

// FinishOpts fans the per-cell spanner extraction (table peeling and
// neighborhood recovery of every cell's Finish) across the policy's
// decode workers and assembles the Estimator by cell index — identical
// to Finish's.
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
	results, err := parallel.MapOpts(p, len(g.cells), func(i int) (*spanner.Result, error) {
		res, err := g.cells[i].Finish()
		return res, g.cellErr(i, err)
	})
	if err != nil {
		return nil, err
	}
	sp.End(obs.A("cells", int64(len(g.cells))))
	return g.estimator(results), nil
}

// estimator assembles the Estimator from every cell's spanner, in cell
// order: the oracle cells become its oracles, and the sample cells'
// spanners ride along for sampleAndAverage.
func (g *Grid) estimator(results []*spanner.Result) *Estimator {
	e := g.cfg.Estimate
	oracles := make([]Oracle, e.T*e.J)
	for i := range oracles {
		oracles[i] = newSpannerOracle(results[i], e.K)
	}
	est := newEstimator(e, oracles)
	est.samples = results[len(oracles):]
	return est
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
	return parallel.RunTwoPass(p, "sparsify: estimator", parallel.Local[*Grid](p, src),
		func() (*Grid, error) { return NewGrid(src.N(), cfg) })
}

// SparsifyOpts is the policy-driven sparsifier build: SparsifyOn over
// the in-process engine, so the output sparsifier is identical to
// Sparsify's for the same configuration under any policy.
func SparsifyOpts(src stream.Source, cfg Config, p *parallel.Policy) (*Result, error) {
	return SparsifyOn(parallel.Local[*Grid](p, src), src, cfg, p)
}

// SparsifyOn is the sparsifier build over the pass engine e: one grid
// holding the oracle grid and the Z×H augmented sample spanners runs
// its two passes through parallel.RunTwoPass, with the offline stages
// under p, and the samples are filtered against the estimates and
// averaged in the serial order. Any engine that ingests src into the
// grid — the in-process one, or dynstream's remote workers — produces
// the sparsifier Sparsify does. The source must be replayable.
func SparsifyOn(e parallel.Engine[*Grid], src stream.Source, cfg Config, p *parallel.Policy) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	cfg = cfg.withDefaults(src.N())
	est, err := parallel.RunTwoPass(p, "sparsify: grid", e,
		func() (*Grid, error) { return newGrid(src.N(), cfg, true), nil })
	if err != nil {
		return nil, err
	}
	return sampleAndAverage(src.N(), cfg, est, est.samples), nil
}

// SparsifyWith is the sparsification pipeline with injected pass
// engines: buildEstimator constructs the robust-connectivity estimator
// (the oracle grid's two passes), and buildSpanner constructs one
// augmented spanner over a subsampled substream. The substream/config
// derivations, the filtering against the estimates, and the averaging
// are shared with every other pipeline, so any engines that ingest the
// same updates into the same-seeded states produce an identical
// sparsifier. The Z×H sample builds run one after another; it is the
// staged form of the build, for references that swap an engine out.
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
	results := make([]*spanner.Result, 0, cfg.Z*cfg.H)
	for s := 0; s < cfg.Z; s++ {
		rs, err := sampleSpanners(src, cfg, s, buildSpanner)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
	}
	return sampleAndAverage(src.N(), cfg, est, results), nil
}

// SparsifyWeightedWith is the weight-class sparsifier with an injected
// per-class builder (see spanner.BuildTwoPassWeightedWith for the
// pattern): each class is sparsified and rescaled by its class upper
// bound. classBase 0 means no weight classes: build runs once over src.
func SparsifyWeightedWith(src stream.Source, cfg Config, classBase float64, build func(stream.Source, Config) (*Result, error)) (*Result, error) {
	if classBase == 0 {
		return build(src, cfg)
	}
	if !(classBase > 1) || math.IsInf(classBase, 1) {
		return nil, fmt.Errorf("sparsify: classBase must be in (1, +Inf), got %v", classBase)
	}
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("sparsify: %w", stream.ErrNotReplayable)
	}
	classes, sub, err := stream.WeightClasses(src, classBase)
	if err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}
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
