package sparsify

import (
	"fmt"
	"slices"

	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// Live is the mutable sparsifier state behind a live build handle: the
// T×J oracle-grid cells and the Z×H sample spanners are each held as a
// live two-pass spanner state (pass 1 permanently open, see
// spanner.TwoPass.StartLive). ApplyLive routes every update to exactly
// the states whose subsampled edge set contains it — an untouched state
// sees zero generation churn, so its next QueryLive is answered
// entirely from its attachment and recovery caches. QueryLive
// reassembles the Estimator and the weighted samples from the per-state
// extractions through the same assembly as the cold pipelines, so the
// output is bit-identical to a cold Sparsify over the base stream plus
// every applied batch.
type Live struct {
	cfg  Config
	n    int
	grid *Grid // cells held live; the grid's own pass protocol is unused
	// repHash[s] is the level hash of invocation s's nested sample
	// streams: E_j keeps the edges with level >= j. Must match
	// sampleSubstream (stream.SampledSubstream mixes 0xe1 onto the seed).
	repHash []*hashing.Poly
	reps    []*spanner.TwoPass // s-major: reps[s·H + j-1] over E_j of invocation s
}

// newLive lays out a live state over grid g with rep(i) as sample
// state i (see newGrid).
func newLive(cfg Config, g *Grid, rep func(i int) *spanner.TwoPass) *Live {
	ls := &Live{cfg: cfg, n: g.n, grid: g,
		repHash: make([]*hashing.Poly, cfg.Z), reps: make([]*spanner.TwoPass, cfg.Z*cfg.H)}
	for i := range ls.reps {
		ls.reps[i] = rep(i)
	}
	for s := range ls.repHash {
		ls.repHash[s] = hashing.NewPoly(hashing.Mix(hashing.Mix(cfg.Seed, 0x5a, uint64(s)), 0xe1), 8)
	}
	return ls
}

// all lists every live spanner state: the grid cells t-major, then the
// samples s-major — the order of the encoding too.
func (ls *Live) all() []*spanner.TwoPass { return append(slices.Clip(ls.grid.cells), ls.reps...) }

// substream is the view of src that state i of all ingests.
func (ls *Live) substream(src stream.Stream, i int) stream.Stream {
	if c := len(ls.grid.cells); i >= c {
		return sampleSubstream(src, ls.cfg, (i-c)/ls.cfg.H, (i-c)%ls.cfg.H+1)
	}
	return ls.grid.cfg.substream(src, i/ls.grid.cfg.J+1, i%ls.grid.cfg.J)
}

// stateErr names state i of all in its error.
func (ls *Live) stateErr(i int, err error) error {
	if c := len(ls.grid.cells); i >= c {
		return fmt.Errorf("sparsify: live sample rep=%d j=%d: %w", (i-c)/ls.cfg.H, (i-c)%ls.cfg.H+1, err)
	}
	return ls.grid.cellErr(i, err)
}

// StartLive builds the live sparsifier state over the replayable base
// stream src: every grid cell and sample spanner ingests its filtered
// view of src through pass 1 and retains it for the pass-2 replays its
// first query needs.
func StartLive(src stream.Stream, cfg Config) (*Live, error) {
	cfg = cfg.withDefaults(src.N())
	g, err := NewGrid(src.N(), cfg.Estimate)
	if err != nil {
		return nil, err
	}
	ls := newLive(cfg, g, func(i int) *spanner.TwoPass {
		return spanner.NewTwoPass(src.N(), sampleSpannerConfig(cfg, i/cfg.H, i%cfg.H+1))
	})
	for i, tp := range ls.all() {
		if err := tp.StartLive(ls.substream(src, i)); err != nil {
			return nil, ls.stateErr(i, err)
		}
	}
	return ls, nil
}

// N returns the vertex count.
func (ls *Live) N() int { return ls.n }

// DecodeCacheStats sums the decode-cache hit/miss counters of every
// underlying live spanner state (grid cells and sample spanners).
func (ls *Live) DecodeCacheStats() (hits, misses uint64) {
	for _, tp := range ls.all() {
		h, m := tp.DecodeCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// ApplyLive folds a batch of updates into the live state. Each update
// reaches exactly the grid cells and sample spanners whose subsampled
// edge set contains it — the same membership the cold pipeline's
// SampledSubstream filters enforce — so every state's pass-1 sketches
// and live log stay identical to a from-scratch build over the total
// stream, and untouched states keep their caches warm.
func (ls *Live) ApplyLive(batch []stream.Update) error {
	if len(batch) == 0 {
		return nil
	}
	ecfg := ls.grid.cfg
	levels := make([]int, len(batch))
	// Pair keys are loop-invariant across the J columns and Z sample
	// invocations below; hoist them out of the per-column level sweeps.
	keys := make([]uint64, len(batch))
	for i, u := range batch {
		keys[i] = stream.PairKey(u.U, u.V, ls.n)
	}
	all := ls.all()
	// route applies to state i the updates whose level reaches lvl.
	route := func(i, lvl int) error {
		var sub []stream.Update
		for b, u := range batch {
			if levels[b] >= lvl {
				sub = append(sub, u)
			}
		}
		if len(sub) == 0 {
			return nil
		}
		return all[i].ApplyLive(sub)
	}
	for j := 0; j < ecfg.J; j++ {
		for i := range batch {
			levels[i] = ls.grid.colHash[j].Level(keys[i])
		}
		for t := 1; t <= ecfg.T; t++ {
			// Cell (t, j) sketches E^j_t: edges with column-j level >= t-1.
			if err := route((t-1)*ecfg.J+j, t-1); err != nil {
				return ls.stateErr((t-1)*ecfg.J+j, err)
			}
		}
	}
	for s := 0; s < ls.cfg.Z; s++ {
		for i := range batch {
			levels[i] = ls.repHash[s].Level(keys[i])
		}
		for j := 1; j <= ls.cfg.H; j++ {
			// Sample stream E_j keeps the edges with invocation-s level >= j.
			i := len(ls.grid.cells) + s*ls.cfg.H + j - 1
			if err := route(i, j); err != nil {
				return ls.stateErr(i, err)
			}
		}
	}
	return nil
}

// QueryLive extracts the sparsifier from the live state's current
// contents — bit-identical to a cold Sparsify/SparsifyOpts over the
// base stream plus every applied batch, at any worker count. Only dirty
// regions re-decode: each cell and sample re-clusters through its
// attachment cache, reuses its pass-2 tables when its cluster forest is
// unchanged (folding just the unsynced log suffix), and recovers
// neighborhoods through its per-terminal cache.
func (ls *Live) QueryLive(p *parallel.Policy) (*Result, error) {
	p = p.DecodePolicy()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}
	ecfg := ls.grid.cfg
	oracles := make([]Oracle, len(ls.grid.cells))
	for i, c := range ls.grid.cells {
		res, err := c.QueryLive(p)
		if err != nil {
			return nil, ls.stateErr(i, err)
		}
		oracles[i] = newSpannerOracle(res, ecfg.K)
	}
	return sampleAndAverage(ls.n, ls.cfg, newEstimator(ecfg, oracles), func(s int) ([]*spanner.Result, error) {
		results := make([]*spanner.Result, ls.cfg.H)
		for j := range results {
			i := s*ls.cfg.H + j
			res, err := ls.reps[i].QueryLive(p)
			if err != nil {
				return nil, ls.stateErr(len(ls.grid.cells)+i, err)
			}
			results[j] = res
		}
		return results, nil
	})
}
