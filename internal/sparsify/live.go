package sparsify

import (
	"fmt"

	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// Live is the mutable sparsifier state behind a live build handle: a
// sparsifier's grid whose cells — the T×J oracle cells and the Z×H
// sample spanners — are each held as a live two-pass spanner state
// (pass 1 permanently open, its log kept, see
// spanner.TwoPass.StartLive). ApplyLive routes every update to exactly
// the cells whose subsampled edge set contains it — an untouched cell
// sees zero generation churn, so its next QueryLive is answered
// entirely from its attachment and recovery caches. QueryLive
// reassembles the Estimator and the weighted samples from the per-cell
// extractions through the same assembly as the cold pipelines, so the
// output is bit-identical to a cold Sparsify over the base stream plus
// every applied batch.
type Live struct {
	grid *Grid // cells held live; the grid's own pass protocol is unused
}

// StartLive builds the live sparsifier state over the replayable base
// stream src: every grid cell ingests its filtered view of src through
// pass 1 and retains it for the pass-2 replays its first query needs.
func StartLive(src stream.Stream, cfg Config) (*Live, error) {
	g := newGrid(src.N(), cfg.withDefaults(src.N()), true)
	for i, c := range g.cells {
		if err := c.StartLive(g.substream(src, i)); err != nil {
			return nil, g.cellErr(i, err)
		}
	}
	return &Live{grid: g}, nil
}

// N returns the vertex count.
func (ls *Live) N() int { return ls.grid.n }

// DecodeCacheStats sums the decode-cache hit/miss counters of every
// underlying live spanner state (grid cells and sample spanners).
func (ls *Live) DecodeCacheStats() (hits, misses uint64) {
	for _, c := range ls.grid.cells {
		h, m := c.DecodeCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// ApplyLive folds a batch of updates into the live state. Each update
// reaches exactly the cells whose subsampled edge set contains it — the
// same membership the grid's sweep and the cold pipeline's
// SampledSubstream filters enforce — in batch order, so every cell's
// pass-1 sketches and live log stay identical to a from-scratch build
// over the total stream, and untouched cells keep their caches warm.
func (ls *Live) ApplyLive(batch []stream.Update) error {
	if len(batch) == 0 {
		return nil
	}
	g := ls.grid
	// Each pair key's powers are computed once, as Grid.bucket does, and
	// every column's level hash is a dot product over them.
	pows := make([]hashing.Powers, len(batch))
	for i, u := range batch {
		hashing.PowersOf(stream.PairKey(u.U, u.V, g.n), &pows[i])
	}
	levels := make([]int, len(batch))
	var sub []stream.Update // a cell's ApplyLive copies its batch into the log
	for _, col := range g.cols {
		for i := range pows {
			levels[i] = col.hash.LevelPow(&pows[i])
		}
		for r := 0; r < col.rows; r++ {
			sub = sub[:0]
			for i, u := range batch {
				if levels[i] >= r+col.first {
					sub = append(sub, u)
				}
			}
			if len(sub) == 0 {
				continue
			}
			i := col.base + r*col.stride
			if err := g.cells[i].ApplyLive(sub); err != nil {
				return g.cellErr(i, err)
			}
		}
	}
	return nil
}

// QueryLive extracts the sparsifier from the live state's current
// contents — bit-identical to a cold Sparsify/SparsifyOpts over the
// base stream plus every applied batch, at any worker count. Only dirty
// regions re-decode: each cell re-clusters through its attachment
// cache, reuses its pass-2 tables when its cluster forest is unchanged
// (folding just the unsynced log suffix), and recovers neighborhoods
// through its per-terminal cache.
func (ls *Live) QueryLive(p *parallel.Policy) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}
	g := ls.grid
	results := make([]*spanner.Result, len(g.cells))
	for i, c := range g.cells {
		res, err := c.QueryLive(p)
		if err != nil {
			return nil, g.cellErr(i, err)
		}
		results[i] = res
	}
	est := g.estimator(results)
	return sampleAndAverage(g.n, g.cfg, est, est.samples), nil
}
