package sparsify

import (
	"errors"
	"fmt"

	"dynstream/internal/spanner"
	"dynstream/internal/wire"
)

// Binary serialization for the oracle-grid sketch state, so per-shard
// grids can be shipped between processes and merged at a coordinator
// (MergePass1/MergePass2) exactly like the spanner states they are
// made of.

var errCorrupt = errors.New("sparsify: corrupt serialized data")

// MarshalBinary encodes the grid: configuration plus every cell's
// two-pass spanner state. A finished grid (after Finish) cannot be
// marshaled.
func (g *Grid) MarshalBinary() ([]byte, error) {
	if g.phase > 1 {
		return nil, fmt.Errorf("sparsify: cannot marshal a finished grid")
	}
	w := &wire.Writer{}
	w.U64(wire.TagGrid)
	w.U64(uint64(g.n))
	w.U64(uint64(g.phase))
	writeGridConfig(w, g.cfg)
	for _, c := range g.cells {
		enc, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Block(enc)
	}
	return w.Bytes(), nil
}

// minCellBytes is the least one grid cell or sample state takes on the
// wire: a u64 block length and a TwoPass header. Decoders lay out a
// grid only once the remaining input holds that much per state, so the
// state count — and every allocation made per state — is bounded by the
// input.
const minCellBytes = 88

// writeGridConfig writes the oracle-grid configuration that Grid and
// Live both encode, as readGrid reads it.
func writeGridConfig(w *wire.Writer, cfg EstimateConfig) {
	w.U64(uint64(cfg.K))
	w.U64(uint64(cfg.J))
	w.U64(uint64(cfg.T))
	w.F64(cfg.Delta)
	w.F64(cfg.Threshold)
	w.U64(cfg.Seed)
}

// readGrid reads the oracle-grid configuration and lays out a grid for
// it on n vertices, its cells empty states to decode into. The
// configuration must be the one NewGrid resolves for n — a re-defaulted
// field would re-seed the substream wiring — and the remaining input
// must hold the T·J cells and extra more states.
func readGrid(r *wire.Reader, n, extra uint64) (*Grid, error) {
	k, j, t := r.U64(), r.U64(), r.U64()
	cfg := EstimateConfig{K: int(k), J: int(j), T: int(t), Delta: r.F64(), Threshold: r.F64(), Seed: r.U64()}
	if r.Err() != nil || n == 0 || n > 1<<24 || k == 0 || k > 64 || j == 0 || j > 1<<12 || t == 0 || t > 1<<12 ||
		(t*j+extra)*minCellBytes > uint64(r.Len()) || cfg != cfg.withDefaults(int(n)) {
		return nil, errCorrupt
	}
	return newGrid(int(n), cfg, emptyState), nil
}

// emptyState is a cell or sample constructor for decoders to fill.
func emptyState(int) *spanner.TwoPass { return new(spanner.TwoPass) }

// UnmarshalBinary reconstructs a grid encoded with MarshalBinary.
func (g *Grid) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagGrid {
		return fmt.Errorf("sparsify: not a Grid encoding: %w", errCorrupt)
	}
	n, phase := r.U64(), r.U64()
	rebuilt, err := readGrid(r, n, 0)
	if err != nil || phase > 1 {
		return errCorrupt
	}
	rebuilt.phase = int(phase)
	for _, c := range rebuilt.cells {
		if err := c.UnmarshalBinary(r.Block()); err != nil || c.N() != rebuilt.n || c.Phase() != rebuilt.phase {
			r.Fail(err)
			break
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*g = *rebuilt
	return nil
}
