package sparsify

import (
	"errors"
	"fmt"

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
	writeConfig(w, g.cfg)
	for _, c := range g.cells {
		enc, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Block(enc)
	}
	return w.Bytes(), nil
}

// minCellBytes is the least one grid cell takes on the wire: a u64
// block length and a TwoPass header. Decoders lay out a grid only once
// the remaining input holds that much per cell, so the cell count — and
// every allocation made per cell or column — is bounded by the input.
const minCellBytes = 88

// writeConfig writes the grid configuration that Grid and Live both
// encode, as readGrid reads it: the sample header (K, Z, H, seed; all
// zero in an estimator's grid), then the oracle grid's.
func writeConfig(w *wire.Writer, cfg Config) {
	e := cfg.Estimate
	for _, v := range []uint64{uint64(cfg.K), uint64(cfg.Z), uint64(cfg.H), cfg.Seed, uint64(e.K), uint64(e.J), uint64(e.T)} {
		w.U64(v)
	}
	w.F64(e.Delta)
	w.F64(e.Threshold)
	w.U64(e.Seed)
}

// readGrid reads a grid configuration and lays out a grid for it on n
// vertices, its cells empty states to decode into. The oracle grid's
// configuration must be the one NewGrid resolves for n — a re-defaulted
// field would re-seed the substream wiring — the sample header must be
// all zero or name 1 ≤ Z, H ≤ 4096 and 1 ≤ K ≤ 64, and the remaining
// input must hold the T·J + Z·H cells.
func readGrid(r *wire.Reader, n uint64) (*Grid, error) {
	k, z, h, seed := r.U64(), r.U64(), r.U64(), r.U64()
	ek, j, t := r.U64(), r.U64(), r.U64()
	e := EstimateConfig{K: int(ek), J: int(j), T: int(t), Delta: r.F64(), Threshold: r.F64(), Seed: r.U64()}
	samples := z == 0 && k == 0 && h == 0 && seed == 0 ||
		z >= 1 && z <= 1<<12 && h >= 1 && h <= 1<<12 && k >= 1 && k <= 64
	if r.Err() != nil || !samples || n == 0 || n > 1<<24 || ek == 0 || ek > 64 || j == 0 || j > 1<<12 || t == 0 || t > 1<<12 ||
		(t*j+z*h)*minCellBytes > uint64(r.Len()) || e != e.withDefaults(int(n)) {
		return nil, errCorrupt
	}
	return newGrid(int(n), Config{K: int(k), Z: int(z), H: int(h), Seed: seed, Estimate: e}, false), nil
}

// UnmarshalBinary reconstructs a grid encoded with MarshalBinary.
func (g *Grid) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagGrid {
		return fmt.Errorf("sparsify: not a Grid encoding: %w", errCorrupt)
	}
	n, phase := r.U64(), r.U64()
	rebuilt, err := readGrid(r, n)
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
