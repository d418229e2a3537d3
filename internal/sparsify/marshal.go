package sparsify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dynstream/internal/spanner"
)

// Binary serialization for the oracle-grid sketch state, so per-shard
// grids can be shipped between processes and merged at a coordinator
// (MergePass1/MergePass2) exactly like the spanner states they are
// made of.

const tagGrid uint64 = 0xd15c_000b

var errCorrupt = errors.New("sparsify: corrupt serialized data")

// MarshalBinary encodes the grid: configuration plus every cell's
// two-pass spanner state. A finished grid (after Finish) cannot be
// marshaled.
func (g *Grid) MarshalBinary() ([]byte, error) {
	if g.phase > 1 {
		return nil, fmt.Errorf("sparsify: cannot marshal a finished grid")
	}
	var out []byte
	u64 := func(v uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	u64(tagGrid)
	u64(uint64(g.n))
	u64(uint64(g.phase))
	u64(uint64(g.cfg.K))
	u64(uint64(g.cfg.J))
	u64(uint64(g.cfg.T))
	u64(math.Float64bits(g.cfg.Delta))
	u64(math.Float64bits(g.cfg.Threshold))
	u64(g.cfg.Seed)
	for _, c := range g.cells {
		enc, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		u64(uint64(len(enc)))
		out = append(out, enc...)
	}
	return out, nil
}

// minCellBytes is the least one grid cell or sample state takes on the
// wire: a u64 block length and a TwoPass header. Decoders lay out a
// grid only once the remaining input holds that much per state, so the
// state count — and every allocation made per state — is bounded by the
// input.
const minCellBytes = 88

// reader reads an encoding front to back. The first short read sets err
// and every later read returns zero, so a decoder checks err once per
// section.
type reader struct {
	b   []byte
	err error
}

// fail records a corrupt encoding; cause, when not nil, is the nested
// decoder's error.
func (r *reader) fail(cause error) {
	if r.err == nil {
		r.err = errCorrupt
		if cause != nil {
			r.err = fmt.Errorf("%w: %v", errCorrupt, cause)
		}
	}
	r.b = nil
}

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail(nil)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) block() []byte {
	ln := r.u64()
	if uint64(len(r.b)) < ln {
		r.fail(nil)
		return nil
	}
	b := r.b[:ln]
	r.b = r.b[ln:]
	return b
}

// grid reads the oracle-grid configuration that Grid and Live both
// encode and lays out a grid for it on n vertices, its cells empty
// states to decode into. The configuration must be the one NewGrid
// resolves for n — a re-defaulted field would re-seed the substream
// wiring — and the remaining input must hold the T·J cells and extra
// more states.
func (r *reader) grid(n, extra uint64) (*Grid, error) {
	k, j, t := r.u64(), r.u64(), r.u64()
	cfg := EstimateConfig{K: int(k), J: int(j), T: int(t), Delta: math.Float64frombits(r.u64()),
		Threshold: math.Float64frombits(r.u64()), Seed: r.u64()}
	if r.err != nil || n == 0 || n > 1<<24 || k == 0 || k > 64 || j == 0 || j > 1<<12 || t == 0 || t > 1<<12 ||
		(t*j+extra)*minCellBytes > uint64(len(r.b)) || cfg != cfg.withDefaults(int(n)) {
		return nil, errCorrupt
	}
	return newGrid(int(n), cfg, emptyState), nil
}

// emptyState is a cell or sample constructor for decoders to fill.
func emptyState(int) *spanner.TwoPass { return new(spanner.TwoPass) }

// UnmarshalBinary reconstructs a grid encoded with MarshalBinary.
func (g *Grid) UnmarshalBinary(data []byte) error {
	r := &reader{b: data}
	if r.u64() != tagGrid {
		return fmt.Errorf("sparsify: not a Grid encoding: %w", errCorrupt)
	}
	n, phase := r.u64(), r.u64()
	rebuilt, err := r.grid(n, 0)
	if err != nil || phase > 1 {
		return errCorrupt
	}
	rebuilt.phase = int(phase)
	for _, c := range rebuilt.cells {
		if err := c.UnmarshalBinary(r.block()); err != nil || c.N() != rebuilt.n || c.Phase() != rebuilt.phase {
			r.fail(err)
			break
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(nil)
	}
	if r.err != nil {
		return r.err
	}
	*g = *rebuilt
	return nil
}
