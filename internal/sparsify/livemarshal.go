package sparsify

import (
	"fmt"

	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// Serialization of the live sparsifier state, the checkpoint substrate
// of dynstream's Handle.Checkpoint. The durable content is the
// resolved configuration plus every grid cell's live two-pass encoding
// (spanner.MarshalLive); the substream wiring — which filtered view of
// the base stream each cell ingests — is a pure function of the
// configuration, so RestoreLive rebuilds it exactly as StartLive did,
// without replaying pass 1.

// MarshalLive encodes the live state for checkpointing. The base
// stream is not part of the encoding — RestoreLive re-attaches it.
func (ls *Live) MarshalLive() ([]byte, error) {
	g := ls.grid
	w := &wire.Writer{}
	w.U64(wire.TagSparsifyLive)
	w.U64(uint64(g.n))
	writeConfig(w, g.cfg)
	for i, c := range g.cells {
		enc, err := c.MarshalLive()
		if err != nil {
			return nil, g.cellErr(i, err)
		}
		w.Block(enc)
	}
	return w.Bytes(), nil
}

// RestoreLive reconstructs a live sparsifier state from a MarshalLive
// encoding over the replayable base stream src: the same grid and
// substream wiring StartLive builds, with every cell restored from its
// live encoding instead of replaying pass 1. The first Query re-derives
// the per-cell tables, which by linearity reproduces the saved state's
// output bit for bit.
func RestoreLive(src stream.Stream, data []byte) (*Live, error) {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagSparsifyLive {
		return nil, fmt.Errorf("sparsify: not a live sparsifier encoding: %w", errCorrupt)
	}
	n := r.U64()
	if r.Err() == nil && n != uint64(src.N()) {
		return nil, fmt.Errorf("sparsify: live state has n=%d, stream has n=%d: %w", n, src.N(), errCorrupt)
	}
	g, err := readGrid(r, n)
	if err != nil || g.cfg.Z == 0 {
		return nil, errCorrupt
	}
	for i, c := range g.cells {
		// RestoreLive rebuilds each cell from its blob's own config.
		if err := c.RestoreLive(g.substream(src, i), r.Block()); err != nil {
			return nil, g.cellErr(i, fmt.Errorf("%w: %v", errCorrupt, err))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &Live{grid: g}, nil
}
