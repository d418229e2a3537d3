package sparsify

import (
	"fmt"

	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// Serialization of the live sparsifier state, the checkpoint substrate
// of dynstream's Handle.Checkpoint. The durable content is the
// resolved configuration plus every grid cell's and sample spanner's
// live two-pass encoding (spanner.MarshalLive); the substream wiring —
// which filtered view of the base stream each state ingests — is a
// pure function of the configuration, so RestoreLive rebuilds it
// exactly as StartLive did, without replaying pass 1.

// MarshalLive encodes the live state for checkpointing. The base
// stream is not part of the encoding — RestoreLive re-attaches it.
func (ls *Live) MarshalLive() ([]byte, error) {
	w := &wire.Writer{}
	for _, v := range []uint64{wire.TagSparsifyLive, uint64(ls.n), uint64(ls.cfg.K), uint64(ls.cfg.Z), uint64(ls.cfg.H), ls.cfg.Seed} {
		w.U64(v)
	}
	writeGridConfig(w, ls.grid.cfg)
	for i, tp := range ls.all() {
		enc, err := tp.MarshalLive()
		if err != nil {
			return nil, ls.stateErr(i, err)
		}
		w.Block(enc)
	}
	return w.Bytes(), nil
}

// RestoreLive reconstructs a live sparsifier state from a MarshalLive
// encoding over the replayable base stream src: the same grid and
// substream wiring StartLive builds, with every cell and sample
// restored from its live encoding instead of replaying pass 1. The
// first Query re-derives the per-state tables, which by linearity
// reproduces the saved state's output bit for bit.
func RestoreLive(src stream.Stream, data []byte) (*Live, error) {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagSparsifyLive {
		return nil, fmt.Errorf("sparsify: not a live sparsifier encoding: %w", errCorrupt)
	}
	n, k, z, h, seed := r.U64(), r.U64(), r.U64(), r.U64(), r.U64()
	if r.Err() != nil || k == 0 || k > 64 || z == 0 || z > 1<<12 || h == 0 || h > 1<<12 {
		return nil, errCorrupt
	}
	if n != uint64(src.N()) {
		return nil, fmt.Errorf("sparsify: live state has n=%d, stream has n=%d: %w", n, src.N(), errCorrupt)
	}
	g, err := readGrid(r, n, z*h)
	if err != nil {
		return nil, err
	}
	ls := newLive(Config{K: int(k), Z: int(z), H: int(h), Seed: seed, Estimate: g.cfg}, g, emptyState)
	for i, tp := range ls.all() {
		// RestoreLive rebuilds each state from its blob's own config.
		if err := tp.RestoreLive(ls.substream(src, i), r.Block()); err != nil {
			return nil, ls.stateErr(i, fmt.Errorf("%w: %v", errCorrupt, err))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ls, nil
}
