package sparsify

import (
	"encoding/binary"
	"fmt"
	"math"

	"dynstream/internal/stream"
)

// Serialization of the live sparsifier state, the checkpoint substrate
// of dynstream's Handle.Checkpoint. The durable content is the
// resolved configuration plus every grid cell's and sample spanner's
// live two-pass encoding (spanner.MarshalLive); the substream wiring —
// which filtered view of the base stream each state ingests — is a
// pure function of the configuration, so RestoreLive rebuilds it
// exactly as StartLive did, without replaying pass 1.

// tagLive frames a live sparsifier encoding.
const tagLive uint64 = 0xd15c_020b

// MarshalLive encodes the live state for checkpointing. The base
// stream is not part of the encoding — RestoreLive re-attaches it.
func (ls *Live) MarshalLive() ([]byte, error) {
	var out []byte
	u64 := func(v uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	block := func(b []byte) {
		u64(uint64(len(b)))
		out = append(out, b...)
	}
	u64(tagLive)
	u64(uint64(ls.n))
	u64(uint64(ls.cfg.K))
	u64(uint64(ls.cfg.Z))
	u64(uint64(ls.cfg.H))
	u64(ls.cfg.Seed)
	ecfg := ls.grid.cfg
	u64(uint64(ecfg.K))
	u64(uint64(ecfg.J))
	u64(uint64(ecfg.T))
	u64(math.Float64bits(ecfg.Delta))
	u64(math.Float64bits(ecfg.Threshold))
	u64(ecfg.Seed)
	for i, tp := range ls.all() {
		enc, err := tp.MarshalLive()
		if err != nil {
			return nil, ls.stateErr(i, err)
		}
		block(enc)
	}
	return out, nil
}

// RestoreLive reconstructs a live sparsifier state from a MarshalLive
// encoding over the replayable base stream src: the same grid and
// substream wiring StartLive builds, with every cell and sample
// restored from its live encoding instead of replaying pass 1. The
// first Query re-derives the per-state tables, which by linearity
// reproduces the saved state's output bit for bit.
func RestoreLive(src stream.Stream, data []byte) (*Live, error) {
	r := &reader{b: data}
	if r.u64() != tagLive {
		return nil, fmt.Errorf("sparsify: not a live sparsifier encoding: %w", errCorrupt)
	}
	n, k, z, h, seed := r.u64(), r.u64(), r.u64(), r.u64(), r.u64()
	if r.err != nil || k == 0 || k > 64 || z == 0 || z > 1<<12 || h == 0 || h > 1<<12 {
		return nil, errCorrupt
	}
	if n != uint64(src.N()) {
		return nil, fmt.Errorf("sparsify: live state has n=%d, stream has n=%d: %w", n, src.N(), errCorrupt)
	}
	g, err := r.grid(n, z*h)
	if err != nil {
		return nil, err
	}
	ls := newLive(Config{K: int(k), Z: int(z), H: int(h), Seed: seed, Estimate: g.cfg}, g, emptyState)
	for i, tp := range ls.all() {
		// RestoreLive rebuilds each state from its blob's own config.
		if err := tp.RestoreLive(ls.substream(src, i), r.block()); err != nil {
			return nil, ls.stateErr(i, fmt.Errorf("%w: %v", errCorrupt, err))
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("sparsify: %d trailing bytes in live encoding: %w", len(r.b), errCorrupt)
	}
	return ls, nil
}
