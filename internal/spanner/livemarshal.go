package spanner

import (
	"fmt"

	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// Serialization of *live* two-pass states, the checkpoint substrate of
// dynstream's Handle.Checkpoint. A live state is pass 1 kept open
// forever (see live.go): its durable content is the phase-0 stream
// state — configuration plus pass-1 vertex sketches, which already
// reflect every applied update — and the live update log. Everything
// else (cluster structure, pass-2 tables, decode caches) is derived
// and rebuilt by the first QueryLive after restore, so a restored
// state answers queries bit-identically to the state it was saved
// from.

// MarshalLive encodes a live two-pass state for checkpointing. The
// base stream is not part of the encoding — RestoreLive re-attaches
// it, exactly as StartLive attached it originally.
func (tp *TwoPass) MarshalLive() ([]byte, error) {
	if tp.liveSrc == nil {
		return nil, fmt.Errorf("spanner: MarshalLive before StartLive")
	}
	base, err := tp.MarshalBinary() // phase 0: cfg + pass-1 vertex sketches
	if err != nil {
		return nil, err
	}
	w := &wire.Writer{}
	w.U64(wire.TagTwoPassLive)
	w.Block(base)
	w.U64(uint64(len(tp.liveLog)))
	for _, u := range tp.liveLog {
		w.Int(u.U)
		w.Int(u.V)
		w.Int(u.Delta)
		w.F64(u.W)
	}
	return w.Bytes(), nil
}

// RestoreLive reconstructs a live state from a MarshalLive encoding
// over the replayable base stream src. The restored state is in the
// same live phase as the saved one: pass 1 open, tables unallocated —
// the first QueryLive re-clusters and replays src plus the log, which
// by linearity reproduces the saved state's query output bit for bit.
func (tp *TwoPass) RestoreLive(src stream.Stream, data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagTwoPassLive {
		return fmt.Errorf("spanner: not a live TwoPass encoding: %w", errCorrupt)
	}
	base := r.Block()
	if r.Err() != nil {
		return r.Err()
	}
	rebuilt := &TwoPass{}
	if err := rebuilt.UnmarshalBinary(base); err != nil {
		return err
	}
	if rebuilt.phase != 0 {
		return fmt.Errorf("spanner: live encoding holds a phase-%d state: %w", rebuilt.phase, errCorrupt)
	}
	if rebuilt.n != src.N() {
		return fmt.Errorf("spanner: live state has n=%d, stream has n=%d: %w", rebuilt.n, src.N(), errCorrupt)
	}
	count := r.U64()
	if count > uint64(r.Len())/32 { // 4 fixed u64 fields per record
		return errCorrupt
	}
	log := make([]stream.Update, count)
	for i := range log {
		log[i] = stream.Update{U: r.Int(), V: r.Int(), Delta: r.Int(), W: r.F64()}
	}
	if r.Done() != nil {
		return fmt.Errorf("spanner: malformed live log: %w", errCorrupt)
	}
	rebuilt.liveSrc = src
	rebuilt.liveLog = log
	*tp = *rebuilt
	return nil
}
