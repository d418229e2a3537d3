package agm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/sketch"
)

const (
	tagAGM uint64 = 0xd15c_0003 // v1: dense u64 sampler lengths
	// tagAGMv2 is the compressed sketch encoding: varint sampler
	// lengths, with an untouched (zero) vertex sampler suppressed to a
	// single 0 byte. Together with the samplers' own zero-level
	// suppression, a sparse-stream AGM state shrinks by orders of
	// magnitude on the wire. v1 blobs still decode; encoding always
	// emits v2.
	tagAGMv2 uint64 = 0xd15c_0103
)

var errCorrupt = errors.New("agm: corrupt serialized data")

// MarshalBinary encodes the sketch so that a remote party can
// reconstruct and merge it — the wire format for the distributed
// protocol of the paper's introduction (servers send Sx^i, the
// coordinator sums them). The encoding is content-canonical: states
// with equal linear content encode identically, however their lazily
// materialized levels differ.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var out []byte
	u64 := func(v uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	u64(tagAGMv2)
	u64(s.seed)
	out = binary.AppendUvarint(out, uint64(s.n))
	out = binary.AppendUvarint(out, uint64(s.rounds))
	out = binary.AppendUvarint(out, uint64(s.perLvl))
	for r := 0; r < s.rounds; r++ {
		for v := 0; v < s.n; v++ {
			if s.at(r, v).IsZero() {
				out = binary.AppendUvarint(out, 0)
				continue
			}
			enc, err := s.at(r, v).MarshalBinary()
			if err != nil {
				return nil, err
			}
			out = binary.AppendUvarint(out, uint64(len(enc)))
			out = append(out, enc...)
		}
	}
	return out, nil
}

// maxArenaPerByte is the most level-0 arena, in bytes, a decoded header
// may lay out per byte of input after it. A suppressed zero sampler is
// one byte standing for its whole slot, 432 bytes at the default
// perLevel of 4.
const maxArenaPerByte = 512

// UnmarshalBinary reconstructs a sketch encoded with MarshalBinary
// (the current v2 layout, or the dense v1 layout of older blobs).
// Header bounds, checked before anything is allocated: n in 1..2^24,
// rounds in 1..256, perLevel in 1..sketch.MaxL0PerLevel (2^13), at
// least one byte of input per sampler, and a level-0 arena — n·rounds
// slots of sketch.L0SlotWords(perLevel) words, 3·cells·8 bytes each —
// of at most maxArenaPerByte (512) bytes per byte of input left. That
// last bound narrows the wire the way MaxL0PerLevel does: every
// encoding at perLevel ≤ 5 passes it, while at a larger perLevel a grid
// whose samplers are mostly suppressed zeros is rejected as corrupt (no
// caller sets Config.PerLevel).
func (s *Sketch) UnmarshalBinary(data []byte) error {
	pos := 0
	u64 := func() (uint64, error) {
		if len(data)-pos < 8 {
			return 0, errCorrupt
		}
		v := binary.LittleEndian.Uint64(data[pos : pos+8])
		pos += 8
		return v, nil
	}
	uvar := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, errCorrupt
		}
		pos += n
		return v, nil
	}
	tag, err := u64()
	if err != nil || (tag != tagAGM && tag != tagAGMv2) {
		return fmt.Errorf("agm: not an AGM sketch encoding: %w", errCorrupt)
	}
	v2 := tag == tagAGMv2
	num := u64
	if v2 {
		num = uvar
	}
	seed, err := u64()
	if err != nil {
		return err
	}
	n, err := num()
	if err != nil {
		return err
	}
	rounds, err := num()
	if err != nil {
		return err
	}
	perLvl, err := num()
	if err != nil {
		return err
	}
	if n == 0 || n > 1<<24 || rounds == 0 || rounds > 256 || perLvl == 0 || perLvl > sketch.MaxL0PerLevel {
		return errCorrupt
	}
	// Every sampler takes at least its length byte, and the grid's
	// level-0 arena is bounded by the input left, both before the grid is
	// allocated for them.
	left, arena := uint64(len(data)-pos), n*rounds*uint64(8*sketch.L0SlotWords(int(perLvl)))
	if left < n*rounds || arena > maxArenaPerByte*left {
		return errCorrupt
	}
	rebuilt := New(seed, int(n), Config{Rounds: int(rounds), PerLevel: int(perLvl)})
	for r := 0; r < rebuilt.rounds; r++ {
		for v := 0; v < rebuilt.n; v++ {
			ln, err := num()
			if err != nil {
				return err
			}
			if ln == 0 && v2 {
				continue // suppressed zero sampler stays fresh
			}
			if uint64(len(data)-pos) < ln {
				return errCorrupt
			}
			if err := rebuilt.at(r, v).UnmarshalBinary(data[pos : pos+int(ln)]); err != nil {
				return fmt.Errorf("%w: round %d vertex %d: %v", errCorrupt, r, v, err)
			}
			pos += int(ln)
		}
	}
	if pos != len(data) {
		return errCorrupt
	}
	// Whole-state replacement: keep the caching preference but drop the
	// cached picks — the rebuilt samplers carry fresh generations, so
	// old entries must not be consulted against them.
	rebuilt.caching = s.caching
	*s = *rebuilt
	return nil
}

// Merge adds another sketch built with the same seed and geometry; the
// result sketches the union (sum) of both update streams — the
// coordinator-side operation of the distributed protocol.
func (s *Sketch) Merge(o *Sketch) error {
	if s.seed != o.seed || s.n != o.n || s.rounds != o.rounds || s.perLvl != o.perLvl {
		return fmt.Errorf("agm: merging incompatible sketches (seed %d/%d n %d/%d rounds %d/%d perLevel %d/%d)",
			s.seed, o.seed, s.n, o.n, s.rounds, o.rounds, s.perLvl, o.perLvl)
	}
	// A merge mutates samplers without passing through the update log:
	// advance the epoch so cached merged samplers stop folding and fall
	// back to full re-merges (the pick cache itself stays valid for
	// components the merge didn't touch — their generations are
	// unchanged).
	s.epoch++
	// Both grids in address order: samplers, level-0 slots and tails are
	// all reached by index, and a sampler o never touched is skipped
	// after one scan of its slot.
	for i := range s.samp {
		if err := s.samp[i].Merge(&o.samp[i]); err != nil {
			return fmt.Errorf("agm: merge vertex %d round %d: %w", i/s.rounds, i%s.rounds, err)
		}
	}
	return nil
}

// Tags for the application sketches built on top of the base sketch.
const (
	tagKConn uint64 = 0xd15c_0008
	tagBip   uint64 = 0xd15c_0009
	tagMSF   uint64 = 0xd15c_000a
)

// appendBlock writes a length-prefixed byte block.
func appendBlock(out []byte, block []byte) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(block)))
	return append(append(out, tmp[:]...), block...)
}

// blockReader cursors over length-prefixed blocks.
type blockReader struct {
	data []byte
	pos  int
}

func (r *blockReader) u64() (uint64, error) {
	if len(r.data)-r.pos < 8 {
		return 0, errCorrupt
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos : r.pos+8])
	r.pos += 8
	return v, nil
}

func (r *blockReader) block() ([]byte, error) {
	ln, err := r.u64()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.data)-r.pos) < ln {
		return nil, errCorrupt
	}
	b := r.data[r.pos : r.pos+int(ln)]
	r.pos += int(ln)
	return b, nil
}

func (r *blockReader) done() error {
	if r.pos != len(r.data) {
		return errCorrupt
	}
	return nil
}

// MarshalBinary encodes the k-connectivity certificate sketch as its k
// constituent AGM sketches (each carries its own seed and geometry).
func (kc *KConnectivity) MarshalBinary() ([]byte, error) {
	// The wire format carries pure stream states: fold any
	// extraction-era subtractions back in first.
	kc.restoreStream()
	var out []byte
	var tmp [8]byte
	for _, v := range []uint64{tagKConn, uint64(kc.k), uint64(kc.n)} {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	for _, s := range kc.sketches {
		enc, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = appendBlock(out, enc)
	}
	return out, nil
}

// UnmarshalBinary reconstructs a certificate sketch encoded with
// MarshalBinary.
func (kc *KConnectivity) UnmarshalBinary(data []byte) error {
	r := &blockReader{data: data}
	tag, err := r.u64()
	if err != nil || tag != tagKConn {
		return fmt.Errorf("agm: not a KConnectivity encoding: %w", errCorrupt)
	}
	k, err := r.u64()
	if err != nil {
		return err
	}
	n, err := r.u64()
	if err != nil {
		return err
	}
	if k == 0 || k > 1<<16 || n == 0 || n > 1<<24 {
		return errCorrupt
	}
	rebuilt := &KConnectivity{k: int(k), n: int(n), sketches: make([]*Sketch, k), subtracted: make([][]graph.Edge, k)}
	for i := range rebuilt.sketches {
		enc, err := r.block()
		if err != nil {
			return err
		}
		rebuilt.sketches[i] = &Sketch{}
		if err := rebuilt.sketches[i].UnmarshalBinary(enc); err != nil {
			return err
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	*kc = *rebuilt
	return nil
}

// MarshalBinary encodes the bipartiteness tester as its base and
// double-cover sketches.
func (b *Bipartiteness) MarshalBinary() ([]byte, error) {
	var out []byte
	var tmp [8]byte
	for _, v := range []uint64{tagBip, uint64(b.n)} {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	for _, s := range []*Sketch{b.base, b.cover} {
		enc, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = appendBlock(out, enc)
	}
	return out, nil
}

// UnmarshalBinary reconstructs a tester encoded with MarshalBinary.
func (b *Bipartiteness) UnmarshalBinary(data []byte) error {
	r := &blockReader{data: data}
	tag, err := r.u64()
	if err != nil || tag != tagBip {
		return fmt.Errorf("agm: not a Bipartiteness encoding: %w", errCorrupt)
	}
	n, err := r.u64()
	if err != nil {
		return err
	}
	if n == 0 || n > 1<<24 {
		return errCorrupt
	}
	rebuilt := &Bipartiteness{n: int(n), base: &Sketch{}, cover: &Sketch{}}
	for _, s := range []*Sketch{rebuilt.base, rebuilt.cover} {
		enc, err := r.block()
		if err != nil {
			return err
		}
		if err := s.UnmarshalBinary(enc); err != nil {
			return err
		}
	}
	if rebuilt.base.n != rebuilt.n || rebuilt.cover.n != 2*rebuilt.n {
		return errCorrupt
	}
	if err := r.done(); err != nil {
		return err
	}
	*b = *rebuilt
	return nil
}

// MarshalBinary encodes the approximate-MSF sketch as its per-class
// prefix sketches plus the class geometry.
func (m *MSF) MarshalBinary() ([]byte, error) {
	var out []byte
	var tmp [8]byte
	for _, v := range []uint64{tagMSF, uint64(m.n), math.Float64bits(m.gamma), uint64(m.maxClass)} {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	for _, s := range m.prefixes {
		enc, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = appendBlock(out, enc)
	}
	return out, nil
}

// UnmarshalBinary reconstructs an MSF sketch encoded with
// MarshalBinary.
func (m *MSF) UnmarshalBinary(data []byte) error {
	r := &blockReader{data: data}
	tag, err := r.u64()
	if err != nil || tag != tagMSF {
		return fmt.Errorf("agm: not an MSF encoding: %w", errCorrupt)
	}
	n, err := r.u64()
	if err != nil {
		return err
	}
	gbits, err := r.u64()
	if err != nil {
		return err
	}
	maxClass, err := r.u64()
	if err != nil {
		return err
	}
	gamma := math.Float64frombits(gbits)
	if n == 0 || n > 1<<24 || maxClass > 1<<16 || !(gamma > 0) {
		return errCorrupt
	}
	rebuilt := &MSF{
		n:        int(n),
		gamma:    gamma,
		maxClass: int(maxClass),
		prefixes: make([]*Sketch, maxClass+1),
	}
	for c := range rebuilt.prefixes {
		enc, err := r.block()
		if err != nil {
			return err
		}
		rebuilt.prefixes[c] = &Sketch{}
		if err := rebuilt.prefixes[c].UnmarshalBinary(enc); err != nil {
			return err
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	*m = *rebuilt
	return nil
}
