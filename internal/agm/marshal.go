package agm

import (
	"errors"
	"fmt"

	"dynstream/internal/sketch"
	"dynstream/internal/wire"
)

var errCorrupt = errors.New("agm: corrupt serialized data")

// MarshalBinary encodes the sketch so that a remote party can
// reconstruct and merge it — the wire format for the distributed
// protocol of the paper's introduction (servers send Sx^i, the
// coordinator sums them): varint geometry, then every sampler as a
// sketch block, an untouched (zero) sampler suppressed to a single 0
// byte. Together with the samplers' own zero-level suppression, a
// sparse-stream state is orders of magnitude smaller than its grid. The
// encoding is content-canonical: states with equal linear content encode
// identically, however their lazily materialized levels differ. A
// subtraction (SubtractTo) is folded back in first.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	s.SubtractTo(nil)
	w := &wire.Writer{}
	w.U64(wire.TagAGM)
	w.U64(s.seed)
	w.Uvarint(uint64(s.n))
	w.Uvarint(uint64(s.rounds))
	w.Uvarint(uint64(s.perLvl))
	for r := 0; r < s.rounds; r++ {
		for v := 0; v < s.n; v++ {
			if err := w.SketchBlock(s.at(r, v)); err != nil {
				return nil, err
			}
		}
	}
	return w.Bytes(), nil
}

// maxArenaPerByte is the most level-0 arena, in bytes, a decoded header
// may lay out per byte of input after it. A suppressed zero sampler is
// one byte standing for its whole slot, 432 bytes at the default
// perLevel of 4.
const maxArenaPerByte = 512

// headerFits is UnmarshalBinary's bound on a header of n vertices,
// rounds and perLvl followed by left bytes: every sampler takes at
// least its length byte, and the grid's level-0 arena is bounded by the
// input left, both before the grid is allocated for them.
func headerFits(n, rounds, perLvl, left uint64) bool {
	if n == 0 || n > 1<<24 || rounds == 0 || rounds > 256 || perLvl == 0 || perLvl > sketch.MaxL0PerLevel {
		return false
	}
	return left >= n*rounds && n*rounds*uint64(8*sketch.L0SlotWords(int(perLvl))) <= maxArenaPerByte*left
}

// UnmarshalBinary reconstructs a sketch encoded with MarshalBinary.
// Header bounds, checked before anything is allocated: n in 1..2^24,
// rounds in 1..256, perLevel in 1..sketch.MaxL0PerLevel (2^13), at
// least one byte of input per sampler, and a level-0 arena — n·rounds
// slots of sketch.L0SlotWords(perLevel) words, 3·cells·8 bytes each —
// of at most maxArenaPerByte (512) bytes per byte of input left. That
// last bound narrows the wire the way MaxL0PerLevel does: every
// encoding at perLevel ≤ 5 passes it, while at a larger perLevel a grid
// whose samplers are mostly suppressed zeros is rejected as corrupt (no
// caller sets Config.PerLevel). A state whose samplers do not sum to
// zero (ZeroSum) is refused as corrupt.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagAGM {
		return fmt.Errorf("agm: not an AGM sketch encoding: %w", errCorrupt)
	}
	seed, n, rounds, perLvl := r.U64(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	if r.Err() != nil || !headerFits(n, rounds, perLvl, uint64(r.Len())) {
		return errCorrupt
	}
	rebuilt := New(seed, int(n), Config{Rounds: int(rounds), PerLevel: int(perLvl)})
	for rd := 0; rd < rebuilt.rounds && r.Err() == nil; rd++ {
		for v := 0; v < rebuilt.n; v++ {
			enc := r.SketchBlock()
			if enc == nil {
				continue // suppressed zero sampler stays fresh
			}
			if err := rebuilt.at(rd, v).UnmarshalBinary(enc); err != nil {
				return fmt.Errorf("%w: round %d vertex %d: %v", errCorrupt, rd, v, err)
			}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	// Every state built from updates sums to zero in every round.
	if !rebuilt.ZeroSum() {
		return fmt.Errorf("%w: the samplers of some round do not sum to zero", errCorrupt)
	}
	// Whole-state replacement: keep the caching preference but drop the
	// decode trace and the update log — they describe the old samplers.
	rebuilt.caching = s.caching
	*s = *rebuilt
	return nil
}

// Merge adds another sketch built with the same seed and geometry; the
// result sketches the union (sum) of both update streams — the
// coordinator-side operation of the distributed protocol. Both sides
// fold any subtraction (SubtractTo) back in first.
func (s *Sketch) Merge(o *Sketch) error {
	if s.seed != o.seed || s.n != o.n || s.rounds != o.rounds || s.perLvl != o.perLvl {
		return fmt.Errorf("agm: merging incompatible sketches (seed %d/%d n %d/%d rounds %d/%d perLevel %d/%d)",
			s.seed, o.seed, s.n, o.n, s.rounds, o.rounds, s.perLvl, o.perLvl)
	}
	s.SubtractTo(nil)
	o.SubtractTo(nil)
	// Both grids in address order: samplers, level-0 slots and tails are
	// all reached by index, and a sampler o never touched is skipped
	// after one scan of its slot. While caching, each vertex whose
	// incoming samplers are not all zero is logged, so the next query
	// re-decodes exactly the components the merge changed.
	for v := 0; v < s.n; v++ {
		logged := !s.caching
		for i := v * s.rounds; i < (v+1)*s.rounds; i++ {
			if !logged && !o.samp[i].IsZero() {
				s.logUpdate(v, v)
				logged = true
			}
			if err := s.samp[i].Merge(&o.samp[i]); err != nil {
				return fmt.Errorf("agm: merge vertex %d round %d: %w", v, i%s.rounds, err)
			}
		}
	}
	return nil
}

// writeSketches writes each sketch as a length-prefixed block.
func writeSketches(w *wire.Writer, ss ...*Sketch) error {
	for _, s := range ss {
		enc, err := s.MarshalBinary()
		if err != nil {
			return err
		}
		w.Block(enc)
	}
	return nil
}

// readSketches decodes count length-prefixed sketch blocks. Each block
// takes at least its 8-byte length, so a count the input cannot hold is
// rejected before anything is allocated for it.
func readSketches(r *wire.Reader, count uint64) ([]*Sketch, error) {
	if r.Err() != nil || count > uint64(r.Len())/8 {
		return nil, errCorrupt
	}
	out := make([]*Sketch, count)
	for i := range out {
		out[i] = &Sketch{}
		if err := out[i].UnmarshalBinary(r.Block()); err != nil {
			return nil, err
		}
	}
	return out, r.Done()
}

// MarshalBinary encodes the k-connectivity certificate sketch as its k
// constituent AGM sketches (each carries its own seed and geometry).
func (kc *KConnectivity) MarshalBinary() ([]byte, error) {
	w := &wire.Writer{}
	for _, v := range []uint64{wire.TagKConn, uint64(len(kc.stack)), uint64(kc.n)} {
		w.U64(v)
	}
	if err := writeSketches(w, kc.stack...); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary reconstructs a certificate sketch encoded with
// MarshalBinary.
func (kc *KConnectivity) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagKConn {
		return fmt.Errorf("agm: not a KConnectivity encoding: %w", errCorrupt)
	}
	k, n := r.U64(), r.U64()
	if k == 0 || k > maxCertK || n == 0 || n > 1<<24 {
		return errCorrupt
	}
	sketches, err := readSketches(r, k)
	if err != nil {
		return err
	}
	*kc = KConnectivity{stack: sketches, n: int(n)}
	return nil
}

// MarshalBinary encodes the bipartiteness tester as its base and
// double-cover sketches.
func (b *Bipartiteness) MarshalBinary() ([]byte, error) {
	w := &wire.Writer{}
	w.U64(wire.TagBip)
	w.U64(uint64(b.n))
	if err := writeSketches(w, b.stack...); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary reconstructs a tester encoded with MarshalBinary.
func (b *Bipartiteness) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagBip {
		return fmt.Errorf("agm: not a Bipartiteness encoding: %w", errCorrupt)
	}
	n := r.U64()
	if n == 0 || n > 1<<24 {
		return errCorrupt
	}
	ss, err := readSketches(r, 2)
	if err != nil {
		return err
	}
	if ss[0].n != int(n) || ss[1].n != 2*int(n) {
		return errCorrupt
	}
	*b = Bipartiteness{stack: ss, n: int(n)}
	return nil
}

// MarshalBinary encodes the approximate-MSF sketch as its per-class
// prefix sketches plus the class geometry.
func (m *MSF) MarshalBinary() ([]byte, error) {
	w := &wire.Writer{}
	w.U64(wire.TagMSF)
	w.U64(uint64(m.n))
	w.F64(m.gamma)
	w.U64(uint64(m.maxClass))
	if err := writeSketches(w, m.stack...); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// UnmarshalBinary reconstructs an MSF sketch encoded with
// MarshalBinary.
func (m *MSF) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagMSF {
		return fmt.Errorf("agm: not an MSF encoding: %w", errCorrupt)
	}
	n, gamma, maxClass := r.U64(), r.F64(), r.U64()
	if n == 0 || n > 1<<24 || maxClass > maxMSFClass || !(gamma > 0) {
		return errCorrupt
	}
	prefixes, err := readSketches(r, maxClass+1)
	if err != nil {
		return err
	}
	*m = MSF{stack: prefixes, n: int(n), gamma: gamma, maxClass: int(maxClass)}
	return nil
}
