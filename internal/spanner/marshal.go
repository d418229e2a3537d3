package spanner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Binary serialization for the spanner streaming states, so per-shard
// sketch states can be shipped between processes mid-stream (the
// distributed protocol of the paper's introduction): a worker
// marshals its pass state, the coordinator unmarshals and merges it
// with MergePass1/MergePass2/Merge exactly as if the shard had been
// ingested locally. Finished states (after Finish) are results, not
// sketches, and do not serialize.

const (
	tagTwoPass  uint64 = 0xd15c_0006 // v1: dense u64-length sketch blocks
	tagAdditive uint64 = 0xd15c_0007 // v1: dense u64-length sketch blocks
	// The v2 encodings varint-encode sketch-block lengths and suppress
	// zero sketches (an untouched vertex sketch, table row, or degree
	// sketch encodes as a single 0 byte). v1 blobs still decode;
	// encoding always emits v2.
	tagTwoPassV2  uint64 = 0xd15c_0106
	tagAdditiveV2 uint64 = 0xd15c_0107
)

var errCorrupt = errors.New("spanner: corrupt serialized data")

type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
}

func (w *wbuf) i64(v int64)      { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *wbuf) boolean(v bool)   { w.u64(map[bool]uint64{false: 0, true: 1}[v]) }
func (w *wbuf) block(enc []byte) { w.u64(uint64(len(enc))); w.b = append(w.b, enc...) }

func (w *wbuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// zeroSketch is the common zero test of the embedded sketch states.
type zeroSketch interface {
	IsZero() bool
	MarshalBinary() ([]byte, error)
}

// sketchBlock writes one varint-length sketch block with zero-run
// suppression: a zero state (never touched, or canceled back to zero)
// is a single 0 byte. Content-canonical by construction.
func (w *wbuf) sketchBlock(s zeroSketch) error {
	if s.IsZero() {
		w.uvarint(0)
		return nil
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	w.uvarint(uint64(len(enc)))
	w.b = append(w.b, enc...)
	return nil
}

type rbuf struct{ b []byte }

func (r *rbuf) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errCorrupt
	}
	v := binary.LittleEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v, nil
}

func (r *rbuf) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *rbuf) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *rbuf) boolean() (bool, error) {
	v, err := r.u64()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, errCorrupt
	}
	return v == 1, nil
}

func (r *rbuf) block() ([]byte, error) {
	ln, err := r.u64()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)) < ln {
		return nil, errCorrupt
	}
	b := r.b[:ln]
	r.b = r.b[ln:]
	return b, nil
}

func (r *rbuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errCorrupt
	}
	r.b = r.b[n:]
	return v, nil
}

// rawSketchBlock reads one sketch block in the given version; ok is
// false for a suppressed (0-length, v2) block, which stands for the
// zero state.
func (r *rbuf) rawSketchBlock(v2 bool) (enc []byte, ok bool, err error) {
	var ln uint64
	if v2 {
		ln, err = r.uvarint()
	} else {
		ln, err = r.u64()
	}
	if err != nil || (ln == 0 && v2) {
		return nil, false, err
	}
	if uint64(len(r.b)) < ln {
		return nil, false, errCorrupt
	}
	enc = r.b[:ln]
	r.b = r.b[ln:]
	return enc, true, nil
}

// sketchBlock reads one sketch block and decodes it into dst; a
// suppressed block leaves dst as the fresh zero state it already is.
func (r *rbuf) sketchBlock(v2 bool, dst interface{ UnmarshalBinary([]byte) error }) error {
	enc, ok, err := r.rawSketchBlock(v2)
	if err != nil || !ok {
		return err
	}
	return dst.UnmarshalBinary(enc)
}

func (r *rbuf) intSlice(max int) ([]int, error) {
	ln, err := r.u64()
	if err != nil {
		return nil, err
	}
	if ln > uint64(max) {
		return nil, errCorrupt
	}
	out := make([]int, ln)
	for i := range out {
		v, err := r.i64()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

func (w *wbuf) intSlice(s []int) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.i64(int64(v))
	}
}

func (w *wbuf) config(cfg Config) {
	w.i64(int64(cfg.K))
	w.u64(cfg.Seed)
	w.i64(int64(cfg.Budget))
	w.f64(cfg.TableFactor)
	w.i64(int64(cfg.Levels))
	w.boolean(cfg.CollectAugmented)
}

func (r *rbuf) config() (Config, error) {
	var cfg Config
	var err error
	read := func(dst *int) {
		if err == nil {
			var v int64
			v, err = r.i64()
			*dst = int(v)
		}
	}
	read(&cfg.K)
	if err == nil {
		cfg.Seed, err = r.u64()
	}
	read(&cfg.Budget)
	if err == nil {
		cfg.TableFactor, err = r.f64()
	}
	read(&cfg.Levels)
	if err == nil {
		cfg.CollectAugmented, err = r.boolean()
	}
	return cfg, err
}

// MarshalBinary encodes the full streaming state of the two-pass
// spanner: the configuration, the pass-1 vertex sketches, and — after
// EndPass1 — the cluster structure and pass-2 tables. A finished state
// (after Finish) cannot be marshaled.
func (tp *TwoPass) MarshalBinary() ([]byte, error) {
	if tp.phase > 1 {
		return nil, fmt.Errorf("spanner: cannot marshal a finished two-pass state")
	}
	w := &wbuf{}
	w.u64(tagTwoPassV2)
	w.u64(uint64(tp.n))
	w.u64(uint64(tp.phase))
	w.config(tp.cfg)
	// Pass-1 vertex sketches, in the deterministic (u, r, j) order the
	// constructor allocates. A pass-2 worker from ForkPass2 owns no
	// vertex sketches (tables only); the flag records which shape this
	// state has.
	w.boolean(tp.vertexSk != nil)
	for u := range tp.vertexSk {
		for r := range tp.vertexSk[u] {
			for _, s := range tp.vertexSk[u][r] {
				if s == nil {
					w.uvarint(0) // never touched: the zero block
				} else if err := w.sketchBlock(s); err != nil {
					return nil, err
				}
			}
		}
	}
	if tp.phase == 1 {
		// Cluster structure from EndPass1.
		w.u64(uint64(len(tp.copies)))
		for i := range tp.copies {
			c := &tp.copies[i]
			w.i64(int64(c.u))
			w.i64(int64(c.level))
			w.i64(int64(c.parent))
			w.i64(int64(c.witness[0]))
			w.i64(int64(c.witness[1]))
			w.boolean(c.terminal)
			w.intSlice(c.members)
		}
		for u := 0; u < tp.n; u++ {
			w.intSlice(tp.terminalsOf[u])
		}
		// Pass-2 tables, sorted by terminal copy index.
		cis := make([]int, 0, len(tp.tables))
		for ci := range tp.tables {
			cis = append(cis, ci)
		}
		sort.Ints(cis)
		w.u64(uint64(len(cis)))
		for _, ci := range cis {
			w.i64(int64(ci))
			for _, t := range tp.tables[ci] {
				if err := w.sketchBlock(t); err != nil {
					return nil, err
				}
			}
		}
		// Augmented edge set, sorted for a canonical encoding.
		edges := make([][2]int, 0, len(tp.augmented))
		for e := range tp.augmented {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(a, b int) bool {
			return edges[a][0] < edges[b][0] ||
				(edges[a][0] == edges[b][0] && edges[a][1] < edges[b][1])
		})
		w.u64(uint64(len(edges)))
		for _, e := range edges {
			w.i64(int64(e[0]))
			w.i64(int64(e[1]))
		}
	}
	return w.b, nil
}

// UnmarshalBinary reconstructs a two-pass state encoded with
// MarshalBinary. The rebuilt state merges with (and forks from) states
// built locally from the same configuration.
func (tp *TwoPass) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	tag, err := r.u64()
	if err != nil || (tag != tagTwoPass && tag != tagTwoPassV2) {
		return fmt.Errorf("spanner: not a TwoPass encoding: %w", errCorrupt)
	}
	v2 := tag == tagTwoPassV2
	n64, err := r.u64()
	if err != nil {
		return err
	}
	phase, err := r.u64()
	if err != nil {
		return err
	}
	cfg, err := r.config()
	if err != nil {
		return err
	}
	if n64 == 0 || n64 > 1<<24 || phase > 1 {
		return errCorrupt
	}
	n := int(n64)
	rebuilt := NewTwoPass(n, cfg)
	hasVertexSk, err := r.boolean()
	if err != nil {
		return err
	}
	if !hasVertexSk {
		rebuilt.vertexSk, rebuilt.fams = nil, nil // pass-2 worker shape (ForkPass2)
	}
	for u := range rebuilt.vertexSk {
		for ri := range rebuilt.vertexSk[u] {
			for j := range rebuilt.vertexSk[u][ri] {
				enc, ok, err := r.rawSketchBlock(v2)
				if err != nil {
					return err
				}
				if !ok {
					continue // zero block: the slot stays untouched
				}
				if err := rebuilt.sk(u, ri+1, j).UnmarshalBinary(enc); err != nil {
					return err
				}
			}
		}
	}
	if phase == 1 {
		nCopies, err := r.u64()
		if err != nil {
			return err
		}
		if nCopies > uint64(n)*uint64(rebuilt.k) {
			return errCorrupt
		}
		rebuilt.copies = make([]copyNode, nCopies)
		for i := range rebuilt.copies {
			c := &rebuilt.copies[i]
			fields := []*int{&c.u, &c.level, &c.parent, &c.witness[0], &c.witness[1]}
			for _, dst := range fields {
				v, err := r.i64()
				if err != nil {
					return err
				}
				*dst = int(v)
			}
			if c.terminal, err = r.boolean(); err != nil {
				return err
			}
			if c.members, err = r.intSlice(n); err != nil {
				return err
			}
		}
		rebuilt.terminalsOf = make([][]int, n)
		for u := 0; u < n; u++ {
			if rebuilt.terminalsOf[u], err = r.intSlice(int(nCopies)); err != nil {
				return err
			}
		}
		rebuilt.tables = rebuilt.allocTables()
		nTables, err := r.u64()
		if err != nil {
			return err
		}
		if nTables != uint64(len(rebuilt.tables)) {
			return errCorrupt
		}
		for i := uint64(0); i < nTables; i++ {
			ci64, err := r.i64()
			if err != nil {
				return err
			}
			row, ok := rebuilt.tables[int(ci64)]
			if !ok {
				return errCorrupt
			}
			for j := range row {
				if err := r.sketchBlock(v2, row[j]); err != nil {
					return err
				}
			}
		}
		nAug, err := r.u64()
		if err != nil {
			return err
		}
		if nAug > uint64(n)*uint64(n) {
			return errCorrupt
		}
		for i := uint64(0); i < nAug; i++ {
			a, err := r.i64()
			if err != nil {
				return err
			}
			b, err := r.i64()
			if err != nil {
				return err
			}
			rebuilt.augmented[[2]int{int(a), int(b)}] = true
		}
		rebuilt.phase = 1
	}
	if len(r.b) != 0 {
		return errCorrupt
	}
	*tp = *rebuilt
	return nil
}

func (w *wbuf) additiveConfig(cfg AdditiveConfig) {
	w.i64(int64(cfg.D))
	w.u64(cfg.Seed)
	w.f64(cfg.DegreeFactor)
	w.f64(cfg.CenterFactor)
	w.boolean(cfg.UseF0Degree)
}

func (r *rbuf) additiveConfig() (AdditiveConfig, error) {
	var cfg AdditiveConfig
	d, err := r.i64()
	if err != nil {
		return cfg, err
	}
	cfg.D = int(d)
	if cfg.Seed, err = r.u64(); err != nil {
		return cfg, err
	}
	if cfg.DegreeFactor, err = r.f64(); err != nil {
		return cfg, err
	}
	if cfg.CenterFactor, err = r.f64(); err != nil {
		return cfg, err
	}
	cfg.UseF0Degree, err = r.boolean()
	return cfg, err
}

// MarshalBinary encodes the full streaming state of the single-pass
// additive spanner: configuration, per-vertex neighborhood and center
// sketches, degree counters, the optional F0 degree sketches, and the
// AGM forest sketch. A finished state cannot be marshaled.
func (a *Additive) MarshalBinary() ([]byte, error) {
	if a.done {
		return nil, fmt.Errorf("spanner: cannot marshal a finished additive state")
	}
	// The wire format carries pure stream states: fold any
	// extraction-era E_low subtractions back in first.
	a.restoreStream()
	w := &wbuf{}
	w.u64(tagAdditiveV2)
	w.u64(uint64(a.n))
	w.additiveConfig(a.cfg)
	for u := 0; u < a.n; u++ {
		if err := w.sketchBlock(a.nbr[u]); err != nil {
			return nil, err
		}
		for _, s := range a.centerS[u] {
			if err := w.sketchBlock(s); err != nil {
				return nil, err
			}
		}
		w.i64(a.degree[u])
		if a.degF0 != nil {
			if err := w.sketchBlock(a.degF0[u]); err != nil {
				return nil, err
			}
		}
	}
	enc, err := a.forest.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.block(enc)
	return w.b, nil
}

// UnmarshalBinary reconstructs an additive state encoded with
// MarshalBinary. The rebuilt state merges with states built locally
// from the same configuration.
func (a *Additive) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	tag, err := r.u64()
	if err != nil || (tag != tagAdditive && tag != tagAdditiveV2) {
		return fmt.Errorf("spanner: not an Additive encoding: %w", errCorrupt)
	}
	v2 := tag == tagAdditiveV2
	n64, err := r.u64()
	if err != nil {
		return err
	}
	cfg, err := r.additiveConfig()
	if err != nil {
		return err
	}
	if n64 == 0 || n64 > 1<<24 {
		return errCorrupt
	}
	rebuilt := NewAdditive(int(n64), cfg)
	for u := 0; u < rebuilt.n; u++ {
		if err := r.sketchBlock(v2, rebuilt.nbr[u]); err != nil {
			return err
		}
		for ri := range rebuilt.centerS[u] {
			if err := r.sketchBlock(v2, rebuilt.centerS[u][ri]); err != nil {
				return err
			}
		}
		if rebuilt.degree[u], err = r.i64(); err != nil {
			return err
		}
		if rebuilt.degF0 != nil {
			if err := r.sketchBlock(v2, rebuilt.degF0[u]); err != nil {
				return err
			}
		}
	}
	enc, err := r.block()
	if err != nil {
		return err
	}
	if err := rebuilt.forest.UnmarshalBinary(enc); err != nil {
		return err
	}
	if len(r.b) != 0 {
		return errCorrupt
	}
	*a = *rebuilt
	return nil
}
