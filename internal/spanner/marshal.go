package spanner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"dynstream/internal/agm"
)

// Binary serialization for the spanner streaming states, so per-shard
// sketch states can be shipped between processes mid-stream (the
// distributed protocol of the paper's introduction): a worker
// marshals its pass state, the coordinator unmarshals and merges it
// with MergePass1/MergePass2/Merge exactly as if the shard had been
// ingested locally. Finished states (after Finish) are results, not
// sketches, and do not serialize.

const (
	// The encodings varint-encode sketch-block lengths and suppress zero
	// sketches (an untouched vertex sketch, table row, or degree sketch
	// encodes as a single 0 byte).
	tagTwoPassV2  uint64 = 0xd15c_0106
	tagAdditiveV2 uint64 = 0xd15c_0107
)

// Wire bounds. The blobs cross dynnet frames and checkpoints, and a
// decoded state allocates the layout its header describes, so every
// header field a constructor sizes memory from is bounded, and the body
// must be long enough for that layout before any of it is allocated:
// a TwoPass vertex-sketch slot is at least one byte, a phase-1 state
// lists every vertex's terminal copies (eight bytes at least) and each
// copy in minCopyBytes, an additive vertex carries its degree counter
// and one byte per sketch. What a decoded state then allocates is
// linear in its input: mostly slot pointers (both states create their
// per-vertex sketches on first touch), and a TwoPass's pass-2 table
// headers (~240 B, encoded as one byte while untouched).
const (
	maxWireN      = 1 << 24
	maxWireK      = 64 // the stretch exponent
	maxWireLevels = 64 // edge-subsampling levels: a pair's level is at most 64
	maxWireBudget = 1 << 16
	minCopyBytes  = 56
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
// suppression: a zero state (never touched — possibly never created,
// nil — or canceled back to zero) is a single 0 byte.
// Content-canonical by construction.
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

// rbuf reads an encoding front to back. The first short or malformed
// read sets err and empties the buffer, so every later read returns a
// zero value: a decoder checks err once per section, before it
// allocates from what it read.
type rbuf struct {
	b   []byte
	err error
}

// fail records a corrupt encoding; cause, when not nil, is the nested
// decoder's error.
func (r *rbuf) fail(cause error) {
	if r.err == nil {
		r.err = errCorrupt
		if cause != nil {
			r.err = fmt.Errorf("%w: %v", errCorrupt, cause)
		}
	}
	r.b = nil
}

func (r *rbuf) u64() uint64 {
	if len(r.b) < 8 {
		r.fail(nil)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v
}

func (r *rbuf) int() int     { return int(int64(r.u64())) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) boolean() bool {
	v := r.u64()
	if v > 1 {
		r.fail(nil)
	}
	return v == 1
}

// bytes reads the next ln bytes.
func (r *rbuf) bytes(ln uint64) []byte {
	if uint64(len(r.b)) < ln {
		r.fail(nil)
		return nil
	}
	b := r.b[:ln]
	r.b = r.b[ln:]
	return b
}

func (r *rbuf) block() []byte { return r.bytes(r.u64()) }

// sketchBlock reads one varint-length sketch block; nil is a suppressed
// block, the zero state. The length must be minimally encoded, as the
// encoder writes it.
func (r *rbuf) sketchBlock() []byte {
	ln, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail(nil)
		return nil
	}
	r.b = r.b[n:]
	if ln == 0 {
		return nil
	}
	return r.bytes(ln)
}

type zeroDecoder interface {
	UnmarshalBinary([]byte) error
	IsZero() bool
}

// sketchInto decodes the next sketch block into the fresh zero state at
// returns. at runs only for a present block, so a slot created on first
// touch stays nil (zero) for a suppressed one; a present block must not
// encode zero (the encoder would have suppressed it).
func (r *rbuf) sketchInto(at func() zeroDecoder) {
	enc := r.sketchBlock()
	if enc == nil {
		return
	}
	dst := at()
	if err := dst.UnmarshalBinary(enc); err != nil || dst.IsZero() {
		r.fail(err)
	}
}

// intSlice reads a length-prefixed list of at most max ints.
func (r *rbuf) intSlice(max int) []int {
	ln := r.u64()
	if ln > uint64(max) || ln > uint64(len(r.b))/8 {
		r.fail(nil)
		return nil
	}
	out := make([]int, ln)
	for i := range out {
		out[i] = r.int()
	}
	return out
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

func (r *rbuf) config() Config {
	return Config{K: r.int(), Seed: r.u64(), Budget: r.int(), TableFactor: r.f64(),
		Levels: r.int(), CollectAugmented: r.boolean()}
}

// onWire reports whether a decoded configuration is one NewTwoPass
// resolves to for n — so it re-encodes to the same bytes — and inside
// the wire bounds.
func (c Config) onWire(n int) bool {
	return c == c.withDefaults(n) && c.K <= maxWireK && c.Budget >= 1 && c.Budget <= maxWireBudget &&
		c.Levels >= 0 && c.Levels <= maxWireLevels
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
				if err := w.sketchBlock(s); err != nil {
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
		sort.Slice(edges, func(a, b int) bool { return pairLess(edges[a], edges[b]) })
		w.u64(uint64(len(edges)))
		for _, e := range edges {
			w.i64(int64(e[0]))
			w.i64(int64(e[1]))
		}
	}
	return w.b, nil
}

func pairLess(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }

// UnmarshalBinary reconstructs a two-pass state encoded with
// MarshalBinary. The rebuilt state merges with (and forks from) states
// built locally from the same configuration. Only canonical encodings
// decode — exactly the bytes MarshalBinary writes for some state, and
// within the wire bounds — and the header is checked against the body
// before the state is laid out.
func (tp *TwoPass) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	if r.u64() != tagTwoPassV2 {
		return fmt.Errorf("spanner: not a TwoPass encoding: %w", errCorrupt)
	}
	n64, phase, cfg, sketches := r.u64(), r.u64(), r.config(), r.boolean()
	n := int(n64)
	// A phase-0 state with k > 1 always has its vertex sketches; k = 1
	// never has any; a phase-1 state without them is a ForkPass2 worker.
	if r.err != nil || n64 == 0 || n64 > maxWireN || phase > 1 || !cfg.onWire(n) ||
		sketches && cfg.K == 1 || !sketches && cfg.K > 1 && phase == 0 {
		return errCorrupt
	}
	var need uint64
	if sketches {
		need = n64 * uint64(cfg.K-1) * uint64(cfg.levels(log2(n)))
	}
	if phase == 1 {
		need += 8*n64 + 16
	}
	if uint64(len(r.b)) < need {
		return errCorrupt
	}
	rebuilt := newTwoPass(n, cfg, sketches)
	for u := range rebuilt.vertexSk {
		for ri, row := range rebuilt.vertexSk[u] {
			for j := range row {
				if enc := r.sketchBlock(); enc != nil {
					s, err := rebuilt.fam(ri+1, j).Decode(enc)
					if err != nil {
						r.fail(err)
					}
					row[j] = s
				}
			}
		}
	}
	if phase == 1 && r.err == nil {
		rebuilt.readStructure(r)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(nil)
	}
	if r.err != nil {
		return r.err
	}
	*tp = *rebuilt
	return nil
}

// readStructure decodes what EndPass1 adds — cluster structure, pass-2
// tables, augmented edges — into a state laid out by newTwoPass. Every
// index a later pass-2 ingest or decode follows is checked here: copy
// levels and endpoints, and that each vertex's terminal list names
// terminal copies in ascending order (routePass2 reads their tables).
func (tp *TwoPass) readStructure(r *rbuf) {
	n, k := tp.n, tp.k
	nCopies := r.u64()
	if nCopies > uint64(n)*uint64(k) || nCopies*minCopyBytes > uint64(len(r.b)) {
		r.fail(nil)
		return
	}
	nc := int(nCopies)
	tp.copies = make([]copyNode, nc)
	for i := range tp.copies {
		c := &tp.copies[i]
		c.u, c.level, c.parent = r.int(), r.int(), r.int()
		c.witness = [2]int{r.int(), r.int()}
		c.terminal = r.boolean()
		c.members = r.intSlice(n)
		if c.u < 0 || c.u >= n || c.level < 0 || c.level >= k || c.parent < -1 || c.parent >= nc ||
			min(c.witness[0], c.witness[1]) < 0 || max(c.witness[0], c.witness[1]) >= n {
			r.fail(nil)
		}
	}
	if r.err != nil || uint64(len(r.b)) < 8*uint64(n) {
		r.fail(nil)
		return
	}
	tp.terminalsOf = make([][]int, n)
	for u := range tp.terminalsOf {
		ts := r.intSlice(nc)
		for i, t := range ts {
			if t < 0 || t >= nc || !tp.copies[t].terminal || i > 0 && t <= ts[i-1] {
				r.fail(nil)
				return
			}
		}
		tp.terminalsOf[u] = ts
	}
	if r.err != nil {
		return
	}
	tp.tables = tp.allocTables()
	if r.u64() != uint64(len(tp.tables)) {
		r.fail(nil)
	}
	prev := -1
	for i := 0; i < len(tp.tables) && r.err == nil; i++ {
		ci := r.int()
		row, ok := tp.tables[ci]
		if !ok || ci <= prev {
			r.fail(nil)
			return
		}
		prev = ci
		for _, t := range row {
			r.sketchInto(func() zeroDecoder { return t })
		}
	}
	nAug := r.u64()
	if nAug > uint64(len(r.b))/16 {
		r.fail(nil)
	}
	last := [2]int{math.MinInt, math.MinInt}
	for i := uint64(0); i < nAug && r.err == nil; i++ {
		e := [2]int{r.int(), r.int()}
		if !pairLess(last, e) {
			r.fail(nil)
		}
		tp.augmented[e], last = true, e
	}
	tp.phase = 1
}

func (w *wbuf) additiveConfig(cfg AdditiveConfig) {
	w.i64(int64(cfg.D))
	w.u64(cfg.Seed)
	w.f64(cfg.DegreeFactor)
	w.f64(cfg.CenterFactor)
	w.boolean(cfg.UseF0Degree)
}

func (r *rbuf) additiveConfig() AdditiveConfig {
	return AdditiveConfig{D: r.int(), Seed: r.u64(), DegreeFactor: r.f64(), CenterFactor: r.f64(),
		UseF0Degree: r.boolean()}
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
		for _, s := range a.centers(u) {
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
// from the same configuration. What it allocates is linear in its
// input: a slot pointer per suppressed sketch block (one byte each), a
// sketch per present one, and the forest sketch, whose own decoder
// bounds it. The header is checked first: n against the body, and the
// neighborhood sketch a first touch creates to at most maxWireBudget.
func (a *Additive) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	if r.u64() != tagAdditiveV2 {
		return fmt.Errorf("spanner: not an Additive encoding: %w", errCorrupt)
	}
	n64, cfg := r.u64(), r.additiveConfig()
	n := int(n64)
	perVertex := uint64(10 + log2(n)) // degree counter, nbr and center sketch blocks
	if r.err != nil || n64 == 0 || n64 > maxWireN || cfg != cfg.withDefaults() || cfg.D > n ||
		!(cfg.DegreeFactor > 0 && 2*cfg.cutoff(n)+4 <= maxWireBudget) || uint64(len(r.b)) < n64*perVertex {
		return errCorrupt
	}
	rebuilt := newAdditive(n, cfg)
	for u := 0; u < n && r.err == nil; u++ {
		r.sketchInto(func() zeroDecoder { return rebuilt.nbrAt(u) })
		for i := u * (rebuilt.log2n + 1); i < (u+1)*(rebuilt.log2n+1); i++ {
			r.sketchInto(func() zeroDecoder { return rebuilt.centerAt(i) })
		}
		rebuilt.degree[u] = int64(r.u64())
		if rebuilt.degF0 != nil {
			r.sketchInto(func() zeroDecoder { return rebuilt.f0At(u) })
		}
	}
	if enc := r.block(); r.err == nil {
		rebuilt.forest = new(agm.Sketch)
		if err := rebuilt.forest.UnmarshalBinary(enc); err != nil || rebuilt.forest.N() != n {
			r.fail(err)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(nil)
	}
	if r.err != nil {
		return r.err
	}
	*a = *rebuilt
	return nil
}
