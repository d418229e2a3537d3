package spanner

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dynstream/internal/agm"
	"dynstream/internal/wire"
)

// Binary serialization for the spanner streaming states, so per-shard
// sketch states can be shipped between processes mid-stream (the
// distributed protocol of the paper's introduction): a worker
// marshals its pass state, the coordinator unmarshals and merges it
// with MergePass1/MergePass2/Merge exactly as if the shard had been
// ingested locally. Finished states (after Finish) are results, not
// sketches, and do not serialize. Every embedded sketch is a wire sketch
// block, so an untouched vertex sketch, table row, or degree sketch
// encodes as a single 0 byte.

// Wire bounds. The blobs cross dynnet frames and checkpoints, and a
// decoded state allocates the layout its header describes, so every
// header field a constructor sizes memory from is bounded, and the body
// must be long enough for that layout before any of it is allocated:
// a TwoPass vertex-sketch slot is at least one byte, a phase-1 state
// lists every vertex's terminal copies (eight bytes at least) and each
// copy in minCopyBytes, an additive vertex carries its degree counter
// and one byte per sketch. What a decoded state then allocates is
// linear in its input: mostly slot pointers (both states create their
// per-vertex sketches and a TwoPass its pass-2 tables on first touch;
// an untouched table is one byte on the wire and a nil slot here).
const (
	maxWireN      = 1 << 24
	maxWireK      = 64 // the stretch exponent
	maxWireLevels = 64 // edge-subsampling levels: a pair's level is at most 64
	maxWireBudget = 1 << 16
	minCopyBytes  = 56
)

var errCorrupt = errors.New("spanner: corrupt serialized data")

func writeConfig(w *wire.Writer, cfg Config) {
	w.Int(cfg.K)
	w.U64(cfg.Seed)
	w.Int(cfg.Budget)
	w.F64(cfg.TableFactor)
	w.Int(cfg.Levels)
	w.Bool(cfg.CollectAugmented)
}

func readConfig(r *wire.Reader) Config {
	return Config{K: r.Int(), Seed: r.U64(), Budget: r.Int(), TableFactor: r.F64(),
		Levels: r.Int(), CollectAugmented: r.Bool()}
}

// onWire reports whether a decoded configuration is one NewTwoPass
// resolves to for n — so it re-encodes to the same bytes — and inside
// the wire bounds.
func (c Config) onWire(n int) bool {
	return c == c.withDefaults(n) && c.K <= maxWireK && c.Budget >= 1 && c.Budget <= maxWireBudget &&
		c.Levels >= 0 && c.Levels <= maxWireLevels
}

// Fits reports whether the state NewTwoPass builds on n vertices from c
// has a configuration UnmarshalBinary accepts.
func (c Config) Fits(n int) bool { return c.withDefaults(n).onWire(n) }

// MarshalBinary encodes the full streaming state of the two-pass
// spanner: the configuration, the pass-1 vertex sketches, and — after
// EndPass1 — the cluster structure and pass-2 tables. A finished state
// (after Finish) cannot be marshaled.
func (tp *TwoPass) MarshalBinary() ([]byte, error) {
	if tp.phase > 1 {
		return nil, fmt.Errorf("spanner: cannot marshal a finished two-pass state")
	}
	w := &wire.Writer{}
	w.U64(wire.TagTwoPass)
	w.U64(uint64(tp.n))
	w.U64(uint64(tp.phase))
	writeConfig(w, tp.cfg)
	// Pass-1 vertex sketches, in the deterministic (u, r, j) order the
	// constructor allocates. A pass-2 worker from ForkPass2 owns no
	// vertex sketches (tables only); the flag records which shape this
	// state has.
	w.Bool(tp.vertexSk != nil)
	for u := range tp.vertexSk {
		for r := range tp.vertexSk[u] {
			for _, s := range tp.vertexSk[u][r] {
				if err := w.SketchBlock(s); err != nil {
					return nil, err
				}
			}
		}
	}
	if tp.phase == 1 {
		// Cluster structure from EndPass1.
		w.U64(uint64(len(tp.copies)))
		for i := range tp.copies {
			c := &tp.copies[i]
			for _, v := range []int{c.u, c.level, c.parent, c.witness[0], c.witness[1]} {
				w.Int(v)
			}
			w.Bool(c.terminal)
			w.Ints(c.members)
		}
		for u := 0; u < tp.n; u++ {
			w.Ints(tp.terminalsOf[u])
		}
		// Pass-2 tables, in terminal copy order.
		w.U64(uint64(tp.terminals()))
		for ci, row := range tp.tables {
			if row == nil {
				continue
			}
			w.Int(ci)
			for _, t := range row {
				if err := w.SketchBlock(t); err != nil {
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
		w.U64(uint64(len(edges)))
		for _, e := range edges {
			w.Int(e[0])
			w.Int(e[1])
		}
	}
	return w.Bytes(), nil
}

func pairLess(a, b [2]int) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }

// UnmarshalBinary reconstructs a two-pass state encoded with
// MarshalBinary. The rebuilt state merges with (and forks from) states
// built locally from the same configuration. Only canonical encodings
// decode — exactly the bytes MarshalBinary writes for some state, and
// within the wire bounds — and the header is checked against the body
// before the state is laid out.
func (tp *TwoPass) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagTwoPass {
		return fmt.Errorf("spanner: not a TwoPass encoding: %w", errCorrupt)
	}
	n64, phase, cfg, sketches := r.U64(), r.U64(), readConfig(r), r.Bool()
	n := int(n64)
	// A phase-0 state with k > 1 always has its vertex sketches; k = 1
	// never has any; a phase-1 state without them is a ForkPass2 worker.
	if r.Err() != nil || n64 == 0 || n64 > maxWireN || phase > 1 || !cfg.onWire(n) ||
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
	if uint64(r.Len()) < need {
		return errCorrupt
	}
	rebuilt := newTwoPass(n, cfg, sketches)
	for u := range rebuilt.vertexSk {
		for ri, row := range rebuilt.vertexSk[u] {
			for j := range row {
				if enc := r.SketchBlock(); enc != nil {
					s, err := rebuilt.fam(ri+1, j).Decode(enc)
					if err != nil {
						r.Fail(err)
					}
					row[j] = s
				}
			}
		}
	}
	if phase == 1 && r.Err() == nil {
		rebuilt.readStructure(r)
	}
	if err := r.Done(); err != nil {
		return err
	}
	*tp = *rebuilt
	return nil
}

// readStructure decodes what EndPass1 adds — cluster structure, pass-2
// tables, augmented edges — into a state laid out by newTwoPass. Every
// index a later pass-2 ingest or decode follows is checked here: copy
// levels and endpoints, and that each vertex's terminal list names
// terminal copies in ascending order (pass-2 routing merges those lists
// and reads the tables they name).
func (tp *TwoPass) readStructure(r *wire.Reader) {
	n, k := tp.n, tp.k
	nCopies := r.U64()
	if nCopies > uint64(n)*uint64(k) || nCopies*minCopyBytes > uint64(r.Len()) {
		r.Fail(nil)
		return
	}
	nc := int(nCopies)
	tp.copies = make([]copyNode, nc)
	for i := range tp.copies {
		c := &tp.copies[i]
		c.u, c.level, c.parent = r.Int(), r.Int(), r.Int()
		c.witness = [2]int{r.Int(), r.Int()}
		c.terminal = r.Bool()
		c.members = r.Ints(n)
		if c.u < 0 || c.u >= n || c.level < 0 || c.level >= k || c.parent < -1 || c.parent >= nc ||
			min(c.witness[0], c.witness[1]) < 0 || max(c.witness[0], c.witness[1]) >= n {
			r.Fail(nil)
		}
	}
	if r.Err() != nil || uint64(r.Len()) < 8*uint64(n) {
		r.Fail(nil)
		return
	}
	tp.terminalsOf = make([][]int, n)
	for u := range tp.terminalsOf {
		ts := r.Ints(nc)
		for i, t := range ts {
			if t < 0 || t >= nc || !tp.copies[t].terminal || i > 0 && t <= ts[i-1] {
				r.Fail(nil)
				return
			}
		}
		tp.terminalsOf[u] = ts
	}
	if r.Err() != nil {
		return
	}
	tp.tables = tp.allocTables()
	rows := tp.terminals()
	if r.U64() != uint64(rows) {
		r.Fail(nil)
	}
	prev := -1
	for i := 0; i < rows && r.Err() == nil; i++ {
		ci := r.Int()
		if ci <= prev || ci >= len(tp.tables) || tp.tables[ci] == nil {
			r.Fail(nil)
			return
		}
		prev = ci
		for j := range tp.tables[ci] {
			// A present block creates its slot; the slot's table accepts
			// only its own seed and geometry.
			r.SketchInto(func() wire.Decoder { return tp.table(ci, j) })
		}
	}
	nAug := r.U64()
	if nAug > uint64(r.Len())/16 {
		r.Fail(nil)
	}
	last := [2]int{math.MinInt, math.MinInt}
	for i := uint64(0); i < nAug && r.Err() == nil; i++ {
		e := [2]int{r.Int(), r.Int()}
		if !pairLess(last, e) {
			r.Fail(nil)
		}
		tp.augmented[e], last = true, e
	}
	tp.phase = 1
}

func writeAdditiveConfig(w *wire.Writer, cfg AdditiveConfig) {
	w.Int(cfg.D)
	w.U64(cfg.Seed)
	w.F64(cfg.DegreeFactor)
	w.F64(cfg.CenterFactor)
	w.Bool(cfg.UseF0Degree)
}

func readAdditiveConfig(r *wire.Reader) AdditiveConfig {
	return AdditiveConfig{D: r.Int(), Seed: r.U64(), DegreeFactor: r.F64(), CenterFactor: r.F64(),
		UseF0Degree: r.Bool()}
}

// onWire reports whether a decoded additive configuration is one
// NewAdditive resolves to, with D at most n and the neighborhood sketch
// a first touch creates within maxWireBudget.
func (c AdditiveConfig) onWire(n int) bool {
	return c == c.withDefaults() && c.D <= n && c.DegreeFactor > 0 && 2*c.cutoff(n)+4 <= maxWireBudget
}

// Fits reports whether the state NewAdditive builds on n vertices from
// c has a configuration UnmarshalBinary accepts.
func (c AdditiveConfig) Fits(n int) bool { return c.withDefaults().onWire(n) }

// MarshalBinary encodes the full streaming state of the single-pass
// additive spanner: configuration, per-vertex neighborhood and center
// sketches, degree counters, the optional F0 degree sketches, and the
// AGM forest sketch. A finished state cannot be marshaled.
func (a *Additive) MarshalBinary() ([]byte, error) {
	if a.done {
		return nil, fmt.Errorf("spanner: cannot marshal a finished additive state")
	}
	w := &wire.Writer{}
	w.U64(wire.TagAdditive)
	w.U64(uint64(a.n))
	writeAdditiveConfig(w, a.cfg)
	for u := 0; u < a.n; u++ {
		if err := w.SketchBlock(a.nbr[u]); err != nil {
			return nil, err
		}
		for _, s := range a.centers(u) {
			if err := w.SketchBlock(s); err != nil {
				return nil, err
			}
		}
		w.U64(uint64(a.degree[u]))
		if a.degF0 != nil {
			if err := w.SketchBlock(a.degF0[u]); err != nil {
				return nil, err
			}
		}
	}
	enc, err := a.forest.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Block(enc)
	return w.Bytes(), nil
}

// UnmarshalBinary reconstructs an additive state encoded with
// MarshalBinary. The rebuilt state merges with states built locally
// from the same configuration. What it allocates is linear in its
// input: a slot pointer per suppressed sketch block (one byte each), a
// sketch per present one, and the forest sketch, whose own decoder
// bounds it. The header is checked first: n against the body, and the
// neighborhood sketch a first touch creates to at most maxWireBudget.
func (a *Additive) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagAdditive {
		return fmt.Errorf("spanner: not an Additive encoding: %w", errCorrupt)
	}
	n64, cfg := r.U64(), readAdditiveConfig(r)
	n := int(n64)
	perVertex := uint64(10 + log2(n)) // degree counter, nbr and center sketch blocks
	if r.Err() != nil || n64 == 0 || n64 > maxWireN || !cfg.onWire(n) || uint64(r.Len()) < n64*perVertex {
		return errCorrupt
	}
	rebuilt := newAdditive(n, cfg)
	for u := 0; u < n && r.Err() == nil; u++ {
		r.SketchInto(func() wire.Decoder { return rebuilt.nbrAt(u) })
		for i := u * (rebuilt.log2n + 1); i < (u+1)*(rebuilt.log2n+1); i++ {
			r.SketchInto(func() wire.Decoder { return rebuilt.centerAt(i) })
		}
		rebuilt.degree[u] = int64(r.U64())
		if rebuilt.degF0 != nil {
			r.SketchInto(func() wire.Decoder { return rebuilt.f0At(u) })
		}
	}
	if enc := r.Block(); r.Err() == nil {
		rebuilt.forest = new(agm.Sketch)
		if err := rebuilt.forest.UnmarshalBinary(enc); err != nil || rebuilt.forest.N() != n {
			r.Fail(err)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*a = *rebuilt
	return nil
}
