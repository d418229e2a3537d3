package spanner

import (
	"fmt"
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// This file lifts the mergeability of the underlying linear sketches to
// the spanner constructions. States created from the same configuration
// (same seed, hence the paper's "agree upon a sketching matrix S") over
// disjoint parts of a stream merge into the state of one serial pass:
// every per-update operation is a commutative group operation (int64
// addition and GF(2^61−1) addition), so the merged state is identical —
// not merely equivalent — to single-threaded ingestion, and everything
// decoded from it (clusters, tables, the final spanner) matches exactly.
// Only states that cross a process boundary merge (remote builds, dynnet
// workers); a local build ingests both passes into its one state.

// MergePass1 adds the first-pass sketch state of another TwoPass built
// with the same configuration. Both states must still be in pass 1; the
// receiver afterwards holds the sketch of the union of the two ingested
// shard streams.
func (tp *TwoPass) MergePass1(o *TwoPass) error {
	if tp.phase != 0 || o.phase != 0 {
		return fmt.Errorf("spanner: MergePass1 in phase %d/%d", tp.phase, o.phase)
	}
	if tp.n != o.n || tp.cfg != o.cfg {
		return fmt.Errorf("spanner: merging incompatible two-pass states (n %d/%d)", tp.n, o.n)
	}
	for u := range tp.vertexSk {
		for r := range tp.vertexSk[u] {
			for j, os := range o.vertexSk[u][r] {
				if os == nil {
					continue // untouched on the other side: adds zero
				}
				if err := tp.sk(u, r+1, j).Merge(os); err != nil {
					return fmt.Errorf("spanner: pass-1 merge (u=%d, r=%d, j=%d): %w", u, r+1, j, err)
				}
			}
		}
	}
	return nil
}

// ForkPass2 returns a pass-2 worker state: it shares tp's immutable
// cluster structure (computed by EndPass1) and owns fresh, untouched
// second-pass tables with the same seeds, so the worker can ingest a
// stream shard independently and be folded back with MergePass2. The
// receiver must have finished pass 1. Remote builds ship it; a local
// build feeds pass 2 into the EndPass1 state itself.
func (tp *TwoPass) ForkPass2() (*TwoPass, error) {
	if tp.phase != 1 {
		return nil, fmt.Errorf("spanner: ForkPass2 in phase %d", tp.phase)
	}
	w := &TwoPass{
		cfg:         tp.cfg,
		n:           tp.n,
		k:           tp.k,
		jMax:        tp.jMax,
		yMax:        tp.yMax,
		log2n:       tp.log2n,
		inC:         tp.inC,         // read-only after NewTwoPass
		edgeLevel:   tp.edgeLevel,   // immutable
		yLevel:      tp.yLevel,      // immutable
		copies:      tp.copies,      // read-only after EndPass1
		terminalsOf: tp.terminalsOf, // read-only after EndPass1
		augmented:   map[[2]int]bool{},
		phase:       1,
	}
	w.tables = w.allocTables()
	return w, nil
}

// MergePass2 adds the second-pass table state of a worker created by
// ForkPass2 (or any TwoPass sharing the same configuration and cluster
// structure). Both states must be in pass 2.
func (tp *TwoPass) MergePass2(o *TwoPass) error {
	if tp.phase != 1 || o.phase != 1 {
		return fmt.Errorf("spanner: MergePass2 in phase %d/%d", tp.phase, o.phase)
	}
	if tp.n != o.n || tp.cfg != o.cfg {
		return fmt.Errorf("spanner: merging incompatible two-pass states (n %d/%d)", tp.n, o.n)
	}
	if len(tp.tables) != len(o.tables) {
		return fmt.Errorf("spanner: merging pass-2 states with different cluster structures (%d vs %d copies)",
			len(tp.tables), len(o.tables))
	}
	for ci, row := range tp.tables {
		orow := o.tables[ci]
		if (row == nil) != (orow == nil) {
			return fmt.Errorf("spanner: pass-2 merge: copy %d is terminal in only one of the states", ci)
		}
		for j, ot := range orow {
			if ot == nil {
				continue // a slot the worker never wrote: the zero table adds nothing
			}
			if err := tp.table(ci, j).Merge(ot); err != nil {
				return fmt.Errorf("spanner: pass-2 merge (copy=%d, j=%d): %w", ci, j, err)
			}
		}
	}
	for e := range o.augmented {
		tp.augmented[e] = true
	}
	return nil
}

// BuildTwoPassOpts is the policy-driven two-pass build:
// parallel.RunTwoPass over in-process ingest into one state — pass 1
// through Pass1AddBatchOpts, pass 2 through the fanned-out table kernel
// — both passes under p's context (cancellation observed at batch
// granularity), worker count, batch size, and progress sink. One code
// path (and one set of trace spans) serves all widths. The source must be
// replayable; output is identical to BuildTwoPass for the same
// configuration under any policy.
func BuildTwoPassOpts(src stream.Source, cfg Config, p *parallel.Policy) (*Result, error) {
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("spanner: two-pass build: %w", stream.ErrNotReplayable)
	}
	return parallel.RunTwoPass(p, "spanner: parallel", parallel.Local[*TwoPass](p, src),
		func() (*TwoPass, error) { return NewTwoPass(src.N(), cfg), nil })
}

// BuildTwoPassWeightedWith is the weight-class construction with an
// injected per-class builder: the class split, per-class seed mixing,
// and weight-rescaled assembly live here once, while build runs each
// class's unweighted two-pass construction — serially
// (BuildTwoPassWeighted), under a policy, or on remote workers.
// classBase 0 means no weight classes: build runs once over src.
func BuildTwoPassWeightedWith(src stream.Source, cfg Config, classBase float64, build func(stream.Source, Config) (*Result, error)) (*Result, error) {
	if classBase == 0 {
		return build(src, cfg)
	}
	if !(classBase > 1) || math.IsInf(classBase, 1) {
		return nil, fmt.Errorf("spanner: classBase must be in (1, +Inf), got %v", classBase)
	}
	if !stream.CanReplay(src) {
		return nil, fmt.Errorf("spanner: weighted two-pass build: %w", stream.ErrNotReplayable)
	}
	classes, sub, err := stream.WeightClasses(src, classBase)
	if err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	out := &Result{Spanner: graph.New(src.N())}
	if cfg.CollectAugmented {
		out.Augmented = graph.New(src.N())
	}
	for _, c := range classes {
		ccfg := cfg
		ccfg.Seed = hashing.Mix(cfg.Seed, 0x3c, uint64(c))
		res, err := build(sub[c], ccfg)
		if err != nil {
			return nil, fmt.Errorf("spanner: weight class %d: %w", c, err)
		}
		wUpper := math.Pow(classBase, float64(c+1))
		for _, e := range res.Spanner.Edges() {
			out.Spanner.AddEdge(e.U, e.V, wUpper)
		}
		if cfg.CollectAugmented && res.Augmented != nil {
			for _, e := range res.Augmented.Edges() {
				out.Augmented.AddEdge(e.U, e.V, wUpper)
			}
		}
		out.SpaceWords += res.SpaceWords
		out.Terminals += res.Terminals
	}
	return out, nil
}

// Merge adds the sketch state of another Additive built with the same
// configuration; the receiver afterwards sketches the union of the two
// ingested streams. Neither state may be finished.
func (a *Additive) Merge(o *Additive) error {
	if a.done || o.done {
		return fmt.Errorf("spanner: additive Merge after Finish")
	}
	if a.n != o.n || a.cfg != o.cfg {
		return fmt.Errorf("spanner: merging incompatible additive states (n %d/%d)", a.n, o.n)
	}
	// A sketch o never touched adds zero: skipped, and not created here.
	for u, s := range o.nbr {
		if s != nil {
			if err := a.nbrAt(u).Merge(s); err != nil {
				return fmt.Errorf("spanner: additive merge nbr[%d]: %w", u, err)
			}
		}
		a.degree[u] += o.degree[u]
	}
	for i, s := range o.centerS {
		if s != nil {
			if err := a.centerAt(i).Merge(s); err != nil {
				return fmt.Errorf("spanner: additive merge centerS[%d][%d]: %w", i/(a.log2n+1), i%(a.log2n+1), err)
			}
		}
	}
	for u, f := range o.degF0 {
		if f != nil {
			a.f0At(u).Merge(f)
		}
	}
	return a.forest.Merge(o.forest)
}
