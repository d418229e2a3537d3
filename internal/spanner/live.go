package spanner

import (
	"fmt"
	"slices"

	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// Live two-pass state: the spanner construction is two-pass, so a live
// handle cannot simply keep folding updates into finished tables — the
// second pass is defined over the cluster structure, which itself
// depends on the first-pass sketches. Instead, a live state keeps
// pass 1 permanently open and re-runs the offline halves on demand:
//
//	StartLive(src)  — replay the base stream through pass 1, remember src
//	ApplyLive(upds) — fold updates into pass 1 AND append to the live log
//	QueryLive(p)    — re-cluster (cached per center); if the structure is
//	                  unchanged, fold only the not-yet-synced log suffix
//	                  into the existing tables (linearity); otherwise
//	                  rebuild tables and replay src + log; then extract
//	                  (cached per terminal).
//
// A live state caches and a one-shot build does not: every cache entry
// holds the member list (or table row) it decoded and the sum of its
// sketches' generation counters. Counters only grow, so an equal list
// and sum prove the inputs bit-identical to the cached decode's — the
// incremental result is bit-identical to a from-scratch build over the
// same total stream.

// attachResult is one center's decode outcome, applied serially.
type attachResult struct {
	attached  bool
	parent    int    // copy index in level i+1
	witness   [2]int // σ(edge to parent)
	augmented [][2]int
}

// attachEntry caches one center's attachment decode: the member list it
// read (shared with the copy forest it came from, which never writes it
// again) and the summed generation counter of the pass-1 sketches the
// decode read. An entry with nil members is empty.
type attachEntry struct {
	members []int
	gens    uint64
	res     attachResult
}

// recEntry caches one terminal's neighborhood recovery under the
// summed generation counter of its table row.
type recEntry struct {
	gens  uint64
	edges [][2]int
}

// attachGens sums the generation counters of every pass-1 sketch one
// attachment decode reads: rows r = level+1, all subsampling levels j,
// of every member. An untouched sketch has generation 0.
func (tp *TwoPass) attachGens(level int, members []int) uint64 {
	var gens uint64
	for _, v := range members {
		for _, s := range tp.vertexSk[v][level] {
			if s != nil {
				gens += s.Gen()
			}
		}
	}
	return gens
}

// sameForest reports whether two cluster forests agree on every copy's
// vertex, level, parent, terminal mark and witness. Member lists and
// terminalsOf are pure functions of the parent pointers, so equal
// forests route every pass-2 update to the same tables.
func sameForest(a, b []copyNode) bool {
	return slices.EqualFunc(a, b, func(x, y copyNode) bool {
		return x.u == y.u && x.level == y.level && x.parent == y.parent &&
			x.terminal == y.terminal && x.witness == y.witness
	})
}

// StartLive converts a fresh state into a live one over the replayable
// base stream src: pass 1 ingests all of src, and src is retained for
// the pass-2 replays QueryLive needs. The state stays in phase 0
// forever — EndPass1/Finish are never called on a live state.
func (tp *TwoPass) StartLive(src stream.Stream) error {
	if tp.phase != 0 {
		return fmt.Errorf("spanner: StartLive called in phase %d", tp.phase)
	}
	if tp.liveSrc != nil {
		return fmt.Errorf("spanner: StartLive called twice")
	}
	if err := stream.ReplayBatches(src, 0, tp.Pass1AddBatch); err != nil {
		return fmt.Errorf("spanner: live pass 1: %w", err)
	}
	tp.liveSrc = src
	return nil
}

// ApplyLive folds a batch of updates into the live state: into the
// pass-1 sketches immediately, and onto the live log from which
// QueryLive feeds the pass-2 tables.
func (tp *TwoPass) ApplyLive(batch []stream.Update) error {
	if tp.liveSrc == nil {
		return fmt.Errorf("spanner: ApplyLive before StartLive")
	}
	if err := tp.Pass1AddBatch(batch); err != nil {
		return err
	}
	tp.liveLog = append(tp.liveLog, batch...)
	return nil
}

// QueryLive extracts the spanner from the live state's current
// contents — bit-identical to a cold BuildTwoPass over the base stream
// plus every ApplyLive batch, at any worker count.
//
// The incremental structure: the cluster construction re-runs with the
// per-center attachment cache, so only dirty clusters re-decode. If
// the resulting cluster forest equals the previous query's, the
// existing pass-2 tables are still a correct function of the structure
// and the stream prefix they have absorbed, so only the unsynced live
// log suffix is folded in (sketches are linear). A changed structure
// reallocates the tables and replays base + log. Either way the tables
// take the pass-2 kernel at p's worker count, without the phase gate of
// Pass2AddBatchOpts — a live state stays in phase 0 so pass-1 ingest
// remains open.
func (tp *TwoPass) QueryLive(p *parallel.Policy) (*Result, error) {
	if tp.liveSrc == nil {
		return nil, fmt.Errorf("spanner: QueryLive before StartLive")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	cr, err := tp.clusterize(p)
	if err != nil {
		return nil, err
	}
	prev := tp.copies
	tp.copies, tp.terminalsOf = cr.copies, cr.terminalsOf
	if tp.tables == nil || !sameForest(prev, cr.copies) {
		tp.recCache = nil // rows are reallocated; old recoveries are moot
		tp.tables = tp.allocTables()
		err = stream.ReplayBatches(tp.liveSrc, 0, func(b []stream.Update) error {
			tp.addPass2(b, parallel.BatchWorkers(p.Workers(), len(b)))
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("spanner: live pass 2: %w", err)
		}
		tp.liveSynced = 0
	}
	suffix := tp.liveLog[tp.liveSynced:]
	tp.addPass2(suffix, parallel.BatchWorkers(p.Workers(), len(suffix)))
	tp.liveSynced = len(tp.liveLog)
	// The augmented set is rebuilt per query: stale pairs from clusters
	// that have since re-attached must not linger.
	tp.augmented = make(map[[2]int]bool, len(cr.augmented))
	for _, e := range cr.augmented {
		tp.augmented[e] = true
	}
	return tp.extractOpts(p)
}
