package spanner

import (
	"fmt"

	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
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
// Every cache is keyed by an injective sketch.StateDigest (member lists
// plus monotonic generation sums), never a hash, so a hit provably
// reproduces what a cold decode of the same state would compute — the
// incremental result is bit-identical to a from-scratch build over the
// same total stream.

// attachKey identifies one cluster-decode region: the center vertex u
// at hierarchy level `level`.
type attachKey struct {
	level int
	u     int
}

// attachResult is one center's decode outcome, applied serially.
type attachResult struct {
	attached  bool
	parent    int    // copy index in level i+1
	witness   [2]int // σ(edge to parent)
	augmented [][2]int
}

// attachEntry caches an attachment decode under the state digest of
// everything the decode read.
type attachEntry struct {
	key string
	res attachResult
}

// recEntry caches one terminal's neighborhood recovery under the
// summed generation counter of its table row.
type recEntry struct {
	gens  uint64
	edges [][2]int
}

// EnableDecodeCache turns the per-center attachment cache and the
// per-terminal recovery cache on or off. Off releases both caches.
// Cached and uncached extraction are bit-identical; the cache only
// skips decodes whose inputs are provably unchanged.
func (tp *TwoPass) EnableDecodeCache(on bool) {
	tp.caching = on
	if !on {
		tp.attach = nil
		tp.recCache = nil
	}
}

// InvalidateDecodeCache drops the attachment and recovery caches and
// forgets the last cluster-structure digest, so the next QueryLive
// re-clusters, reallocates the pass-2 tables, and replays the stream
// from scratch. Correctness never requires this — the digest checks
// already reject stale entries — it only bounds memory or forces a
// cold decode for measurement.
func (tp *TwoPass) InvalidateDecodeCache() {
	tp.attach = nil
	tp.recCache = nil
	tp.clusterKey = ""
}

// attachDigest fingerprints one cluster-decode region: the member list
// and the summed generation counter of every pass-1 sketch the decode
// reads (rows r = level+1, all subsampling levels j). The sum is
// collision-free over a fixed member list because each counter is
// monotonic: an equal sum means every sketch is bit-identical to the
// state the cache entry decoded.
func (tp *TwoPass) attachDigest(level int, members []int) string {
	var d sketch.StateDigest
	d.Tag('A')
	d.Int(level)
	d.Int(len(members))
	var gens uint64
	for _, v := range members {
		d.Int(v)
		for _, s := range tp.vertexSk[v][level] {
			if s != nil { // an untouched sketch has generation 0
				gens += s.Gen()
			}
		}
	}
	d.U64(gens)
	return d.Key()
}

// clusterStructKey fingerprints the cluster forest itself. Member
// lists are omitted: they are a pure function of the parent pointers
// (members = subtree vertex union), as is terminalsOf, so equal keys
// mean the whole downstream routing structure — and with it every
// pass-2 table's key population — is identical.
func clusterStructKey(copies []copyNode) string {
	var d sketch.StateDigest
	d.Tag('S')
	d.Int(len(copies))
	for i := range copies {
		c := &copies[i]
		d.Int(c.u)
		d.Int(c.level)
		d.Int(c.parent)
		t := 0
		if c.terminal {
			t = 1
		}
		d.Int(t)
		d.Int(c.witness[0])
		d.Int(c.witness[1])
	}
	return d.Key()
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
// the resulting structure digest matches the previous query's, the
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
	p = p.DecodePolicy()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	cr, err := tp.clusterize(p)
	if err != nil {
		return nil, err
	}
	tp.copies = cr.copies
	tp.terminalsOf = cr.terminalsOf
	if cr.structKey != tp.clusterKey || tp.tables == nil {
		tp.clusterKey = cr.structKey
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
