package dynstream

import (
	"context"
	"fmt"
	"sync"

	"dynstream/internal/dynnet"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// Handle is a live build: where Build ingests a stream and decodes
// once, Open returns a handle whose sketch state stays mutable —
// further updates fold in with Apply, and repeated Query calls
// re-extract the result from the current state. Because every
// construction is a linear sketch, a query after any sequence of Apply
// batches is bit-identical to a cold Build over the concatenated
// stream, at every worker count.
//
// Queries are served incrementally. One rule governs the decode
// caches: a live state caches, a one-shot Build does not. Each target
// keeps per-region decodes — per-component sampler picks for the AGM
// family, per-center cluster attachments and per-terminal recoveries
// for the spanner, and for the sparsifier the same two spanner caches
// in each of its grid cells and sample spanners — keyed by member list
// and generation sum. Generation counters only grow, so an unchanged
// key proves the region's inputs unchanged, and only the regions an
// Apply actually touched are re-decoded.
//
// A Handle is safe for use from one goroutine at a time per method
// call (an internal mutex serializes Apply/Query/Merge/Checkpoint);
// concurrent callers still need their own ordering if they care which
// updates a query observes.
type Handle[R any] struct {
	mu   sync.Mutex
	n    int
	src  Source
	o    *buildOptions
	live liveState[R]
	// applied counts the updates folded in with Apply since Open (or
	// since the checkpointed handle's own Open, for a restored handle).
	// It is written into every checkpoint, so a restorer knows exactly
	// which stream suffix to replay.
	applied int64
}

// CacheStats reports the live state's decode-cache traffic: Hits counts
// cached region decodes (component picks, cluster attachments, terminal
// recoveries, per-vertex peels) reused because their inputs provably
// decode as before — for the spanner's and sparsifier's tables, member
// lists and generation sums unchanged; for a forest component's pick,
// members unchanged and no logged update crossing its boundary at or
// above the L0 level its last draw decoded at, since the draw reads no
// lower level; Misses counts regions that had to re-decode. Both are
// cumulative over the handle's lifetime (a restored handle starts from
// zero). The serving layer exports them
// as Prometheus counters.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// liveState is the per-target mutable state behind a Handle.
type liveState[R any] interface {
	// apply folds a batch in at the policy's worker count.
	apply(batch []Update, p *parallel.Policy) error
	query(p *parallel.Policy) (R, error)
	// cacheStats reports cumulative decode-cache hits and misses (see
	// CacheStats).
	cacheStats() (hits, misses uint64)
	merge(state any) error
	// snapshot returns the state's kind tag and its serialized live
	// contents for Handle.Checkpoint (see checkpoint.go).
	snapshot() (dynnet.StateKind, []byte, error)
}

// Open is the live front door: it ingests src into the target's sketch
// state — exactly as Build would — and returns a Handle serving
// Apply/Query instead of a one-shot result.
//
// Live handles run locally: the remote options (WithRemoteWorkers,
// WithRemoteCluster, WithWorkerShards) are rejected — ship marshaled
// sketch states from remote processes and fold them in with
// Handle.Merge instead. WithWeightClasses is rejected too (the class
// split is a per-build reduction, not a live state). MSFTarget needs
// an explicit WMax: a scanned bound could be exceeded by a later
// Apply batch. Multi-pass targets (spanner, sparsifier) need a
// replayable source, which the handle retains for re-extraction.
func Open[R any](ctx context.Context, src Source, target Target[R], opts ...Option) (*Handle[R], error) {
	o, pl, err := resolve(src, target, opts, true)
	if err != nil {
		return nil, err
	}
	// The tracer (and the WithProgress observer riding on it) persists
	// for the handle's lifetime: ingest here, then every Query and
	// Checkpoint report into the same tracer.
	o.tracer, _ = o.effectiveTracer()
	live, err := pl.openLive(src, o.policy(ctx, src, o.tracer))
	if err != nil {
		return nil, err
	}
	return &Handle[R]{n: src.N(), src: src, o: o, live: live}, nil
}

// N returns the vertex count.
func (h *Handle[R]) N() int { return h.n }

// Apply folds a batch of updates into the live sketch state. Updates
// are validated and canonicalized exactly as a MemoryStream.Append
// would, so a Query afterwards matches a cold Build over the base
// stream plus every applied batch.
func (h *Handle[R]) Apply(updates []Update) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	checked := make([]Update, 0, len(updates))
	for _, u := range updates {
		cu, err := stream.CheckUpdate(u, h.n)
		if err != nil {
			return fmt.Errorf("dynstream: Apply: %w", err)
		}
		checked = append(checked, cu)
	}
	// Apply takes no context and reports no progress: its policy carries
	// the handle's worker count and nothing else.
	p := parallel.NewPolicy(nil, h.o.resolveWorkers(h.src), h.o.batch, nil)
	if err := h.live.apply(checked, p); err != nil {
		return err
	}
	h.applied += int64(len(checked))
	return nil
}

// AppliedUpdates returns the number of updates folded in with Apply
// over this handle's lifetime — for a handle from Restore, continuing
// the checkpointed handle's count. A caller replaying a stream through
// Apply can therefore checkpoint at any point, crash, Restore, and
// resume from exactly update AppliedUpdates() of its log.
func (h *Handle[R]) AppliedUpdates() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.applied
}

// Query extracts the target's result from the live state's current
// contents — bit-identical to what Build would return over the total
// stream, at any worker count. Sketch-family targets (forest,
// k-connectivity, bipartiteness, MSF) return the live sketch itself;
// its decode methods (SpanningForestOpts, CertificateOpts, ...) are
// what re-decode incrementally. Decode-family targets (spanner,
// additive spanner, sparsifier) return a freshly extracted result.
func (h *Handle[R]) Query(ctx context.Context) (r R, err error) {
	err = h.QueryView(ctx, func(res R, _ int64) error {
		r = res
		return nil
	})
	return r, err
}

// QueryView is Query with the result consumed under the same hold of
// the handle's mutex: view runs with the result and the applied-update
// count it observed, and no Apply, Merge or Checkpoint can land until
// view returns. The count always lands on a batch boundary (Apply is
// all-or-nothing), so a caller can prove the result against an offline
// Build over exactly the first `applied` updates of its log.
// Sketch-family targets answer a query with the live sketch itself, so
// a caller that decodes it concurrently with Apply must decode inside
// view — after Query returns, the next Apply mutates the sketch
// mid-decode and tears the answer. view must not call back into the
// handle.
func (h *Handle[R]) QueryView(ctx context.Context, view func(r R, applied int64) error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	sp := h.o.tracer.Span("query")
	r, err := h.live.query(h.o.policy(ctx, h.src, h.o.tracer))
	if err != nil {
		return err
	}
	sp.End(obs.A("applied", h.applied))
	return view(r, h.applied)
}

// DecodeCacheStats reports the cumulative decode-cache hit/miss
// counters of the live state (see CacheStats).
func (h *Handle[R]) DecodeCacheStats() CacheStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	hits, misses := h.live.cacheStats()
	return CacheStats{Hits: hits, Misses: misses}
}

// Merge folds another sketch state — typically unmarshaled from a
// remote worker's SKETCH blob — into the live state. The merged-in
// state must be the target's own state type built with the same
// configuration and seed: *ForestSketch, *KConnectivity,
// *Bipartiteness, *MSF, or *AdditiveSpanner. Generation counters bump
// only on the samplers the merge actually changed, so the next Query
// re-decodes exactly the touched components. Two-pass targets
// (SpannerTarget, SparsifierTarget) reject Merge: their live log
// cannot absorb updates it never saw — Apply the remote updates, or
// merge pass-1 states before Open.
func (h *Handle[R]) Merge(state any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live.merge(state)
}
