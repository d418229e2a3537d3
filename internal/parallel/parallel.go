// Package parallel provides the concurrent ingest machinery that turns
// the repository's linear sketches into multi-core pipelines. Every
// construction here is a linear function of the update stream, so
// states built from the same seed over disjoint parts of a stream and
// merged equal the state of one serial pass — the distributed-servers
// setting of the paper's introduction, which dynstream's remote builds
// run across processes.
//
// Inside one process nothing is merged. Ingest replays the stream once
// into one state whose batch kernel fans each batch out by itself
// through a Crew (crew.go: the AGM-family sketches split a batch by
// vertex range, the two-pass states' pass 2 by table range, the
// sparsifier grid by cell range in both passes). Both two-pass states
// go through one protocol, RunTwoPass, over an Engine: Local here, which
// runs both passes through Ingest into the build's one state, or
// dynstream's remote engine, which ships states to worker processes and
// folds them with MapOpts and TreeMerge.
//
// Execution is governed by a Policy: context (cancellation), worker
// count, batch size, and an optional progress callback.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynstream/internal/obs"
	"dynstream/internal/stream"
)

// Policy bundles the execution parameters of one build: cancellation
// context, worker count, update-batch size, an optional progress
// callback, and an optional tracer. A single Policy is threaded
// through every pass of a build so cancellation, progress, and trace
// spans are cumulative across passes.
type Policy struct {
	ctx      context.Context
	workers  int
	batch    int
	decode   int // decode-phase worker count; 0 follows workers
	progress func(int64)
	tracer   *obs.Tracer // nil disables tracing
	done     *int64      // cumulative updates processed, shared across passes
}

// NewPolicy creates an execution policy. ctx may be nil (no
// cancellation); workers must be >= 1; batch <= 0 selects
// stream.DefaultBatchSize; progress, when non-nil, receives the
// cumulative number of updates processed (across all passes and
// shards) and must be safe for concurrent use.
func NewPolicy(ctx context.Context, workers, batch int, progress func(int64)) *Policy {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Policy{ctx: ctx, workers: workers, batch: batch, progress: progress, done: new(int64)}
}

// Default is the serial no-frills policy legacy entry points run under.
func Default() *Policy { return NewPolicy(nil, 1, 0, nil) }

// WithWorkers returns a policy like p but with the given worker count,
// sharing p's context, batch size, progress sink, and counter. Used by
// multi-stage pipelines whose inner builds run serially.
func (p *Policy) WithWorkers(workers int) *Policy {
	cp := *p
	cp.workers = workers
	return &cp
}

// WithDecode returns a policy like p but with the given decode-phase
// worker count (0 makes decode follow the ingest worker count).
func (p *Policy) WithDecode(workers int) *Policy {
	cp := *p
	cp.decode = workers
	return &cp
}

// WithTracer returns a policy like p but with the given tracer (nil
// disables tracing), sharing p's context, batch size, progress sink,
// and counter. Every pass run under the policy emits its phase spans
// and ingest totals to the tracer; instrumentation is observational
// only, so a traced build's output is bit-identical to an untraced
// one.
func (p *Policy) WithTracer(t *obs.Tracer) *Policy {
	cp := *p
	cp.tracer = t
	return &cp
}

// Tracer returns the policy's tracer; nil means tracing is off. The
// returned value is safe to call methods on either way — a nil
// *obs.Tracer is the disabled tracer.
func (p *Policy) Tracer() *obs.Tracer { return p.tracer }

// Context returns the policy's context (never nil).
func (p *Policy) Context() context.Context { return p.ctx }

// Workers returns the policy's worker count.
func (p *Policy) Workers() int { return p.workers }

// DecodeWorkers returns the worker count decode stages run at: the
// explicit WithDecode override when set, otherwise the ingest worker
// count.
func (p *Policy) DecodeWorkers() int {
	if p.decode > 0 {
		return p.decode
	}
	return p.workers
}

// DecodePolicy returns the policy decode stages run under: same
// context, batch size, and progress sink, with Workers() set to
// DecodeWorkers(). Extraction code takes a plain Policy, so ingest
// drivers call this once at the ingest/decode boundary.
func (p *Policy) DecodePolicy() *Policy {
	cp := *p
	cp.workers = p.DecodeWorkers()
	cp.decode = 0
	return &cp
}

// tick is the per-batch bookkeeping hook: it observes cancellation and
// publishes progress. n is the number of updates in the batch. The
// cumulative total is computed once and fanned to both sinks: the
// legacy direct callback and the tracer's ingest event (which carries
// its own observers — the public WithProgress option rides there).
func (p *Policy) tick(n int) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if n > 0 && (p.progress != nil || p.tracer != nil) {
		total := atomic.AddInt64(p.done, int64(n))
		if p.progress != nil {
			p.progress(total)
		}
		p.tracer.Ingested(total)
	}
	return nil
}

// validate checks the worker count.
func (p *Policy) validate() error {
	if p.workers < 1 {
		return fmt.Errorf("parallel: workers must be >= 1, got %d", p.workers)
	}
	return nil
}

// Validate reports whether the policy is executable (workers >= 1).
// Decode entry points call it before they start.
func (p *Policy) Validate() error { return p.validate() }

// Replay drives one serial batched pass over src under the policy:
// updates are delivered to fn in slices of at most the policy's batch
// size, with a cancellation check and progress tick per batch. The
// batch slice is reused between calls.
func (p *Policy) Replay(src stream.Source, fn func([]stream.Update) error) error {
	return stream.ReplayBatches(src, p.batch, func(b []stream.Update) error {
		if err := p.tick(len(b)); err != nil {
			return err
		}
		return fn(b)
	})
}

// minBatchPerWorker is the fewest updates a goroutine of a fanned-out
// batch kernel takes on. Below it, starting and joining the goroutine
// costs more than the share of the batch it takes over. Measured with
// the AGM kernel on a 2-vCPU Xeon (go1.24): on n = 64, where an update
// is cheapest, two workers cost 1.11× one worker's time at 64 updates a
// worker and 0.81× at 128; on n = 1 000 and 10 000 they pay from 64.
const minBatchPerWorker = 128

// BatchWorkers is the goroutine count a batch kernel fans a batch of
// the given number of updates out to: workers, capped at GOMAXPROCS
// and at one goroutine per minBatchPerWorker updates, and at least 1.
// A kernel takes at most one default batch (stream.DefaultBatchSize) at
// a time, so updates past it add no goroutine.
func BatchWorkers(workers, updates int) int {
	return max(1, min(workers, runtime.GOMAXPROCS(0), min(updates, stream.DefaultBatchSize)/minBatchPerWorker))
}

// Ingest is the pass of a state whose batch kernel fans out by itself:
// src is replayed once, serially, into add, which ingests each batch at
// the policy's worker count. Every local build's ingest is this call.
func Ingest(p *Policy, src stream.Source, add func([]stream.Update) error) error {
	return p.traceIngest(func() error { return p.Replay(src, add) })
}

// IngestOpts is the sharded-ingest pipeline: at workers > 1 over a
// source that replays concurrently, each worker replays its own
// round-robin shard of src into a state built by newState, and the
// states are folded into the first one with merge, in shard order. The
// states must be built from identical randomness (same seed and
// parameters), so the fold equals a serial pass: every update
// operation is a commutative group operation. At one worker, or over a
// single-cursor source, src is replayed into one state. IngestOpts has
// no production caller: every local build ingests into one state
// through Ingest, and bench/'s staged replay is its only user. It goes,
// with ingestDispatch, shardIngest and shardSpan, once that replay
// moves to Ingest (ROADMAP 1(a)).
func IngestOpts[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var s S
	err := p.traceIngest(func() (err error) {
		s, err = ingestDispatch(p, src, newState, update, merge)
		return err
	})
	if err != nil {
		var zero S
		return zero, err
	}
	return s, nil
}

// traceIngest runs one ingest pass under the policy's "ingest" span,
// which records the updates the pass replayed and the worker count.
func (p *Policy) traceIngest(pass func() error) error {
	if err := p.validate(); err != nil {
		return err
	}
	sp := p.tracer.Span("ingest")
	before := atomic.LoadInt64(p.done)
	if err := pass(); err != nil {
		return err
	}
	sp.End(
		obs.A("updates", atomic.LoadInt64(p.done)-before),
		obs.A("workers", int64(p.workers)))
	return nil
}

// TwoPassIngest is the ingest half of TwoPassState, the calls the local
// engine makes: each pass's batch kernel, which fans a batch out across
// the policy's workers inside the one state.
type TwoPassIngest interface {
	Pass1AddBatchOpts([]stream.Update, *Policy) error
	Pass2AddBatchOpts([]stream.Update, *Policy) error
}

// TwoPassState is the pass protocol of the two-pass sketch states
// (spanner.TwoPass, and sparsify.Grid whose cells are TwoPass states):
// pass 1, an offline decode closing it (EndPass1), pass 2 into the
// decoded state's tables, and the final decode.
type TwoPassState[R any] interface {
	TwoPassIngest
	EndPass1Opts(*Policy) error
	FinishOpts(*Policy) (R, error)
}

// Engine runs the two ingest passes of RunTwoPass over one stream, each
// into main, the one state of the build: Pass1 before EndPass1, Pass2
// after it. Local is the in-process engine; dynstream's remote engine
// ships states to worker processes and folds theirs into main.
type Engine[S any] struct {
	Pass1 func(main S) error
	Pass2 func(main S) error
}

// Local is the in-process engine over src under p: each pass replays
// src once into main itself, whose batch kernel fans each batch out by
// itself, so a local build keeps one state at any worker count and
// merges nothing.
func Local[S TwoPassIngest](p *Policy, src stream.Source) Engine[S] {
	return Engine[S]{
		Pass1: func(main S) error {
			return Ingest(p, src, func(b []stream.Update) error { return main.Pass1AddBatchOpts(b, p) })
		},
		Pass2: func(main S) error {
			return Ingest(p, src, func(b []stream.Update) error { return main.Pass2AddBatchOpts(b, p) })
		},
	}
}

// RunTwoPass runs the two-pass protocol through e, the one place the
// pass sequence is written: newState's state takes pass 1, EndPass1,
// pass 2 and the decode. p governs the offline stages. Every state
// operation is a commutative group operation, so the result is
// independent of the engine and of how it spreads the stream. what
// names the build in pass errors ("spanner: parallel" → "spanner:
// parallel pass 1: …").
func RunTwoPass[S TwoPassState[R], R any](p *Policy, what string, e Engine[S], newState func() (S, error)) (R, error) {
	var zero R
	main, err := newState()
	if err == nil {
		err = e.Pass1(main)
	}
	if err != nil {
		return zero, fmt.Errorf("%s pass 1: %w", what, err)
	}
	if err := main.EndPass1Opts(p); err != nil {
		return zero, err
	}
	if err := e.Pass2(main); err != nil {
		return zero, fmt.Errorf("%s pass 2: %w", what, err)
	}
	return main.FinishOpts(p)
}

// ingestDispatch picks IngestOpts' strategy: one state, or sharded
// replay when there are workers to shard over and src replays
// concurrently.
func ingestDispatch[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var zero S
	if p.workers > 1 && stream.ConcurrentReplayable(src) {
		return shardIngest(p, src, newState, update, merge)
	}
	s, err := newState()
	if err != nil {
		return zero, err
	}
	if err := p.Replay(src, func(b []stream.Update) error { return update(s, b) }); err != nil {
		return zero, err
	}
	return s, nil
}

// shardSpan opens the per-shard ingest span; the Sprintf only runs
// when tracing is on.
func (p *Policy) shardSpan(i int) obs.Span {
	if p.tracer == nil {
		return obs.Span{}
	}
	return p.tracer.Span(fmt.Sprintf("ingest/shard%02d", i))
}

// shardIngest runs one worker per round-robin shard, each replaying
// its own view of src concurrently (src must be safe for concurrent
// Replay). Merging happens in shard order so runs are reproducible.
func shardIngest[S any](
	p *Policy,
	src stream.Source,
	newState func() (S, error),
	update func(S, []stream.Update) error,
	merge func(dst, src S) error,
) (S, error) {
	var zero S
	shards, err := stream.Split(src, p.workers)
	if err != nil {
		return zero, err
	}
	states := make([]S, p.workers)
	errs := make([]error, p.workers)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := p.shardSpan(i)
			s, err := newState()
			if err != nil {
				errs[i] = err
				return
			}
			var n int64
			errs[i] = stream.ReplayBatches(shards[i], p.batch, func(b []stream.Update) error {
				if err := p.tick(len(b)); err != nil {
					return err
				}
				n += int64(len(b))
				return update(s, b)
			})
			states[i] = s
			sp.End(obs.A("updates", n))
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return zero, fmt.Errorf("parallel: shard %d: %w", i, e)
		}
	}
	msp := p.tracer.Span("ingest/merge")
	for i := 1; i < p.workers; i++ {
		if err := merge(states[0], states[i]); err != nil {
			return zero, err
		}
	}
	msp.End(obs.A("states", int64(p.workers)))
	return states[0], nil
}
