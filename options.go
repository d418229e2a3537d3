package dynstream

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// Typed configuration errors, so callers (and the CLI) can classify
// failures with errors.Is instead of string matching.
var (
	// ErrBadWorkers reports an invalid worker count (must be >= 1).
	ErrBadWorkers = errors.New("dynstream: workers must be >= 1")
	// ErrBadConfig reports an invalid build configuration.
	ErrBadConfig = errors.New("dynstream: invalid configuration")
	// ErrNotReplayable reports that a multi-pass build was asked to run
	// over a source that can only be consumed once (a pipe, a channel).
	ErrNotReplayable = stream.ErrNotReplayable
	// ErrTooManyClasses reports a weighted build whose weights, at its
	// WithWeightClasses base, fall in a class above the largest a
	// sketch holds (a base too close to 1 for the weights' range).
	ErrTooManyClasses = stream.ErrTooManyClasses
)

// Option configures a Build call.
type Option func(*buildOptions)

// buildOptions is the resolved option set of one Build call.
type buildOptions struct {
	workers       int
	workersSet    bool
	decodeWorkers int
	decodeSet     bool
	batch         int
	classBase     float64
	seed          uint64
	seedSet       bool
	progress      func(int64)
	tracer        *obs.Tracer
	traceFile     string
	remoteAddrs   []string
	remoteSet     bool
	cluster       *RemoteCluster
	workerShards  bool
	localFallback bool
	remoteOpts    RemoteOptions
}

// seedOr resolves a target's seed: WithSeed overrides the target's own.
func (o *buildOptions) seedOr(seed uint64) uint64 {
	if o.seedSet {
		return o.seed
	}
	return seed
}

// policy is the execution policy of one local pass or query: the
// resolved ingest and decode worker counts over src, the batch size,
// and tr (nil disables tracing; a progress callback rides on it).
func (o *buildOptions) policy(ctx context.Context, src Source, tr *obs.Tracer) *parallel.Policy {
	return parallel.NewPolicy(ctx, o.resolveWorkers(src), o.batch, nil).
		WithDecode(o.resolveDecodeWorkers(src)).WithTracer(tr)
}

// remote reports whether this build runs on remote worker processes.
func (o *buildOptions) remote() bool { return o.remoteSet || o.cluster != nil }

// WithWorkers fixes the number of concurrent ingest workers. A local
// build keeps one state at any worker count and the workers split each
// batch inside it: a single-pass target by vertex range, the
// sparsifier by grid-cell range in both passes, the spanner by table
// range in pass 2. Without it, Build picks one worker or several
// automatically; the result is identical either way.
func WithWorkers(n int) Option {
	return func(o *buildOptions) { o.workers = n; o.workersSet = true }
}

// WithDecodeWorkers overrides the worker count of the decode phases
// that fan out: the sparsifier grid's per-cell extraction, and (for
// remote builds) the coordinator's worker-state decode and tree merge.
// The other decodes (Borůvka rounds, the spanner's cluster construction
// and table peeling) run on the calling goroutine. Without it decode
// runs at the ingest worker count (WithWorkers, or the automatic
// choice). Decode parallelism never changes the output: results are
// placed by index and applied in the serial order, so every decoded
// object is bit-identical to a serial decode.
func WithDecodeWorkers(n int) Option {
	return func(o *buildOptions) { o.decodeWorkers = n; o.decodeSet = true }
}

// WithBatchSize sets the update-batch granularity of the ingest
// pipeline (default stream.DefaultBatchSize, 16 384). Batching is
// purely an execution knob: any batch size yields bit-identical
// results. The AGM-family targets sort each batch by vertex and sweep
// their sampler grid once per batch, so they ingest fastest when a
// batch is comparable to the vertex count (0.69× the per-update cost at
// n = 10 000); what a large batch gives up is granularity — the build
// checks for cancellation and reports progress once per batch (about
// 0.2 s of forest ingest at the default). A smaller batch buys that
// back at the old ingest cost.
func WithBatchSize(b int) Option {
	return func(o *buildOptions) { o.batch = b }
}

// WithWeightClasses switches weight-aware targets (spanner,
// sparsifier) to the geometric weight-class construction of Remark 14
// with the given class base, in (1, +Inf).
func WithWeightClasses(base float64) Option {
	return func(o *buildOptions) { o.classBase = base }
}

// WithSeed overrides the target's random seed — every sketch drawn by
// the build derives its randomness from it.
func WithSeed(s uint64) Option {
	return func(o *buildOptions) { o.seed = s; o.seedSet = true }
}

// WithProgress installs a progress callback invoked with the
// cumulative number of updates processed (across all passes and
// workers). fn must be safe for concurrent use.
//
// WithProgress is implemented as an adapter over the tracer's ingest
// events (see WithTracer): the build registers fn as an ingest
// observer on its tracer — the user's, or a private one when tracing
// was not requested — so progress and tracing share one event path.
// The observer is removed when the call that installed it returns.
func WithProgress(fn func(updates int64)) Option {
	return func(o *buildOptions) { o.progress = fn }
}

// WithTracer attaches a Tracer to the build: every phase of the
// pipeline — each ingest pass, each Borůvka round, cluster construction
// and recovery peeling, grid extraction, dynnet frame traffic,
// checkpoint I/O — emits spans and counters into it. Tracing is
// observational only: a traced build's output is bit-identical to an
// untraced one, and a nil tracer costs nothing. The same tracer may
// be reused across builds and queries; aggregates accumulate.
func WithTracer(t *Tracer) Option {
	return func(o *buildOptions) { o.tracer = t }
}

// WithTraceFile makes Build write a Chrome trace_event JSON file
// (loadable in chrome://tracing or Perfetto) to path when the build
// finishes. It enables raw event recording on the build's tracer —
// the WithTracer one, or a private tracer when none was given. A
// failure to write the file is reported only if the build itself
// succeeded.
func WithTraceFile(path string) Option {
	return func(o *buildOptions) { o.traceFile = path }
}

// WithRemoteWorkers runs the build on remote worker processes: Build
// dials the given addresses ("host:port", "unix:/path", or a bare
// socket path), registers the workers, shards every pass's stream
// across them, and merges the returned sketch states — bit-identical
// to a local build by linearity. The connections are closed when Build
// returns; to amortize the handshake across several builds, dial once
// with DialWorkers and pass WithRemoteCluster instead. WithWorkers is
// ignored for remote builds (the worker count is the cluster size).
func WithRemoteWorkers(addrs ...string) Option {
	return func(o *buildOptions) { o.remoteAddrs = addrs; o.remoteSet = true }
}

// WithRemoteCluster runs the build on an already-established worker
// cluster (DialWorkers / AcceptWorkers). The cluster stays open after
// Build returns.
func WithRemoteCluster(c *RemoteCluster) Option {
	return func(o *buildOptions) { o.cluster = c }
}

// WithLocalFallback makes a remote build degrade to a local build when
// the cluster is lost — it cannot be established at dial time, or
// every worker drops mid-build (ErrNoWorkers) — and the source is
// replayable. The fallback reruns the build in-process with the same
// seeds, so its result is bit-identical to what the cluster would have
// produced. Typed worker errors (a bad update, a non-replayable local
// shard) are not retried: they would recur locally.
func WithLocalFallback() Option {
	return func(o *buildOptions) { o.localFallback = true }
}

// WithRemoteOptions tunes the connection management of a remote build
// that dials its own workers (WithRemoteWorkers): handshake and
// per-frame timeouts, dial retry/backoff, and redialing. Builds on an
// established cluster (WithRemoteCluster) carry the options the
// cluster was dialed with instead.
func WithRemoteOptions(ro RemoteOptions) Option {
	return func(o *buildOptions) { o.remoteOpts = ro }
}

// WithWorkerShards makes a remote build ingest each worker's own local
// shard source (`dynstream worker -shard FILE`) instead of streaming
// the coordinator's source: src then only supplies the vertex count.
// Only targets that never need the stream at the coordinator support
// this (no weight classes, no sparsifier, MSF only with an explicit
// WMax). A worker whose shard turns out non-replayable when a second
// pass is requested reports ErrNotReplayable over the wire.
func WithWorkerShards() Option {
	return func(o *buildOptions) { o.workerShards = true }
}

// validate is the single options gate every Build runs: it returns
// typed errors (ErrBadWorkers, ErrBadConfig) so callers never
// duplicate flag checks.
func (o *buildOptions) validate() error {
	if o.workersSet && o.workers < 1 {
		return fmt.Errorf("%w, got %d", ErrBadWorkers, o.workers)
	}
	if o.decodeSet && o.decodeWorkers < 1 {
		return fmt.Errorf("%w, got %d decode workers", ErrBadWorkers, o.decodeWorkers)
	}
	if o.batch < 0 {
		return fmt.Errorf("%w: batch size must be >= 0, got %d", ErrBadConfig, o.batch)
	}
	if o.classBase != 0 && !(o.classBase > 1 && finite(o.classBase)) {
		return fmt.Errorf("%w: weight class base must be in (1, +Inf), got %v", ErrBadConfig, o.classBase)
	}
	if o.remoteSet && len(o.remoteAddrs) == 0 {
		return fmt.Errorf("%w: WithRemoteWorkers needs at least one address", ErrBadConfig)
	}
	if o.remoteSet && o.cluster != nil {
		return fmt.Errorf("%w: WithRemoteWorkers and WithRemoteCluster are mutually exclusive", ErrBadConfig)
	}
	if o.workerShards && !o.remote() {
		return fmt.Errorf("%w: WithWorkerShards requires remote workers", ErrBadConfig)
	}
	if o.localFallback && !o.remote() {
		return fmt.Errorf("%w: WithLocalFallback requires remote workers (a local build has nothing to fall back from)", ErrBadConfig)
	}
	if err := o.remoteOpts.validate(); err != nil {
		return err
	}
	return nil
}

// validateLive is the extra options gate of the live front doors (Open,
// Restore, and the serving layer built on them): live handles run
// locally — remote state arrives through Handle.Merge — and have no
// weight-class mode (the class split is a per-build reduction, not a
// live state).
func (o *buildOptions) validateLive() error {
	if o.remote() {
		return fmt.Errorf("%w: live handles run locally; ship sketch states and Handle.Merge them", ErrBadConfig)
	}
	if o.classBase != 0 {
		return fmt.Errorf("%w: live handles have no weight-class mode", ErrBadConfig)
	}
	return nil
}

// autoParallelThreshold is the stream length above which Build picks
// multi-worker execution when no explicit worker count is given.
const autoParallelThreshold = 1 << 15

// resolveWorkers picks the ingest worker count: an explicit
// WithWorkers wins; otherwise autoWorkers decides.
func (o *buildOptions) resolveWorkers(src Source) int {
	if o.workersSet {
		return o.workers
	}
	return o.autoWorkers(src)
}

// resolveDecodeWorkers picks the decode-phase worker count: an
// explicit WithDecodeWorkers wins; otherwise decode follows the ingest
// resolution — an explicit WithWorkers, or the automatic
// one-or-several choice. Remote builds (where WithWorkers does not
// govern ingest) resolve the same way, so one knob scales the whole
// coordinator side.
func (o *buildOptions) resolveDecodeWorkers(src Source) int {
	if o.decodeSet {
		return o.decodeWorkers
	}
	return o.resolveWorkers(src)
}

// autoWorkers is the automatic one-or-several choice of
// resolveWorkers for builds without an explicit WithWorkers: a long
// in-memory stream gets up to min(GOMAXPROCS, 8) workers, and
// everything else (short streams, pipes, channels) runs on one. Extra
// workers split batches inside the build's one state, so they cost no
// memory; on a short stream they would not pay for their goroutines.
func (o *buildOptions) autoWorkers(src Source) int {
	type lengther interface{ Len() int }
	if l, ok := src.(lengther); ok &&
		stream.ConcurrentReplayable(src) && l.Len() >= autoParallelThreshold {
		w := runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	return 1
}
