package dynstream

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"dynstream/internal/dynnet"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
)

// Multi-process builds. The sketches are linear, so a stream sharded
// across worker *processes*, ingested into same-seeded states, and
// merged at a coordinator is bit-identical to a single-process Build —
// the distributed protocol of the paper's introduction over real
// sockets. internal/dynnet provides the frame protocol; this file wires
// it into the Build front door:
//
//	cluster, _ := dynstream.DialWorkers(ctx, "unix:/tmp/w0.sock", "unix:/tmp/w1.sock")
//	defer cluster.Close()
//	sk, err := dynstream.Build(ctx, src, dynstream.ForestTarget{Seed: 7},
//	    dynstream.WithRemoteCluster(cluster))
//
// or one-shot, dialing and closing per call:
//
//	sk, err := dynstream.Build(ctx, src, dynstream.ForestTarget{Seed: 7},
//	    dynstream.WithRemoteWorkers("unix:/tmp/w0.sock", "unix:/tmp/w1.sock"))
//
// Worker processes run `dynstream worker -listen ADDR` (or register
// with a listening coordinator; see AcceptWorkers).

// ErrNoWorkers reports a remote build with no live workers left —
// every connection dropped (or timed out) and no worker could be
// redialed. With WithLocalFallback and a replayable source, Build
// converts this into a local rerun instead of returning it.
var ErrNoWorkers = dynnet.ErrNoWorkers

// RemoteCluster is an established set of registered worker connections,
// reusable across Build calls (every pass of every build re-ships a
// prototype state, so one cluster serves any sequence of targets).
type RemoteCluster struct {
	coord *dynnet.Coordinator
}

// RemoteOptions tunes the connection management of a worker cluster.
// The zero value gives the defaults: a 10s handshake timeout, one dial
// attempt per address, no per-frame deadlines, redialing enabled for
// dialed clusters.
type RemoteOptions struct {
	// HandshakeTimeout bounds the HELLO registration exchange per
	// worker (default 10s). Must be > 0 if set.
	HandshakeTimeout time.Duration
	// FrameTimeout, when > 0, bounds every protocol frame read/write —
	// the heartbeat that declares a silent worker dead (its shard is
	// then re-replayed) instead of hanging the build. Size it to the
	// slowest expected single-frame exchange; the worker's end-of-pass
	// marshal+SKETCH is the longest gap.
	FrameTimeout time.Duration
	// DialAttempts is the number of connection attempts per worker
	// address (default 1), with exponential backoff from DialBackoff
	// (default 100ms) up to DialMaxBackoff (default 5s) between
	// attempts, jittered deterministically from JitterSeed.
	DialAttempts   int
	DialBackoff    time.Duration
	DialMaxBackoff time.Duration
	JitterSeed     uint64
	// NoRedial disables re-dialing dropped workers during shard
	// recovery. By default a dialed cluster may re-register a
	// restarted worker mid-build and re-replay its shard to it;
	// accepted clusters (AcceptWorkers) never redial — they have no
	// address to dial.
	NoRedial bool
}

// validate rejects nonsensical settings with typed errors (negative
// durations and counts; zero means "default").
func (ro RemoteOptions) validate() error {
	if ro.HandshakeTimeout < 0 {
		return fmt.Errorf("%w: handshake timeout must be > 0, got %v", ErrBadConfig, ro.HandshakeTimeout)
	}
	if ro.FrameTimeout < 0 {
		return fmt.Errorf("%w: frame timeout must be >= 0, got %v", ErrBadConfig, ro.FrameTimeout)
	}
	if ro.DialAttempts < 0 {
		return fmt.Errorf("%w: dial attempts must be >= 1, got %d", ErrBadConfig, ro.DialAttempts)
	}
	if ro.DialBackoff < 0 || ro.DialMaxBackoff < 0 {
		return fmt.Errorf("%w: dial backoff must be >= 0", ErrBadConfig)
	}
	return nil
}

// dynnetOpts maps the exported options onto the dynnet layer's.
func (ro RemoteOptions) dynnetOpts() dynnet.Options {
	return dynnet.Options{
		HandshakeTimeout: ro.HandshakeTimeout,
		FrameTimeout:     ro.FrameTimeout,
		DialAttempts:     ro.DialAttempts,
		DialBackoff:      ro.DialBackoff,
		DialMaxBackoff:   ro.DialMaxBackoff,
		JitterSeed:       ro.JitterSeed,
		Redial:           !ro.NoRedial,
	}
}

// DialWorkers connects to worker processes listening at addrs and
// performs the registration handshake. Addresses are "host:port",
// "unix:/path/to.sock", or a bare socket path (anything containing a
// path separator dials a unix socket).
func DialWorkers(ctx context.Context, addrs ...string) (*RemoteCluster, error) {
	return DialWorkersWith(ctx, RemoteOptions{}, addrs...)
}

// DialWorkersWith is DialWorkers with explicit connection-management
// options: dial retry/backoff with deterministic jitter, handshake and
// per-frame deadlines, and mid-build redial of dropped workers.
func DialWorkersWith(ctx context.Context, ro RemoteOptions, addrs ...string) (*RemoteCluster, error) {
	if err := ro.validate(); err != nil {
		return nil, err
	}
	coord, err := dynnet.DialOpts(ctx, ro.dynnetOpts(), addrs...)
	if err != nil {
		return nil, err
	}
	return &RemoteCluster{coord: coord}, nil
}

// AcceptWorkers waits for count worker processes to connect to ln and
// register — the coordinator-listens topology (`dynstream worker
// -connect ADDR` on the worker side).
func AcceptWorkers(ctx context.Context, ln net.Listener, count int) (*RemoteCluster, error) {
	return AcceptWorkersWith(ctx, ln, count, RemoteOptions{})
}

// AcceptWorkersWith is AcceptWorkers with explicit
// connection-management options. Accepted workers carry no dialable
// address, so the redial setting does not apply; the handshake and
// frame deadlines do.
func AcceptWorkersWith(ctx context.Context, ln net.Listener, count int, ro RemoteOptions) (*RemoteCluster, error) {
	if err := ro.validate(); err != nil {
		return nil, err
	}
	coord, err := dynnet.AcceptOpts(ctx, ln, count, ro.dynnetOpts())
	if err != nil {
		return nil, err
	}
	return &RemoteCluster{coord: coord}, nil
}

// Close tears down every worker connection.
func (c *RemoteCluster) Close() error { return c.coord.Close() }

// WorkerIDs returns the registered workers' identifiers.
func (c *RemoteCluster) WorkerIDs() []string { return c.coord.WorkerIDs() }

// Live returns the number of workers still considered healthy.
func (c *RemoteCluster) Live() int { return c.coord.Live() }

// BytesOnWire returns the cumulative protocol bytes sent to and
// received from the workers — the coordinator's wire-cost figure. It
// is the sum of the FrameStats counters.
func (c *RemoteCluster) BytesOnWire() (sent, received int64) { return c.coord.Bytes() }

// FrameStats returns the coordinator's cumulative per-frame-type wire
// accounting (frames, bytes, and time in frame I/O calls), per
// direction — the single source behind BytesOnWire, the CLI's wire
// report, and the tracer's dynnet counters.
func (c *RemoteCluster) FrameStats() (sent, received []dynnet.FrameStat) {
	return c.coord.FrameStats()
}

// remoteRun threads one Build's remote execution: the cluster, the
// resolved options, the coordinator-side decode policy (worker-blob
// unmarshaling, state tree merges, and the final extraction all run
// under it), and cumulative pass/progress counters.
type remoteRun struct {
	cluster *RemoteCluster
	o       *buildOptions
	p       *parallel.Policy
	seq     int
	done    int64
}

// pass runs one remote pass: ship blob as the prototype, stream src's
// shards (or trigger local-shard ingest), and fold every worker state
// back with collect.
func (r *remoteRun) pass(ctx context.Context, kind dynnet.StateKind, n int, blob []byte,
	src Source, collect func(blobs [][]byte) error) error {
	r.seq++
	p := dynnet.Pass{
		Kind:    kind,
		Blob:    blob,
		N:       n,
		Batch:   r.o.batch,
		Seq:     r.seq,
		Local:   r.o.workerShards,
		Collect: collect,
	}
	if !p.Local {
		p.Src = src
	}
	tr := r.p.Tracer()
	if tr != nil {
		// The ingest event path: the tracer fans each cumulative total
		// out to its observers, which is where a WithProgress callback
		// was registered by Build.
		p.Progress = func(nu int) { tr.Ingested(atomic.AddInt64(&r.done, int64(nu))) }
	}
	var sp obs.Span
	outBefore, inBefore := r.cluster.coord.Bytes()
	if tr != nil {
		sp = tr.Span(fmt.Sprintf("dynnet/pass%02d", r.seq))
	}
	err := r.cluster.coord.RunPass(ctx, p)
	if tr != nil {
		r.syncFrameCounters(tr)
		if err == nil {
			out, in := r.cluster.coord.Bytes()
			sp.End(
				obs.A("bytes_out", out-outBefore),
				obs.A("bytes_in", in-inBefore),
				obs.A("workers", int64(r.cluster.Live())))
		}
	}
	return err
}

// syncFrameCounters refreshes the tracer's per-frame-type wire
// counters from the coordinator's accounting — the same counters
// Bytes() sums, so the CLI's wire report and the trace timeline can
// never disagree. CounterSet is absolute, so repeated syncs (one per
// pass) are idempotent.
func (r *remoteRun) syncFrameCounters(tr *obs.Tracer) {
	out, in := r.cluster.coord.FrameStats()
	for _, fs := range out {
		tr.CounterSet("dynnet/out/"+fs.Type.String()+"/frames", fs.Count)
		tr.CounterSet("dynnet/out/"+fs.Type.String()+"/bytes", fs.Bytes)
		tr.CounterSet("dynnet/out/"+fs.Type.String()+"/wall_us", fs.Wall.Microseconds())
	}
	for _, fs := range in {
		tr.CounterSet("dynnet/in/"+fs.Type.String()+"/frames", fs.Count)
		tr.CounterSet("dynnet/in/"+fs.Type.String()+"/bytes", fs.Bytes)
		tr.CounterSet("dynnet/in/"+fs.Type.String()+"/wall_us", fs.Wall.Microseconds())
	}
}

// wireState is what a state needs to cross the wire.
type wireState interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// ingestRemote runs one remote pass of src into proto: proto's encoding
// is the prototype the workers ingest their shards into, and the states
// they ship back are decoded into fresh states on the run's decode
// workers, folded with a parallel tree merge, and merged into proto —
// bit-identical to the linear shard-order fold, because every state
// merge is an exact commutative group operation.
func ingestRemote[S wireState](ctx context.Context, r *remoteRun, kind dynnet.StateKind, src Source,
	proto S, fresh func() S, merge func(dst, src S) error) error {
	blob, err := proto.MarshalBinary()
	if err != nil {
		return err
	}
	return r.pass(ctx, kind, src.N(), blob, src, func(blobs [][]byte) error {
		// Decode and fold in waves of the decode worker count: peak
		// memory holds at most DecodeWorkers decoded states (one, for
		// a serial policy — the pre-engine coordinator footprint)
		// while the unmarshal and merge work still fans across the
		// pool. Wave boundaries don't change the result: proto
		// accumulates exact commutative group sums.
		k := r.p.DecodeWorkers()
		for start := 0; start < len(blobs); start += k {
			wave := blobs[start:min(start+k, len(blobs))]
			states, err := parallel.MapOpts(r.p, len(wave), func(i int) (S, error) {
				s := fresh()
				return s, s.UnmarshalBinary(wave[i])
			})
			if err != nil {
				return err
			}
			folded, err := parallel.TreeMerge(r.p, states, merge)
			if err != nil {
				return err
			}
			if err := merge(proto, folded); err != nil {
				return err
			}
		}
		return nil
	})
}

// remoteTwoPass is what a two-pass state needs to run on remote
// workers: the wire, both passes' folds and the pass-2 fork, none of
// which a local build uses.
type remoteTwoPass[S any] interface {
	wireState
	MergePass1(S) error
	ForkPass2() (S, error)
	MergePass2(S) error
}

// remoteEngine is the remote engine of parallel.RunTwoPass. In each pass
// a prototype state is what every worker decodes, ingests its shard
// into — by the prototype's phase — and ships back, and the workers'
// states fold into it. Pass 1's prototype is the build's state itself.
// Pass 2's is ForkPass2's tables-only state, so the pass-1 sketches
// never cross the wire a second time; its fold then merges into the
// EndPass1 state.
func remoteEngine[S remoteTwoPass[S]](ctx context.Context, r *remoteRun, kind dynnet.StateKind, src Source, empty func() S) parallel.Engine[S] {
	return parallel.Engine[S]{
		Pass1: func(main S) error {
			return ingestRemote(ctx, r, kind, src, main, empty, S.MergePass1)
		},
		Pass2: func(main S) error {
			tables, err := main.ForkPass2()
			if err == nil {
				err = ingestRemote(ctx, r, kind, src, tables, empty, S.MergePass2)
			}
			if err == nil {
				err = main.MergePass2(tables)
			}
			return err
		},
	}
}

// remoteSpanner builds one two-pass spanner on r's workers.
func remoteSpanner(ctx context.Context, r *remoteRun) func(Source, SpannerConfig) (*SpannerResult, error) {
	return func(src Source, cfg SpannerConfig) (*SpannerResult, error) {
		return parallel.RunTwoPass(r.p, "dynstream: remote",
			remoteEngine(ctx, r, dynnet.KindTwoPass, src, func() *spanner.TwoPass { return new(spanner.TwoPass) }),
			func() (*spanner.TwoPass, error) { return spanner.NewTwoPass(src.N(), cfg), nil })
	}
}

// noWorkerShards rejects WithWorkerShards for builds that must observe
// the stream at the coordinator (weight-class splits, substream
// sampling, weight scans): the coordinator cannot filter data it never
// sees.
func noWorkerShards(o *buildOptions, what string) error {
	if o.workerShards {
		return fmt.Errorf("%w: %s needs the stream at the coordinator and cannot run from worker-local shards", ErrBadConfig, what)
	}
	return nil
}
