package dynstream

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dynstream/internal/agm"
	"dynstream/internal/dynnet"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
)

// Build is the single front door for every construction in this
// package: it runs `target` over `src` under the given options and
// context. All targets are linear sketches, so the three axes compose
// freely —
//
//	any sketch (target) × any source × any execution policy (options)
//
// and the result is bit-identical across execution policies: serial,
// multi-worker (WithWorkers), remote, any batch size. Cancellation via
// ctx is observed at update-batch granularity through every pass,
// including inside the sparsifier's inner spanner builds.
//
//	res, err := dynstream.Build(ctx, src,
//	    dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 7}},
//	    dynstream.WithWorkers(8))
//
// Multi-pass targets (SpannerTarget, SparsifierTarget, and MSFTarget
// without an explicit WMax) need a replayable source — a MemoryStream
// or a file-backed ReaderSource; single-pass targets ingest straight
// from pipes and channels at constant memory.
func Build[R any](ctx context.Context, src Source, target Target[R], opts ...Option) (R, error) {
	var zero R
	o, pl, err := resolve(src, target, opts, false)
	if err != nil {
		return zero, err
	}
	tr, traceDone := o.effectiveTracer()
	defer traceDone()
	res, err := buildDispatch(ctx, src, pl, o, tr)
	if err != nil {
		return res, err
	}
	if werr := o.writeTraceFile(tr); werr != nil {
		return res, werr
	}
	return res, nil
}

// resolve is the gate Build, Open and Restore share: it folds and
// validates the options (live adds the live front doors' extra rules),
// checks the source can be replayed as often as the target needs, and
// asks the target for its plan.
func resolve[R any](src Source, target Target[R], opts []Option, live bool) (*buildOptions, plan[R], error) {
	if src == nil {
		return nil, nil, fmt.Errorf("%w: nil source", ErrBadConfig)
	}
	if target == nil {
		return nil, nil, fmt.Errorf("%w: nil target", ErrBadConfig)
	}
	o := &buildOptions{}
	for _, opt := range opts {
		if opt != nil {
			opt(o)
		}
	}
	if err := o.validate(); err != nil {
		return nil, nil, err
	}
	if live {
		if err := o.validateLive(); err != nil {
			return nil, nil, err
		}
	}
	if target.Passes() > 1 && !CanReplay(src) {
		return nil, nil, fmt.Errorf("dynstream: %T needs %d passes over the stream: %w",
			target, target.Passes(), ErrNotReplayable)
	}
	pl, err := target.plan(o, src.N())
	return o, pl, err
}

// buildDispatch routes a validated Build between the remote and local
// execution paths. tr (possibly nil) is the resolved tracer; the
// progress callback, when any, is already registered on it, so
// policies carry only the tracer.
func buildDispatch[R any](ctx context.Context, src Source, pl plan[R], o *buildOptions, tr *obs.Tracer) (R, error) {
	var zero R
	if o.remote() {
		cluster := o.cluster
		var dialErr error
		if cluster == nil {
			cluster, dialErr = DialWorkersWith(ctx, o.remoteOpts, o.remoteAddrs...)
			if dialErr == nil {
				defer cluster.Close()
			}
		}
		var res R
		var err error
		if dialErr != nil {
			res, err = zero, dialErr
		} else {
			decodeP := parallel.NewPolicy(ctx, o.resolveDecodeWorkers(src), o.batch, nil).
				WithTracer(tr)
			res, err = pl.buildRemote(ctx, src, &remoteRun{cluster: cluster, o: o, p: decodeP})
		}
		// Opt-in degradation: when the whole cluster is gone (every
		// worker unreachable or lost mid-build) and the source can be
		// replayed, rerun the build locally — bit-identical by
		// linearity, since local and remote ingest share seeds. Typed
		// worker errors and ctx cancellation are not retried. A
		// WithProgress callback sees the local rerun's counts on top of
		// whatever the aborted remote build reported.
		clusterLost := dialErr != nil || errors.Is(err, dynnet.ErrNoWorkers)
		if err != nil && o.localFallback && ctx.Err() == nil &&
			clusterLost && CanReplay(src) {
			return pl.build(src, o.policy(ctx, src, tr))
		}
		return res, err
	}
	return pl.build(src, o.policy(ctx, src, tr))
}

// Target describes what Build constructs: each target couples a
// configuration with the recipe that drives its sketch states over a
// source under an execution policy. R is the result type. Targets are
// provided by this package (SpannerTarget, AdditiveTarget,
// SparsifierTarget, ForestTarget, KConnectivityTarget,
// BipartitenessTarget, MSFTarget); the interface is sealed by its
// unexported method.
type Target[R any] interface {
	// Passes is the number of full stream passes the target needs (for
	// replayability validation; multi-phase targets report > 1).
	Passes() int
	// plan resolves the target against the call's options (seed
	// override, weight classes) and the source's vertex count n into the
	// four ways it can run. It refuses (ErrBadConfig) a configuration
	// whose state would panic, exhaust memory, or checkpoint into bytes
	// the state's own decoder rejects.
	plan(o *buildOptions, n int) (plan[R], error)
}

// plan is a target with its options resolved. The five single-pass
// targets share one implementation, onePass, and the two two-pass
// targets (spanner, sparsifier) another, twoPass.
type plan[R any] interface {
	// build runs the construction under the policy.
	build(src Source, p *parallel.Policy) (R, error)
	// buildRemote runs the construction on remote worker processes
	// (WithRemoteWorkers / WithRemoteCluster), producing the same
	// result bit for bit.
	buildRemote(ctx context.Context, src Source, r *remoteRun) (R, error)
	// openLive ingests src and returns the mutable state behind a live
	// Handle (see Open).
	openLive(src Source, p *parallel.Policy) (liveState[R], error)
	// restoreLive rebuilds the live state behind a Handle from a
	// checkpoint's state section (see Restore in checkpoint.go).
	restoreLive(src Source, kind dynnet.StateKind, state []byte) (liveState[R], error)
}

// noWeightClasses rejects WithWeightClasses for targets without a
// weight-class mode.
func noWeightClasses(o *buildOptions, what string) error {
	if o.classBase != 0 {
		return fmt.Errorf("%w: %s has no weight-class mode", ErrBadConfig, what)
	}
	return nil
}

// singlePass is plan for the onePass targets: none of them has a
// weight-class mode.
func singlePass[S sketchState[S], R any](o *buildOptions, k onePass[S, R]) (plan[R], error) {
	if err := noWeightClasses(o, k.what); err != nil {
		return nil, err
	}
	return k, nil
}

// SpannerTarget builds the two-pass 2^K-spanner of Theorem 1
// (BuildSpanner's successor). With WithWeightClasses it runs the
// weight-class construction of Remark 14.
type SpannerTarget struct {
	Config SpannerConfig
}

func (t SpannerTarget) Passes() int { return 2 }

func (t SpannerTarget) plan(o *buildOptions, n int) (plan[*SpannerResult], error) {
	cfg, classBase := t.Config, o.classBase
	if cfg.K < 0 || !finite(cfg.TableFactor) || !cfg.Fits(n) {
		return nil, fmt.Errorf("%w: a spanner on %d vertices needs 0 <= K <= 64, a finite TableFactor and Budget, Levels in the wire bounds, got %+v",
			ErrBadConfig, n, cfg)
	}
	cfg.Seed = o.seedOr(cfg.Seed)
	return twoPass[*spanner.TwoPass, *SpannerResult]{
		kind: dynnet.KindTwoPass, what: "a two-pass spanner",
		local: func(src Source, p *parallel.Policy) (*SpannerResult, error) {
			return spanner.BuildTwoPassWeightedWith(src, cfg, classBase,
				func(sub Source, c SpannerConfig) (*SpannerResult, error) { return spanner.BuildTwoPassOpts(sub, c, p) })
		},
		remote: func(ctx context.Context, src Source, r *remoteRun) (*SpannerResult, error) {
			if classBase != 0 {
				if err := noWorkerShards(r.o, "the weight-class spanner"); err != nil {
					return nil, err
				}
			}
			return spanner.BuildTwoPassWeightedWith(src, cfg, classBase, remoteSpanner(ctx, r))
		},
		start: func(src Stream) (*spanner.TwoPass, error) {
			tp := spanner.NewTwoPass(src.N(), cfg)
			return tp, tp.StartLive(src)
		},
		restore: func(src Stream, state []byte) (*spanner.TwoPass, error) {
			tp := new(spanner.TwoPass)
			return tp, tp.RestoreLive(src, state)
		},
	}, nil
}

// AdditiveTarget builds the single-pass O(n/D)-additive spanner of
// Theorem 3 (BuildAdditiveSpanner's successor). Single-pass: works on
// pipes and channels.
type AdditiveTarget struct {
	Config AdditiveConfig
}

func (t AdditiveTarget) Passes() int { return 1 }

func (t AdditiveTarget) plan(o *buildOptions, n int) (plan[*AdditiveResult], error) {
	cfg := t.Config
	if cfg.D < 0 || !finite(cfg.DegreeFactor) || !finite(cfg.CenterFactor) || !cfg.Fits(n) {
		return nil, fmt.Errorf("%w: an additive spanner on %d vertices needs 0 <= D <= n, finite factors, DegreeFactor > 0 and a low-degree cutoff within the wire bound, got %+v",
			ErrBadConfig, n, cfg)
	}
	cfg.Seed = o.seedOr(cfg.Seed)
	return singlePass(o, onePass[*spanner.Additive, *AdditiveResult]{
		kind: dynnet.KindAdditive, what: "the additive spanner",
		fresh:  func(n int) *spanner.Additive { return spanner.NewAdditive(n, cfg) },
		empty:  func() *spanner.Additive { return new(spanner.Additive) },
		add:    (*spanner.Additive).AddBatchOpts,
		result: (*spanner.Additive).ExtractOpts,
	})
}

// SparsifierTarget builds the two-pass ε-spectral sparsifier of
// Corollary 2 (BuildSparsifier's successor). With WithWeightClasses it
// sparsifies per weight class and rescales.
type SparsifierTarget struct {
	Config SparsifierConfig
}

func (t SparsifierTarget) Passes() int { return 2 }

func (t SparsifierTarget) plan(o *buildOptions, n int) (plan[*SparsifierResult], error) {
	cfg, classBase := t.Config, o.classBase
	if cfg.Z < 0 || cfg.H < 0 || cfg.Estimate.J < 0 || cfg.Estimate.T < 0 || !(cfg.Estimate.Delta >= 0 && cfg.Estimate.Delta < 1) {
		return nil, fmt.Errorf("%w: a sparsifier needs Z, H, J, T >= 0 and 0 <= Delta < 1, got Z=%d H=%d J=%d T=%d Delta=%v",
			ErrBadConfig, cfg.Z, cfg.H, cfg.Estimate.J, cfg.Estimate.T, cfg.Estimate.Delta)
	}
	cfg.Seed = o.seedOr(cfg.Seed)
	return twoPass[*sparsify.Live, *SparsifierResult]{
		kind: dynnet.KindGrid, what: "a sparsifier",
		local: func(src Source, p *parallel.Policy) (*SparsifierResult, error) {
			return sparsify.SparsifyWeightedWith(src, cfg, classBase,
				func(sub Source, c SparsifierConfig) (*SparsifierResult, error) {
					return sparsify.SparsifyOpts(sub, c, p)
				})
		},
		remote: func(ctx context.Context, src Source, r *remoteRun) (*SparsifierResult, error) {
			if err := noWorkerShards(r.o, "the sparsifier"); err != nil {
				return nil, err
			}
			return sparsify.SparsifyWeightedWith(src, cfg, classBase, func(sub Source, c SparsifierConfig) (*SparsifierResult, error) {
				return sparsify.SparsifyOn(remoteEngine(ctx, r, dynnet.KindGrid, sub, func() *sparsify.Grid { return new(sparsify.Grid) }), sub, c, r.p)
			})
		},
		start:   func(src Stream) (*sparsify.Live, error) { return sparsify.StartLive(src, cfg) },
		restore: sparsify.RestoreLive,
	}, nil
}

// ForestTarget ingests the stream into an AGM connectivity sketch
// (Theorem 10); decode with ForestSketch.SpanningForest. Single-pass.
type ForestTarget struct {
	Seed   uint64
	Config ForestConfig
}

func (t ForestTarget) Passes() int { return 1 }

func (t ForestTarget) plan(o *buildOptions, n int) (plan[*ForestSketch], error) {
	if !t.Config.Fits(n) {
		return nil, fmt.Errorf("%w: a forest sketch needs Rounds in 0..256 and PerLevel in 0..5, got %+v", ErrBadConfig, t.Config)
	}
	seed := o.seedOr(t.Seed)
	return singlePass(o, onePass[*agm.Sketch, *ForestSketch]{
		kind: dynnet.KindForest, what: "the forest sketch",
		fresh:  func(n int) *agm.Sketch { return agm.New(seed, n, t.Config) },
		empty:  func() *agm.Sketch { return new(agm.Sketch) },
		add:    addBatch[*agm.Sketch],
		result: sketchResult[*agm.Sketch],
	})
}

// KConnectivityTarget ingests the stream into a k-edge-connectivity
// certificate sketch; decode with KConnectivity.Certificate[Graph].
// Single-pass.
type KConnectivityTarget struct {
	Seed uint64
	K    int
}

func (t KConnectivityTarget) Passes() int { return 1 }

func (t KConnectivityTarget) plan(o *buildOptions, n int) (plan[*KConnectivity], error) {
	if t.K < 0 || !agm.CertificateFits(t.K) {
		return nil, fmt.Errorf("%w: a connectivity certificate needs 0 <= K <= 65536, got %d", ErrBadConfig, t.K)
	}
	seed := o.seedOr(t.Seed)
	return singlePass(o, onePass[*agm.KConnectivity, *KConnectivity]{
		kind: dynnet.KindKConn, what: "the connectivity certificate",
		fresh:  func(n int) *agm.KConnectivity { return agm.NewKConnectivity(seed, n, t.K) },
		empty:  func() *agm.KConnectivity { return new(agm.KConnectivity) },
		add:    addBatch[*agm.KConnectivity],
		result: sketchResult[*agm.KConnectivity],
	})
}

// BipartitenessTarget ingests the stream into the double-cover
// bipartiteness tester; decode with Bipartiteness.IsBipartite.
// Single-pass.
type BipartitenessTarget struct {
	Seed uint64
}

func (t BipartitenessTarget) Passes() int { return 1 }

func (t BipartitenessTarget) plan(o *buildOptions, n int) (plan[*Bipartiteness], error) {
	seed := o.seedOr(t.Seed)
	return singlePass(o, onePass[*agm.Bipartiteness, *Bipartiteness]{
		kind: dynnet.KindBip, what: "the bipartiteness tester",
		fresh:  func(n int) *agm.Bipartiteness { return agm.NewBipartiteness(seed, n) },
		empty:  func() *agm.Bipartiteness { return new(agm.Bipartiteness) },
		add:    addBatch[*agm.Bipartiteness],
		result: sketchResult[*agm.Bipartiteness],
	})
}

// MSFTarget ingests the stream into the (1+Gamma)-approximate
// minimum-spanning-forest sketch; decode with MSF.Forest. With an
// explicit WMax (upper bound on edge weights) it is single-pass and
// works on pipes; with WMax == 0 it first scans the stream for the
// maximum weight, which needs a replayable source.
type MSFTarget struct {
	Seed  uint64
	WMax  float64
	Gamma float64
}

func (t MSFTarget) Passes() int {
	if t.WMax > 0 {
		return 1
	}
	return 2
}

// plan returns the target itself, seed resolved. MSF is onePass plus the
// one thing only it needs, a weight bound before the first state exists. A build without one scans the stream
// for it, a live handle requires it explicit, and a restore reads it
// from the checkpointed state — so the target is its own plan, handing
// each call to the recipe once the bound is known.
func (t MSFTarget) plan(o *buildOptions, n int) (plan[*MSF], error) {
	if err := noWeightClasses(o, "the MSF sketch (weights are native)"); err != nil {
		return nil, err
	}
	if !finite(t.Gamma) || !finite(t.WMax) {
		return nil, fmt.Errorf("%w: MSF Gamma and WMax must be finite, got %v and %v", ErrBadConfig, t.Gamma, t.WMax)
	}
	if t.WMax > 0 {
		if err := t.fits(t.WMax); err != nil {
			return nil, err
		}
	}
	t.Seed = o.seedOr(t.Seed)
	return t, nil
}

// fits rejects a weight bound whose class count the MSF sketch's
// decoder would refuse.
func (t MSFTarget) fits(wmax float64) error {
	if !agm.MSFClassesFit(wmax, t.Gamma) {
		return fmt.Errorf("%w: MSF weights up to %v at Gamma %v need more weight classes than a sketch holds", ErrBadConfig, wmax, t.Gamma)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// bounded is the MSF recipe for weights in [1, wmax].
func (t MSFTarget) bounded(wmax float64) onePass[*agm.MSF, *MSF] {
	return onePass[*agm.MSF, *MSF]{
		kind: dynnet.KindMSF, what: "the MSF sketch",
		fresh:  func(n int) *agm.MSF { return agm.NewMSF(t.Seed, n, wmax, t.Gamma) },
		empty:  func() *agm.MSF { return new(agm.MSF) },
		add:    addBatch[*agm.MSF],
		result: sketchResult[*agm.MSF],
	}
}

// scanned is bounded with a missing WMax read off the stream: src is
// replayed under p, so the scan is cancellable and, with a tracer on p,
// counted as progress.
func (t MSFTarget) scanned(src Source, p *parallel.Policy) (onePass[*agm.MSF, *MSF], error) {
	if t.WMax > 0 {
		return t.bounded(t.WMax), nil
	}
	wmax := 1.0
	err := p.Replay(src, func(batch []Update) error {
		for _, u := range batch {
			wmax = max(wmax, u.W)
		}
		return nil
	})
	if err == nil {
		err = t.fits(wmax)
	}
	return t.bounded(wmax), err
}

func (t MSFTarget) build(src Source, p *parallel.Policy) (*MSF, error) {
	k, err := t.scanned(src, p)
	if err != nil {
		return nil, err
	}
	return k.build(src, p)
}

func (t MSFTarget) buildRemote(ctx context.Context, src Source, r *remoteRun) (*MSF, error) {
	if t.WMax <= 0 {
		if err := noWorkerShards(r.o, "the MSF weight scan (set WMax explicitly)"); err != nil {
			return nil, err
		}
	}
	// The coordinator owns the stream, so it scans — outside the run's
	// progress count; the sketch pass itself then runs remotely.
	k, err := t.scanned(src, parallel.NewPolicy(ctx, 1, r.o.batch, nil))
	if err != nil {
		return nil, err
	}
	return k.buildRemote(ctx, src, r)
}

func (t MSFTarget) openLive(src Source, p *parallel.Policy) (liveState[*MSF], error) {
	if t.WMax <= 0 {
		return nil, fmt.Errorf("%w: a live MSF handle needs an explicit WMax (a scanned bound could be exceeded by a later Apply)", ErrBadConfig)
	}
	return t.bounded(t.WMax).openLive(src, p)
}

func (t MSFTarget) restoreLive(src Source, kind dynnet.StateKind, state []byte) (liveState[*MSF], error) {
	return t.bounded(t.WMax).restoreLive(src, kind, state)
}
