package dynstream

import (
	"context"
	"fmt"

	"dynstream/internal/dynnet"
	"dynstream/internal/parallel"
)

// liveReplay is the live method set of the two-pass states
// (spanner.TwoPass, sparsify.Live): pass 1 stays open and every applied
// update is logged, so a query can replay the base stream plus the log
// through pass 2 — and the log is why these states cannot Merge.
type liveReplay[R any] interface {
	ApplyLive([]Update) error
	QueryLive(*parallel.Policy) (R, error)
	DecodeCacheStats() (hits, misses uint64)
	MarshalLive() ([]byte, error)
}

// twoPass is the recipe of a two-pass target (spanner, sparsifier):
// how it builds — locally, and on remote workers, both through
// parallel.RunTwoPass — and how its live state starts over a base
// stream or restores from a checkpoint. The live handle and its
// checkpoint framing are the same for both targets and live here once.
type twoPass[L liveReplay[R], R any] struct {
	kind    dynnet.StateKind
	what    string // the state, for error messages
	local   func(src Source, p *parallel.Policy) (R, error)
	remote  func(ctx context.Context, src Source, r *remoteRun) (R, error)
	start   func(src Stream) (L, error)               // ingest src through pass 1, serially
	restore func(src Stream, state []byte) (L, error) // MarshalLive's inverse over src
}

func (k twoPass[L, R]) build(src Source, p *parallel.Policy) (R, error) { return k.local(src, p) }

func (k twoPass[L, R]) buildRemote(ctx context.Context, src Source, r *remoteRun) (R, error) {
	return k.remote(ctx, src, r)
}

// openLive ingests with the serial replay start runs; queries use the
// per-call policy.
func (k twoPass[L, R]) openLive(src Source, _ *parallel.Policy) (liveState[R], error) {
	l, err := k.start(src)
	if err != nil {
		return nil, err
	}
	return replayLive[L, R]{k, l}, nil
}

func (k twoPass[L, R]) restoreLive(src Source, kind dynnet.StateKind, state []byte) (liveState[R], error) {
	if kind != k.kind {
		return nil, wrongKind(kind, k.what)
	}
	l, err := k.restore(src, state)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return replayLive[L, R]{k, l}, nil
}

// replayLive is the live state behind a two-pass target's Handle.
type replayLive[L liveReplay[R], R any] struct {
	twoPass[L, R]
	l L
}

func (l replayLive[L, R]) apply(b []Update, _ *parallel.Policy) error { return l.l.ApplyLive(b) }
func (l replayLive[L, R]) query(p *parallel.Policy) (R, error)        { return l.l.QueryLive(p) }
func (l replayLive[L, R]) cacheStats() (uint64, uint64)               { return l.l.DecodeCacheStats() }

func (l replayLive[L, R]) merge(any) error {
	return fmt.Errorf("%w: a handle over %s cannot merge remote state (its live log never saw those updates); Apply them instead",
		ErrBadConfig, l.what)
}

func (l replayLive[L, R]) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.l.MarshalLive()
	return l.kind, b, err
}
