package dynstream

import (
	"context"
	"fmt"

	"dynstream/internal/dynnet"
	"dynstream/internal/parallel"
)

// sketchState is what the five single-pass sketch states (forest,
// k-connectivity, bipartiteness, MSF, additive spanner) have in common
// beyond ingest: they merge by addition, have a canonical encoding,
// and keep per-region decode caches.
type sketchState[S any] interface {
	N() int
	Merge(S) error
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
	EnableDecodeCache(on bool)
	DecodeCacheStats() (hits, misses uint64)
}

// onePass is the recipe of a single-pass target: which state to
// create, how to feed it, and how a result is read from it. Everything
// else — local and remote ingest, the live handle, checkpoint and
// restore — is the same for every linear sketch and lives here once.
type onePass[S sketchState[S], R any] struct {
	kind   dynnet.StateKind
	what   string                                    // the state, for error messages
	fresh  func(n int) S                             // a seeded empty state on n vertices
	empty  func() S                                  // an UnmarshalBinary receiver
	add    func(S, []Update, *parallel.Policy) error // batched ingest at the policy's worker count
	result func(S, *parallel.Policy) (R, error)      // the query: the state itself, or a decode of it
}

// sketchResult is onePass.result for targets whose result is the state.
func sketchResult[S any](s S, _ *parallel.Policy) (S, error) { return s, nil }

// addBatch is onePass.add for states whose AddBatchOpts cannot fail.
func addBatch[S interface {
	AddBatchOpts([]Update, *parallel.Policy)
}](s S, b []Update, p *parallel.Policy) error {
	s.AddBatchOpts(b, p)
	return nil
}

// ingest replays src once into one state: the state's batch kernel
// spreads each batch over the policy's workers, so a local build never
// allocates a state per worker or merges.
func (k onePass[S, R]) ingest(src Source, p *parallel.Policy) (S, error) {
	s := k.fresh(src.N())
	err := parallel.Ingest(p, src, func(b []Update) error { return k.add(s, b, p) })
	return s, err
}

func (k onePass[S, R]) build(src Source, p *parallel.Policy) (R, error) {
	s, err := k.ingest(src, p)
	if err != nil {
		var zero R
		return zero, err
	}
	return k.result(s, p)
}

func (k onePass[S, R]) buildRemote(ctx context.Context, src Source, r *remoteRun) (R, error) {
	proto := k.fresh(src.N())
	if err := ingestRemote(ctx, r, k.kind, src, proto, k.empty, S.Merge); err != nil {
		var zero R
		return zero, err
	}
	return k.result(proto, r.p)
}

func (k onePass[S, R]) openLive(src Source, p *parallel.Policy) (liveState[R], error) {
	s, err := k.ingest(src, p)
	if err != nil {
		return nil, err
	}
	s.EnableDecodeCache(true)
	return onePassLive[S, R]{k, s}, nil
}

func (k onePass[S, R]) restoreLive(src Source, kind dynnet.StateKind, state []byte) (liveState[R], error) {
	if kind != k.kind {
		return nil, wrongKind(kind, k.what)
	}
	s := k.empty()
	if err := s.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	// The meta section's n was already checked; the state blob carries
	// its own, and the two must agree.
	if s.N() != src.N() {
		return nil, fmt.Errorf("%w: state has n=%d, source has n=%d", ErrBadCheckpoint, s.N(), src.N())
	}
	s.EnableDecodeCache(true)
	return onePassLive[S, R]{k, s}, nil
}

// onePassLive is the live state behind a single-pass target's Handle.
type onePassLive[S sketchState[S], R any] struct {
	onePass[S, R]
	s S
}

func (l onePassLive[S, R]) apply(b []Update, p *parallel.Policy) error { return l.add(l.s, b, p) }
func (l onePassLive[S, R]) query(p *parallel.Policy) (R, error)        { return l.result(l.s, p) }
func (l onePassLive[S, R]) cacheStats() (uint64, uint64)               { return l.s.DecodeCacheStats() }

func (l onePassLive[S, R]) merge(state any) error {
	o, ok := state.(S)
	if !ok {
		return fmt.Errorf("%w: a handle over %s merges %T, got %T", ErrBadConfig, l.what, l.s, state)
	}
	return l.s.Merge(o)
}

func (l onePassLive[S, R]) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.s.MarshalBinary()
	return l.kind, b, err
}
