package dynnet

import (
	"fmt"

	"dynstream/internal/agm"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
)

// StateKind selects which sketch state a worker instantiates for a
// pass. The prototype blob in the ASSIGN frame carries the full
// configuration (seed, geometry, and — for two-pass states — the
// cluster structure and phase), so the kind only has to name the
// concrete type.
type StateKind uint8

// The wire-shippable sketch states (every Build target's ingest state).
const (
	KindForest   StateKind = 1 // agm.Sketch (spanning forest)
	KindKConn    StateKind = 2 // agm.KConnectivity
	KindBip      StateKind = 3 // agm.Bipartiteness
	KindMSF      StateKind = 4 // agm.MSF
	KindAdditive StateKind = 5 // spanner.Additive
	KindTwoPass  StateKind = 6 // spanner.TwoPass (pass routed by phase)
	KindGrid     StateKind = 7 // sparsify.Grid (pass routed by phase)
)

func (k StateKind) String() string {
	switch k {
	case KindForest:
		return "forest"
	case KindKConn:
		return "kconn"
	case KindBip:
		return "bipartiteness"
	case KindMSF:
		return "msf"
	case KindAdditive:
		return "additive"
	case KindTwoPass:
		return "twopass"
	case KindGrid:
		return "grid"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// workerState is what a worker drives during one pass: batched ingest
// plus marshaling the final state for the SKETCH frame.
type workerState interface {
	AddBatch(batch []stream.Update) error
	MarshalBinary() ([]byte, error)
}

// aggState adapts the AGM-family states whose AddBatch cannot fail.
type aggState[S interface {
	AddBatch([]stream.Update)
	MarshalBinary() ([]byte, error)
}] struct{ s S }

func (a aggState[S]) AddBatch(b []stream.Update) error { a.s.AddBatch(b); return nil }
func (a aggState[S]) MarshalBinary() ([]byte, error)   { return a.s.MarshalBinary() }

// phasedState routes AddBatch by the decoded state's phase, so one kind
// covers both passes of a two-pass state: the coordinator ships a
// phase-0 prototype for pass 1 and a tables-only ForkPass2 state
// (phase 1) for pass 2.
type phasedState[S interface {
	Phase() int
	Pass1AddBatch([]stream.Update) error
	Pass2AddBatch([]stream.Update) error
	MarshalBinary() ([]byte, error)
}] struct{ s S }

func (p phasedState[S]) AddBatch(b []stream.Update) error {
	if p.s.Phase() == 0 {
		return p.s.Pass1AddBatch(b)
	}
	return p.s.Pass2AddBatch(b)
}
func (p phasedState[S]) MarshalBinary() ([]byte, error) { return p.s.MarshalBinary() }

// load decodes a prototype blob into the empty state s and wraps it for
// the worker loop, reporting the vertex count the prototype carries.
func load[S interface {
	UnmarshalBinary([]byte) error
	N() int
}](s S, blob []byte, wrap func(S) workerState) (workerState, int, error) {
	if err := s.UnmarshalBinary(blob); err != nil {
		return nil, 0, err
	}
	return wrap(s), s.N(), nil
}

// agg wraps an AGM-family state (see aggState).
func agg[S interface {
	AddBatch([]stream.Update)
	MarshalBinary() ([]byte, error)
}](s S) workerState {
	return aggState[S]{s}
}

// newWorkerState decodes the coordinator's prototype blob into a fresh
// state of the given kind, ready to ingest this worker's shard. The
// decoded state carries the same randomness as the coordinator's, so
// the shipped-back state merges exactly. The ASSIGN vertex count is
// cross-checked against the prototype for every kind: UPDATES records
// are validated against the assigned n, so a mismatch would otherwise
// let an out-of-range endpoint panic the long-lived worker process
// instead of drawing a typed ERROR.
func newWorkerState(kind StateKind, n int, blob []byte) (workerState, error) {
	var st workerState
	var protoN int
	var err error
	switch kind {
	case KindForest:
		st, protoN, err = load(new(agm.Sketch), blob, agg[*agm.Sketch])
	case KindKConn:
		st, protoN, err = load(new(agm.KConnectivity), blob, agg[*agm.KConnectivity])
	case KindBip:
		st, protoN, err = load(new(agm.Bipartiteness), blob, agg[*agm.Bipartiteness])
	case KindMSF:
		st, protoN, err = load(new(agm.MSF), blob, agg[*agm.MSF])
	case KindAdditive:
		st, protoN, err = load(new(spanner.Additive), blob, func(a *spanner.Additive) workerState { return a })
	case KindTwoPass:
		st, protoN, err = load(new(spanner.TwoPass), blob, func(s *spanner.TwoPass) workerState { return phasedState[*spanner.TwoPass]{s} })
	case KindGrid:
		st, protoN, err = load(new(sparsify.Grid), blob, func(s *sparsify.Grid) workerState { return phasedState[*sparsify.Grid]{s} })
	default:
		return nil, fmt.Errorf("dynnet: unknown state kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	if protoN != n {
		return nil, fmt.Errorf("dynnet: prototype has n=%d, assign says n=%d", protoN, n)
	}
	return st, nil
}
