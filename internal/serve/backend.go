package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// Backend is one live target behind the daemon, erased to a non-generic
// interface so the server can hold a heterogeneous set (the handles are
// generic in their result type). Apply and Query inherit the handle's
// mutex discipline: a query is always a consistent batch-boundary
// snapshot, labeled with the exact applied-update count it observed.
type Backend interface {
	Target() string
	N() int
	Apply(updates []dynstream.Update) error
	Applied() int64
	Query(ctx context.Context) (*QueryResponse, error)
	CheckpointTo(path string) error
	CacheStats() dynstream.CacheStats
}

// Spec names one target to open, with its algorithm parameters and
// execution knobs — the daemon's flag set, essentially.
type Spec struct {
	Target        string // forest | kcert | bipartite | msf | spanner | additive | sparsify
	N             int
	K, D, Z       int
	Seed          uint64
	WMax          float64
	Gamma         float64
	Workers       int
	DecodeWorkers int
	Batch         int
	// Tracer, when non-nil, observes every pipeline phase of the opened
	// handle (ingest, decode, query, checkpoint) — the daemon
	// bridges it into the /metrics phase histograms.
	Tracer *dynstream.Tracer
}

// backend adapts one Handle[R] plus a render function to the Backend
// interface.
type backend[R any] struct {
	target string
	h      *dynstream.Handle[R]
	render func(R, int64) (*QueryResponse, error)
}

func (b *backend[R]) Target() string                         { return b.target }
func (b *backend[R]) N() int                                 { return b.h.N() }
func (b *backend[R]) Apply(updates []dynstream.Update) error { return b.h.Apply(updates) }
func (b *backend[R]) Applied() int64                         { return b.h.AppliedUpdates() }
func (b *backend[R]) CacheStats() dynstream.CacheStats       { return b.h.DecodeCacheStats() }

// Query renders under the handle's mutex (Handle.QueryView): the
// sketch-family targets decode the live sketch in render, and an Apply
// landing mid-decode would tear the answer.
func (b *backend[R]) Query(ctx context.Context) (resp *QueryResponse, err error) {
	err = b.h.QueryView(ctx, func(res R, applied int64) error {
		resp, err = b.render(res, applied)
		return err
	})
	return resp, err
}

func (b *backend[R]) CheckpointTo(path string) error {
	return dynstream.CheckpointFile(b.h, path)
}

// options are the spec's execution knobs as front-door options; a
// non-positive worker count leaves the library's automatic choice.
func (s Spec) options() []dynstream.Option {
	opts := []dynstream.Option{dynstream.WithBatchSize(s.Batch)}
	if s.Workers > 0 {
		opts = append(opts, dynstream.WithWorkers(s.Workers))
	}
	if s.DecodeWorkers > 0 {
		opts = append(opts, dynstream.WithDecodeWorkers(s.DecodeWorkers))
	}
	if s.Tracer != nil {
		opts = append(opts, dynstream.WithTracer(s.Tracer))
	}
	return opts
}

// decodePolicy is the policy every render decodes under: the spec's
// tracer, so the Borůvka rounds of every sketch-family target land in
// the same timeline and fold counter. The forest decodes run on the
// calling goroutine, so no worker count is read.
func (s Spec) decodePolicy() *parallel.Policy {
	return parallel.Default().WithTracer(s.Tracer)
}

// Named is one row of the target table: a target name bound to its
// dynstream target and its render, erased to non-generic functions so
// the daemon, the CLI's one-shot build and its repl all drive a target
// the same way.
type Named struct {
	Name string
	// Passes is the number of stream passes the spec's target needs.
	Passes func(Spec) int
	// Open opens a live backend over base, or, when ckpt is non-nil,
	// restores it from that checkpoint (failing if it does not fit).
	Open func(ctx context.Context, spec Spec, base dynstream.Source, ckpt io.Reader) (Backend, error)
	// Build runs the target once over src and renders the result; words
	// is the sketch's size. extra options follow the spec's own.
	Build func(ctx context.Context, spec Spec, src dynstream.Source, extra ...dynstream.Option) (resp *QueryResponse, words int, err error)
}

// row binds one target to its render and its sketch-size reading.
// render leaves Target and Applied to the caller; words is asked only
// by a one-shot Build — a live query must not pay for walking the
// sketch to size it.
func row[R any](name string, target func(Spec) dynstream.Target[R],
	render func(Spec, R) (*QueryResponse, error), words func(R) int) Named {
	answer := func(spec Spec, res R, applied int64) (*QueryResponse, error) {
		resp, err := render(spec, res)
		if err != nil {
			return nil, err
		}
		resp.Target, resp.Applied = name, applied
		return resp, nil
	}
	return Named{
		Name:   name,
		Passes: func(spec Spec) int { return target(spec).Passes() },
		Open: func(ctx context.Context, spec Spec, base dynstream.Source, ckpt io.Reader) (Backend, error) {
			var h *dynstream.Handle[R]
			var err error
			if ckpt != nil {
				h, err = dynstream.Restore(ctx, ckpt, base, target(spec), spec.options()...)
			} else {
				h, err = dynstream.Open(ctx, base, target(spec), spec.options()...)
			}
			if err != nil {
				return nil, err
			}
			return &backend[R]{target: name, h: h, render: func(res R, applied int64) (*QueryResponse, error) {
				return answer(spec, res, applied)
			}}, nil
		},
		Build: func(ctx context.Context, spec Spec, src dynstream.Source, extra ...dynstream.Option) (*QueryResponse, int, error) {
			res, err := dynstream.Build(ctx, src, target(spec), append(spec.options(), extra...)...)
			if err != nil {
				return nil, 0, err
			}
			resp, err := answer(spec, res, 0)
			if err != nil {
				return nil, 0, err
			}
			return resp, words(res), nil
		},
	}
}

// edgeResult is the render of the decode-family targets, whose result
// already is a graph.
func edgeResult(g *graph.Graph, summary string) (*QueryResponse, error) {
	return &QueryResponse{Edges: wireEdges(g.Edges()), Summary: summary}, nil
}

func wireEdges(edges []graph.Edge) []EdgeJSON {
	out := make([]EdgeJSON, len(edges))
	for i, e := range edges {
		out[i] = EdgeJSON(e)
	}
	return out
}

// table is the one place a target name meets its dynstream target; an
// eighth target is one more row.
var table = []Named{
	row("additive",
		func(s Spec) dynstream.Target[*dynstream.AdditiveResult] {
			return dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: s.D, Seed: s.Seed}}
		},
		func(s Spec, res *dynstream.AdditiveResult) (*QueryResponse, error) {
			return edgeResult(res.Spanner, fmt.Sprintf("n/%d-additive spanner: %d edges", s.D, res.Spanner.M()))
		},
		func(res *dynstream.AdditiveResult) int { return res.SpaceWords }),
	row("bipartite",
		func(s Spec) dynstream.Target[*dynstream.Bipartiteness] {
			return dynstream.BipartitenessTarget{Seed: s.Seed}
		},
		func(s Spec, b *dynstream.Bipartiteness) (*QueryResponse, error) {
			bip, err := b.IsBipartiteOpts(s.decodePolicy())
			if err != nil {
				return nil, err
			}
			return &QueryResponse{Bipartite: &bip, Summary: fmt.Sprintf("bipartite: %v", bip)}, nil
		},
		(*dynstream.Bipartiteness).SpaceWords),
	row("forest",
		func(s Spec) dynstream.Target[*dynstream.ForestSketch] {
			return dynstream.ForestTarget{Seed: s.Seed}
		},
		func(s Spec, sk *dynstream.ForestSketch) (*QueryResponse, error) {
			forest, err := sk.SpanningForestOpts(nil, s.decodePolicy())
			if err != nil {
				return nil, err
			}
			// Forest edges are canonical, distinct and of unit weight:
			// sorted, they are what a Graph of them would list.
			graph.SortEdges(forest, sk.N())
			comps := sk.N() - len(forest)
			conn := comps == 1
			return &QueryResponse{
				Edges: wireEdges(forest), Connected: &conn, Components: comps,
				Summary: fmt.Sprintf("spanning forest: %d edges, %d components", len(forest), comps),
			}, nil
		},
		(*dynstream.ForestSketch).SpaceWords),
	row("kcert",
		func(s Spec) dynstream.Target[*dynstream.KConnectivity] {
			return dynstream.KConnectivityTarget{Seed: s.Seed, K: s.K}
		},
		func(s Spec, kc *dynstream.KConnectivity) (*QueryResponse, error) {
			cert, err := kc.CertificateGraphOpts(s.decodePolicy())
			if err != nil {
				return nil, err
			}
			return edgeResult(cert, fmt.Sprintf("%d-connectivity certificate: %d edges", s.K, cert.M()))
		},
		(*dynstream.KConnectivity).SpaceWords),
	row("msf",
		func(s Spec) dynstream.Target[*dynstream.MSF] {
			gamma := s.Gamma
			if gamma <= 0 {
				gamma = 0.5 // the CLI's choice
			}
			return dynstream.MSFTarget{Seed: s.Seed, WMax: s.WMax, Gamma: gamma}
		},
		func(s Spec, m *dynstream.MSF) (*QueryResponse, error) {
			forest, err := m.ForestOpts(s.decodePolicy())
			if err != nil {
				return nil, err
			}
			g := graph.New(m.N())
			for _, e := range forest {
				g.AddEdge(e.U, e.V, e.W)
			}
			return edgeResult(g, fmt.Sprintf("approximate MSF: %d edges", len(forest)))
		},
		(*dynstream.MSF).SpaceWords),
	row("spanner",
		func(s Spec) dynstream.Target[*dynstream.SpannerResult] {
			return dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: s.K, Seed: s.Seed}}
		},
		func(s Spec, res *dynstream.SpannerResult) (*QueryResponse, error) {
			return edgeResult(res.Spanner, fmt.Sprintf("2^%d-spanner: %d edges", s.K, res.Spanner.M()))
		},
		func(res *dynstream.SpannerResult) int { return res.SpaceWords }),
	row("sparsify",
		func(s Spec) dynstream.Target[*dynstream.SparsifierResult] {
			return dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{K: s.K, Z: s.Z, Seed: s.Seed}}
		},
		func(s Spec, res *dynstream.SparsifierResult) (*QueryResponse, error) {
			return edgeResult(res.Sparsifier,
				fmt.Sprintf("sparsifier: %d edges from %d samples", res.Sparsifier.M(), res.Samples))
		},
		func(res *dynstream.SparsifierResult) int { return res.SpaceWords }),
}

// Targets lists the recognized target names, sorted.
func Targets() []string {
	names := make([]string, len(table))
	for i, r := range table {
		names[i] = r.Name
	}
	return names
}

// Lookup returns the table row for a target name.
func Lookup(name string) (Named, error) {
	for _, r := range table {
		if r.Name == name {
			return r, nil
		}
	}
	return Named{}, fmt.Errorf("unknown target %q (want one of %s)", name, strings.Join(Targets(), "|"))
}

// OpenBackend is the daemon's opening policy over Named.Open: the
// spec's target serves an empty base graph of spec.N vertices, resumed
// from ckptPath when that names a readable, valid checkpoint for it —
// restored is then the snapshot's applied-update count. Otherwise the
// handle starts fresh (restored -1), and a checkpoint that exists but
// could not be restored is reported in note rather than failing the
// daemon. The daemon replays nothing itself: the feed that produced the
// checkpointed updates is expected to resume past AppliedUpdates, or
// queries simply reflect the restored prefix.
func OpenBackend(ctx context.Context, spec Spec, ckptPath string) (b Backend, restored int64, note string, err error) {
	r, err := Lookup(spec.Target)
	if err != nil {
		return nil, 0, "", err
	}
	base := dynstream.NewMemoryStream(spec.N)
	if ckptPath != "" {
		f, err := os.Open(ckptPath)
		if err == nil {
			b, err = r.Open(ctx, spec, base, f)
			f.Close()
			if err == nil {
				return b, b.Applied(), "", nil
			}
		}
		if !os.IsNotExist(err) {
			note = fmt.Sprintf("checkpoint %s not restored (%v); starting fresh", ckptPath, err)
		}
	}
	b, err = r.Open(ctx, spec, base, nil)
	if err != nil {
		return nil, 0, note, err
	}
	return b, -1, note, nil
}
