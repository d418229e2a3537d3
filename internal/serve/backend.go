package serve

import (
	"context"
	"fmt"
	"os"
	"slices"
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
	// handle (ingest shards, decode, query, checkpoint) — the daemon
	// bridges it into the /metrics phase histograms.
	Tracer *dynstream.Tracer
}

// Targets lists the recognized Spec.Target names.
var Targets = []string{"additive", "bipartite", "forest", "kcert", "msf", "spanner", "sparsify"}

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

// openBackend opens (or restores) one target's handle over an empty
// base graph of spec.N vertices. If ckptPath names a readable, valid
// checkpoint for this target, the handle resumes from it — restored is
// then the snapshot's applied-update count; otherwise the handle starts
// fresh (restored -1) and a non-empty ckptPath that failed to restore
// is reported in note. The daemon replays nothing itself: the feed that
// produced the checkpointed updates is expected to resume past
// AppliedUpdates, or queries simply reflect the restored prefix.
func openBackend[R any](ctx context.Context, spec Spec, target dynstream.Target[R], ckptPath string,
	render func(R, int64) (*QueryResponse, error)) (Backend, int64, string, error) {
	base := dynstream.NewMemoryStream(spec.N)
	opts := []dynstream.Option{dynstream.WithBatchSize(spec.Batch)}
	if spec.Workers > 0 {
		opts = append(opts, dynstream.WithWorkers(spec.Workers))
	}
	if spec.DecodeWorkers > 0 {
		opts = append(opts, dynstream.WithDecodeWorkers(spec.DecodeWorkers))
	}
	if spec.Tracer != nil {
		opts = append(opts, dynstream.WithTracer(spec.Tracer))
	}
	note := ""
	if ckptPath != "" {
		f, err := os.Open(ckptPath)
		if err == nil {
			h, rerr := dynstream.Restore(ctx, f, base, target, opts...)
			f.Close()
			if rerr == nil {
				return &backend[R]{target: spec.Target, h: h, render: render}, h.AppliedUpdates(), "", nil
			}
			note = fmt.Sprintf("checkpoint %s not restored (%v); starting fresh", ckptPath, rerr)
		} else if !os.IsNotExist(err) {
			note = fmt.Sprintf("checkpoint %s not restored (%v); starting fresh", ckptPath, err)
		}
	}
	h, err := dynstream.Open(ctx, base, target, opts...)
	if err != nil {
		return nil, 0, note, err
	}
	return &backend[R]{target: spec.Target, h: h, render: render}, -1, note, nil
}

// edgesJSON converts a result graph to wire edges in the graph's own
// deterministic edge order.
func edgesJSON(g *graph.Graph) []EdgeJSON { return wireEdges(g.Edges()) }

func wireEdges(edges []graph.Edge) []EdgeJSON {
	out := make([]EdgeJSON, len(edges))
	for i, e := range edges {
		out[i] = EdgeJSON(e)
	}
	return out
}

// OpenBackend opens (or restores, when ckptPath names a valid snapshot)
// the spec's target. The note return carries a human-readable remark
// about a checkpoint that existed but could not be restored.
func OpenBackend(ctx context.Context, spec Spec, ckptPath string) (b Backend, restored int64, note string, err error) {
	switch spec.Target {
	case "forest":
		return openBackend(ctx, spec, dynstream.ForestTarget{Seed: spec.Seed}, ckptPath,
			func(sk *dynstream.ForestSketch, applied int64) (*QueryResponse, error) {
				// The spec's tracer sees the decode's Borůvka rounds too:
				// their fold counts feed the /metrics counter.
				forest, err := sk.SpanningForestOpts(nil,
					parallel.Default().WithWorkers(spec.decodeWorkers()).WithTracer(spec.Tracer))
				if err != nil {
					return nil, err
				}
				// Forest edges are canonical, distinct and of unit weight:
				// sorted, they are what a Graph of them would list.
				slices.SortFunc(forest, graph.CompareEdges)
				comps := spec.N - len(forest)
				conn := comps == 1
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Edges: wireEdges(forest),
					Connected: &conn, Components: comps,
					Summary: fmt.Sprintf("spanning forest: %d edges, %d components", len(forest), comps),
				}, nil
			})

	case "kcert":
		return openBackend(ctx, spec, dynstream.KConnectivityTarget{Seed: spec.Seed, K: spec.K}, ckptPath,
			func(kc *dynstream.KConnectivity, applied int64) (*QueryResponse, error) {
				cert, err := kc.CertificateGraphParallel(spec.decodeWorkers())
				if err != nil {
					return nil, err
				}
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Edges: edgesJSON(cert),
					Summary: fmt.Sprintf("%d-connectivity certificate: %d edges", spec.K, cert.M()),
				}, nil
			})

	case "bipartite":
		return openBackend(ctx, spec, dynstream.BipartitenessTarget{Seed: spec.Seed}, ckptPath,
			func(b *dynstream.Bipartiteness, applied int64) (*QueryResponse, error) {
				bip, err := b.IsBipartiteParallel(spec.decodeWorkers())
				if err != nil {
					return nil, err
				}
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Bipartite: &bip,
					Summary: fmt.Sprintf("bipartite: %v", bip),
				}, nil
			})

	case "msf":
		return openBackend(ctx, spec, dynstream.MSFTarget{Seed: spec.Seed, WMax: spec.WMax, Gamma: spec.gamma()}, ckptPath,
			func(m *dynstream.MSF, applied int64) (*QueryResponse, error) {
				forest, err := m.ForestParallel(spec.decodeWorkers())
				if err != nil {
					return nil, err
				}
				g := graph.New(spec.N)
				for _, e := range forest {
					g.AddEdge(e.U, e.V, e.W)
				}
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Edges: edgesJSON(g),
					Summary: fmt.Sprintf("approximate MSF: %d edges", len(forest)),
				}, nil
			})

	case "spanner":
		return openBackend(ctx, spec,
			dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: spec.K, Seed: spec.Seed}}, ckptPath,
			func(res *dynstream.SpannerResult, applied int64) (*QueryResponse, error) {
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Edges: edgesJSON(res.Spanner),
					Summary: fmt.Sprintf("2^%d-spanner: %d edges", spec.K, res.Spanner.M()),
				}, nil
			})

	case "additive":
		return openBackend(ctx, spec,
			dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: spec.D, Seed: spec.Seed}}, ckptPath,
			func(res *dynstream.AdditiveResult, applied int64) (*QueryResponse, error) {
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Edges: edgesJSON(res.Spanner),
					Summary: fmt.Sprintf("n/%d-additive spanner: %d edges", spec.D, res.Spanner.M()),
				}, nil
			})

	case "sparsify":
		return openBackend(ctx, spec,
			dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{K: spec.K, Z: spec.Z, Seed: spec.Seed}}, ckptPath,
			func(res *dynstream.SparsifierResult, applied int64) (*QueryResponse, error) {
				return &QueryResponse{
					Target: spec.Target, Applied: applied, Edges: edgesJSON(res.Sparsifier),
					Summary: fmt.Sprintf("sparsifier: %d edges from %d samples", res.Sparsifier.M(), res.Samples),
				}, nil
			})

	default:
		return nil, 0, "", fmt.Errorf("unknown target %q (want one of %s)", spec.Target, strings.Join(Targets, "|"))
	}
}

// decodeWorkers resolves the decode worker count for the render-side
// decode methods (SpanningForestParallel etc.), mirroring the CLI's
// -decodeworkers semantics: 0 follows Workers, floor 1.
func (s Spec) decodeWorkers() int {
	dw := s.DecodeWorkers
	if dw == 0 {
		dw = s.Workers
	}
	if dw < 1 {
		dw = 1
	}
	return dw
}

// gamma resolves the MSF approximation parameter (default 0.5, the
// CLI's choice).
func (s Spec) gamma() float64 {
	if s.Gamma > 0 {
		return s.Gamma
	}
	return 0.5
}
