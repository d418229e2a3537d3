package dynstream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
)

// graphKey renders a result graph to a canonical string so traced and
// untraced builds can be compared bit for bit.
func graphKey(g *Graph) string {
	var b strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "%d %d %g\n", e.U, e.V, e.W)
	}
	return b.String()
}

// TestTracedBuildsBitIdentical is the instrumentation-inertness proof:
// for every one of the seven targets, a build observed by a live tracer
// (events on, parallel ingest so the shard spans fire) produces exactly
// the bytes an untraced build produces.
func TestTracedBuildsBitIdentical(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.18, 4101)
	st := StreamWithChurn(g, 150, 4102)
	wg := graph.RandomWeighted(graph.ConnectedGNP(36, 0.2, 4103), 1, 50, 4104)
	wst := StreamFromGraph(wg, 4105)
	ctx := context.Background()

	cases := []struct {
		name  string
		build func(opts ...Option) (string, error)
	}{
		{"spanner", func(opts ...Option) (string, error) {
			res, err := Build(ctx, st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 4106}}, opts...)
			if err != nil {
				return "", err
			}
			return graphKey(res.Spanner), nil
		}},
		{"additive", func(opts ...Option) (string, error) {
			res, err := Build(ctx, st, AdditiveTarget{Config: AdditiveConfig{D: 4, Seed: 4107}}, opts...)
			if err != nil {
				return "", err
			}
			return graphKey(res.Spanner), nil
		}},
		{"sparsify", func(opts ...Option) (string, error) {
			res, err := Build(ctx, st, SparsifierTarget{Config: SparsifierConfig{K: 2, Z: 8, Seed: 4108}}, opts...)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s|%d", graphKey(res.Sparsifier), res.Samples), nil
		}},
		{"forest", func(opts ...Option) (string, error) {
			sk, err := Build(ctx, st, ForestTarget{Seed: 4109}, opts...)
			if err != nil {
				return "", err
			}
			forest, err := sk.SpanningForestOpts(nil, parallel.Default().WithWorkers(2))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v", forest), nil
		}},
		{"kconn", func(opts ...Option) (string, error) {
			kc, err := Build(ctx, st, KConnectivityTarget{Seed: 4110, K: 2}, opts...)
			if err != nil {
				return "", err
			}
			cert, err := kc.CertificateGraphOpts(parallel.Default().WithWorkers(2))
			if err != nil {
				return "", err
			}
			return graphKey(cert), nil
		}},
		{"bipartite", func(opts ...Option) (string, error) {
			b, err := Build(ctx, st, BipartitenessTarget{Seed: 4111}, opts...)
			if err != nil {
				return "", err
			}
			bip, err := b.IsBipartiteOpts(parallel.Default().WithWorkers(2))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v", bip), nil
		}},
		{"msf", func(opts ...Option) (string, error) {
			m, err := Build(ctx, wst, MSFTarget{Seed: 4112, WMax: 50, Gamma: 0.5}, opts...)
			if err != nil {
				return "", err
			}
			forest, err := m.ForestOpts(parallel.Default().WithWorkers(2))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v", forest), nil
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.build(WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracer()
			tr.EnableEvents(1 << 12)
			traced, err := tc.build(WithWorkers(3), WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			if plain != traced {
				t.Fatalf("traced build differs from untraced:\n--- untraced ---\n%s\n--- traced ---\n%s", plain, traced)
			}
			phases := tr.Phases()
			if len(phases) == 0 {
				t.Fatal("tracer attached but observed no phases")
			}
			seen := map[string]bool{}
			for _, p := range phases {
				seen[p.Phase] = true
			}
			if !seen["ingest"] {
				t.Fatalf("no ingest phase recorded; got %v", phases)
			}
		})
	}
}

// stripDurations blanks every duration (and the column padding in
// front of it) so the timeline is comparable across machines:
// wall-clock readings are the only nondeterminism in a serial
// (workers=1) trace.
var durRe = regexp.MustCompile(`\s+\d+(\.\d+)?(ns|µs|ms|s)\b`)

func stripDurations(s string) string { return durRe.ReplaceAllString(s, " <dur>") }

// TestTimelineGolden pins the timeline rendering of one deterministic
// serial spanner build: phase names, first-end ordering, counts and
// attribute sums are all seed-determined; only durations are blanked.
func TestTimelineGolden(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 4201)
	st := StreamWithChurn(g, 100, 4202)
	tr := NewTracer()
	if _, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 4203}},
		WithWorkers(1), WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr.WriteTimeline(&buf)
	got := stripDurations(buf.String())

	updates := int64(2 * st.Len()) // two passes over the stream
	want := fmt.Sprintf(`== trace: 3 phases, <dur> summed wall ==
PHASE                     COUNT        WALL  ATTRS
ingest                        2 <dur>  updates=%d workers=2
spanner/cluster/level00       1 <dur>  centers=30 dirty=30 attached=20 cache_hit=0 cache_miss=0
spanner/recover               1 <dur>  terminals=16 dirty=16 recovered=103 tables=96 tables_touched=41 keys=252 cache_hit=0 cache_miss=0
ingested updates: %d
`, updates, updates)
	if got != want {
		t.Fatalf("timeline drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestBuildWritesChromeTrace exercises the WithTraceFile sink: the file
// must parse as trace_event JSON whose complete events cover the
// ingest and both spanner phases.
func TestBuildWritesChromeTrace(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 4301)
	st := StreamWithChurn(g, 100, 4302)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 4303}},
		WithWorkers(2), WithTraceFile(path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "X" {
			phases[name] = true
			for _, key := range []string{"ts", "pid", "tid"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("event %q missing %q: %v", name, key, ev)
				}
			}
		}
	}
	for _, want := range []string{"ingest", "spanner/cluster/level00", "spanner/recover"} {
		if !phases[want] {
			t.Fatalf("trace file missing phase %q; has %v", want, phases)
		}
	}
}

// TestProgressDeliveredThroughTracer pins the satellite rework of
// WithProgress: the callback now rides the tracer's ingest-observer
// path, and must keep its old contract (monotone totals, final total =
// stream length) with and without an explicit tracer attached.
func TestProgressDeliveredThroughTracer(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.2, 4401)
	st := StreamWithChurn(g, 100, 4402)
	for _, withTracer := range []bool{false, true} {
		var last int64
		opts := []Option{
			WithWorkers(1),
			WithBatchSize(16),
			WithProgress(func(total int64) {
				if total < last {
					t.Errorf("progress went backwards: %d after %d", total, last)
				}
				last = total
			}),
		}
		if withTracer {
			opts = append(opts, WithTracer(NewTracer()))
		}
		if _, err := Build(context.Background(), st, ForestTarget{Seed: 4403}, opts...); err != nil {
			t.Fatal(err)
		}
		if last != int64(st.Len()) {
			t.Fatalf("withTracer=%v: final progress %d, want %d", withTracer, last, st.Len())
		}
	}
}
