package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dynstream"
	"dynstream/internal/graph"
)

// testLog builds a deterministic insert/delete stream on n vertices —
// xorshift-driven, the same sequence every run.
func testLog(n, m int, seed uint64) []dynstream.Update {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var log []dynstream.Update
	type edge struct{ u, v int }
	live := map[edge]bool{}
	for len(log) < m {
		u := int(next() % uint64(n))
		v := int(next() % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if live[e] && next()%4 == 0 {
			log = append(log, dynstream.Update{U: u, V: v, W: 1, Delta: -1})
			delete(live, e)
			continue
		}
		if !live[e] {
			log = append(log, dynstream.Update{U: u, V: v, W: 1, Delta: 1})
			live[e] = true
		}
	}
	return log[:m]
}

// offlineForest builds the forest target offline over log[:upto] and
// returns its edge list in the render's deterministic order.
func offlineForest(t *testing.T, n int, log []dynstream.Update, upto int64, seed uint64) []EdgeJSON {
	t.Helper()
	ms := dynstream.NewMemoryStream(n)
	for _, u := range log[:upto] {
		if err := ms.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	sk, err := dynstream.Build(context.Background(), ms, dynstream.ForestTarget{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := sk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the backend's render exactly: unit edges through a Graph,
	// emitted in the graph's own deterministic edge order.
	g := graph.New(n)
	for _, e := range forest {
		g.AddUnitEdge(e.U, e.V)
	}
	return wireEdges(g.Edges())
}

func newForestServer(t *testing.T, n int, seed uint64, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	b, _, _, err := OpenBackend(context.Background(),
		Spec{Target: "forest", N: n, Seed: seed}, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer([]Backend{b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestParseUpdate(t *testing.T) {
	for _, tc := range []struct {
		line string
		want dynstream.Update
		bad  bool
	}{
		{line: "+ 1 2", want: dynstream.Update{U: 1, V: 2, W: 1, Delta: 1}},
		{line: "- 1 2", want: dynstream.Update{U: 1, V: 2, W: 1, Delta: -1}},
		{line: "+ 3 4 2.5", want: dynstream.Update{U: 3, V: 4, W: 2.5, Delta: 1}},
		{line: "+ 1", bad: true},
		{line: "+ 1 2 3 4", bad: true},
		{line: "+ x 2", bad: true},
		{line: "+ 1 y", bad: true},
		{line: "+ 1 2 zz", bad: true},
		{line: "add 1 2", bad: true},
	} {
		u, err := ParseUpdate(strings.Fields(tc.line))
		if tc.bad {
			if err == nil {
				t.Errorf("ParseUpdate(%q): want error, got %+v", tc.line, u)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseUpdate(%q): %v", tc.line, err)
		} else if u != tc.want {
			t.Errorf("ParseUpdate(%q) = %+v, want %+v", tc.line, u, tc.want)
		}
	}
}

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
		bad  bool
	}{
		{line: "+ 1 2", ok: true},
		{line: "", ok: false},
		{line: "   ", ok: false},
		{line: "# comment", ok: false},
		{line: "n 16", ok: false},      // matching header tolerated
		{line: "n 17", bad: true},      // mismatched header rejected
		{line: "n", bad: true},         // malformed header
		{line: "* 1 2", bad: true},     // unknown op
		{line: "+ one two", bad: true}, // non-numeric
	} {
		_, ok, err := ParseLine(tc.line, 16)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseLine(%q): want error", tc.line)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseLine(%q): %v", tc.line, err)
		} else if ok != tc.ok {
			t.Errorf("ParseLine(%q): ok = %v, want %v", tc.line, ok, tc.ok)
		}
	}
}

// TestConcurrentIngestQuery is the protocol's consistency proof: HTTP
// queries racing a continuous ingest stream must each return a
// batch-boundary snapshot — an applied count that is a multiple of the
// batch size, with edges bit-identical to an offline Build over exactly
// that stream prefix. Run under -race this also proves the server
// needs no locking beyond the handle's own mutex.
func TestConcurrentIngestQuery(t *testing.T) {
	const (
		n     = 64
		m     = 1500
		batch = 50
		seed  = 7
	)
	log := testLog(n, m, 0x9e3779b9)
	s, ts := newForestServer(t, n, seed, ServerConfig{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < m; i += batch {
			if err := s.ApplyBatch(log[i : i+batch]); err != nil {
				t.Errorf("ApplyBatch: %v", err)
				return
			}
		}
	}()

	// Concurrent queriers: collect (applied, edges) snapshots.
	type snap struct {
		applied int64
		edges   []EdgeJSON
	}
	var mu sync.Mutex
	var snaps []snap
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/v1/query")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				var qr QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
					t.Errorf("decode: %v", err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
				mu.Lock()
				snaps = append(snaps, snap{applied: qr.Applied, edges: qr.Edges})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	seen := map[int64]bool{}
	for _, sn := range snaps {
		if sn.applied%batch != 0 {
			t.Fatalf("query observed applied=%d, not a batch boundary (batch=%d)", sn.applied, batch)
		}
		if seen[sn.applied] {
			continue
		}
		seen[sn.applied] = true
		want := offlineForest(t, n, log, sn.applied, seed)
		if len(sn.edges) == 0 {
			sn.edges = []EdgeJSON{}
		}
		if len(want) == 0 {
			want = []EdgeJSON{}
		}
		if !reflect.DeepEqual(sn.edges, want) {
			t.Fatalf("query at applied=%d diverges from offline build:\n got %v\nwant %v",
				sn.applied, sn.edges, want)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no query snapshots collected")
	}
}

func TestUpdateEndpointJSONAndText(t *testing.T) {
	s, ts := newForestServer(t, 16, 1, ServerConfig{})
	// JSON body.
	body, _ := json.Marshal(UpdateRequest{Updates: []UpdateJSON{
		{U: 0, V: 1, Delta: 1}, {U: 1, V: 2, Delta: 1},
	}})
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Count != 2 || ur.Applied != 2 {
		t.Fatalf("JSON update: status %d, resp %+v", resp.StatusCode, ur)
	}
	// Text body, with header and comment tolerated.
	resp, err = http.Post(ts.URL+"/v1/update", "text/plain",
		strings.NewReader("n 16\n# fill\n+ 2 3\n+ 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Count != 2 || ur.Applied != 4 {
		t.Fatalf("text update: status %d, resp %+v", resp.StatusCode, ur)
	}
	// Malformed text line → 400, counted.
	resp, err = http.Post(ts.URL+"/v1/update", "text/plain", strings.NewReader("+ zz 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed update line: status %d, want 400", resp.StatusCode)
	}
	if got := s.Metrics().UpdatesTotal(); got != 4 {
		t.Fatalf("updates total %d, want 4", got)
	}
}

func TestDrainSemantics(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.ckpt")
	s, ts := newForestServer(t, 32, 3, ServerConfig{Checkpoint: ckpt})
	log := testLog(32, 200, 5)
	if err := s.ApplyBatch(log); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// readyz turns 503; healthz stays 200; updates rejected with 503;
	// queries still served.
	resp, _ := http.Get(ts.URL + "/readyz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/healthz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d, want 200", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/update", "text/plain", strings.NewReader("+ 1 2\n"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update after drain: %d, want 503", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/query")
	var qr QueryResponse
	json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Applied != int64(len(log)) {
		t.Fatalf("query after drain: status %d, applied %d", resp.StatusCode, qr.Applied)
	}
	// The final checkpoint restores to the applied prefix.
	b2, restored, _, err := OpenBackend(context.Background(),
		Spec{Target: "forest", N: 32, Seed: 3}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if restored != int64(len(log)) {
		t.Fatalf("restored applied = %d, want %d", restored, len(log))
	}
	got, err := b2.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := offlineForest(t, 32, log, int64(len(log)), 3)
	if !reflect.DeepEqual(got.Edges, want) {
		t.Fatalf("restored query diverges:\n got %v\nwant %v", got.Edges, want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newForestServer(t, 32, 2, ServerConfig{})
	log := testLog(32, 100, 11)
	if err := s.ApplyBatch(log); err != nil {
		t.Fatal(err)
	}
	// Two queries: the second should hit the decode cache.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"dynstream_up 1",
		"dynstream_ready 1",
		fmt.Sprintf("dynstream_updates_ingested_total %d", len(log)),
		`dynstream_queries_total{target="forest",outcome="ok"} 2`,
		"dynstream_query_latency_seconds_count 2",
		`dynstream_applied_updates{target="forest"} 100`,
		"dynstream_query_latency_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// Cache hits advance after the warm second query.
	var hits uint64
	fmt.Sscanf(findLine(text, `dynstream_decode_cache_hits_total{target="forest"}`), `dynstream_decode_cache_hits_total{target="forest"} %d`, &hits)
	if hits == 0 {
		t.Errorf("decode cache hits = 0 after a repeated query\n%s", findLine(text, "dynstream_decode_cache"))
	}
}

// TestMetricsDecodeFolds: with the daemon's tracer bridge in place, the
// Borůvka rounds' fold counts reach /metrics as a counter, next to the
// phase histograms the same spans feed.
func TestMetricsDecodeFolds(t *testing.T) {
	// Every sketch-family target decodes under the spec's tracer: kcert,
	// bipartite and msf used to render through worker-count-only decode
	// calls and emitted no agm/round spans at all.
	for _, target := range []string{"forest", "kcert", "bipartite", "msf"} {
		t.Run(target, func(t *testing.T) {
			tr := dynstream.NewTracer()
			b, _, _, err := OpenBackend(context.Background(),
				Spec{Target: target, N: 32, K: 2, Seed: 2, WMax: 8, Tracer: tr}, "")
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewServer([]Backend{b}, ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tr.OnSpanEnd(s.Metrics().ObserveSpan)
			if err := s.ApplyBatch(testLog(32, 100, 11)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Query(context.Background()); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			s.Metrics().WritePrometheus(&out, true, false, nil)
			var folds uint64
			fmt.Sscanf(findLine(out.String(), "dynstream_decode_folds_total"), "dynstream_decode_folds_total %d", &folds)
			if folds == 0 || !strings.Contains(out.String(), `dynstream_phase_duration_seconds_count{phase="agm/round01"}`) {
				t.Errorf("a cold decode of a 100-update graph exported %d folds\n%s", folds, out.String())
			}
		})
	}
}

func findLine(text, prefix string) string {
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

// TestIngestFeed drives the feed loop from a reader: malformed lines
// are skipped with a counted error, valid ones batch through.
func TestIngestFeed(t *testing.T) {
	s, _ := newForestServer(t, 16, 1, ServerConfig{})
	feed := "n 16\n+ 0 1\n+ 1 2\ngarbage line\n+ 2 3\n# done\n"
	if err := s.IngestFeed(context.Background(), strings.NewReader(feed), 2); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().UpdatesTotal(); got != 3 {
		t.Fatalf("ingested %d updates, want 3", got)
	}
	if got := s.Metrics().feedErrors.Load(); got != 1 {
		t.Fatalf("feed errors %d, want 1", got)
	}
}

// TestMultiTargetServer serves two targets and checks per-target query
// routing plus the checkpoint path scheme.
func TestMultiTargetServer(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "multi.ckpt")
	ctx := context.Background()
	var backends []Backend
	for _, target := range []string{"forest", "bipartite"} {
		b, _, _, err := OpenBackend(ctx, Spec{Target: target, N: 16, Seed: 1}, "")
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	s, err := NewServer(backends, ServerConfig{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Odd cycle: not bipartite.
	if err := s.ApplyBatch([]dynstream.Update{
		{U: 0, V: 1, W: 1, Delta: 1}, {U: 1, V: 2, W: 1, Delta: 1}, {U: 2, V: 0, W: 1, Delta: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Ambiguous query → 400.
	resp, _ := http.Get(ts.URL + "/v1/query")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous query: %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/query?target=bipartite")
	var qr QueryResponse
	json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if qr.Bipartite == nil || *qr.Bipartite {
		t.Fatalf("odd cycle reported bipartite: %+v", qr)
	}
	paths, _, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wantPaths := []string{ckpt + ".bipartite", ckpt + ".forest"}
	if !reflect.DeepEqual(paths, wantPaths) {
		t.Fatalf("checkpoint paths %v, want %v", paths, wantPaths)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("checkpoint file: %v", err)
		}
	}
}
