package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dynstream"
)

// reflected is the body encoding/json writes for r: the bytes the
// append-based encoder must reproduce.
func reflected(t *testing.T, r *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEncoding(t *testing.T, name string, r *QueryResponse) {
	t.Helper()
	want := reflected(t, r)
	got, ok := appendQueryResponse([]byte("kept"), r)
	if !ok {
		t.Fatalf("%s: encoder refused a finite response", name)
	}
	if !bytes.Equal(got, append([]byte("kept"), want...)) {
		t.Errorf("%s: append-based body differs from encoding/json's:\n got %s\nwant %s", name, got[4:], want)
	}
}

// TestQueryEncodingMatchesJSON: every target's real response, and the
// corners of the format, encode byte for byte as encoding/json does.
func TestQueryEncodingMatchesJSON(t *testing.T) {
	ctx := context.Background()
	const n = 24
	var ups []dynstream.Update
	for v := 1; v < n; v++ {
		ups = append(ups, dynstream.Update{U: v - 1, V: v, W: 1 + float64(v%5)/4, Delta: 1})
		ups = append(ups, dynstream.Update{U: (v * 7) % n, V: (v*7 + 5) % n, W: 2.5, Delta: 1})
	}
	for _, target := range Targets() {
		b, _, _, err := OpenBackend(ctx, Spec{Target: target, N: n, K: 2, D: 2, Z: 2, Seed: 5, WMax: 8}, "")
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		empty, err := b.Query(ctx)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		checkEncoding(t, target+"/empty", empty)
		if err := b.Apply(ups); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		full, err := b.Query(ctx)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if target != "bipartite" && len(full.Edges) == 0 {
			t.Fatalf("%s: no edges to encode", target)
		}
		checkEncoding(t, target, full)
	}

	yes, no := true, false
	weights := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123456789.125, 1e6, 1e-6, 9.99e-7, 1e-7,
		1e20, 1e21, 1.5e21, 1e22, 1e100, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-9, -3e-10, 4e9}
	var edges []EdgeJSON
	for i, w := range weights {
		edges = append(edges, EdgeJSON{U: i, V: i * 1000003, W: w})
	}
	for name, r := range map[string]*QueryResponse{
		"zero":            {},
		"nil edges":       {Target: "forest", Applied: 7, Summary: "s", Connected: &no, Components: 3},
		"empty edges":     {Target: "forest", Applied: -1, Edges: []EdgeJSON{}, Connected: &yes, Components: 1},
		"bipartite":       {Target: "bipartite", Applied: math.MaxInt64, Bipartite: &yes},
		"not bipartite":   {Target: "bipartite", Bipartite: &no, Components: -2},
		"weights":         {Target: "sparsify", Applied: 1, Edges: edges},
		"escaped strings": {Target: "a<b>&\"c\\\u2028\x01\xff", Summary: "tab\there é 世界 \u007f", Edges: edges[:1]},
	} {
		checkEncoding(t, name, r)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		in := []byte("kept")
		out, ok := appendQueryResponse(in, &QueryResponse{Edges: []EdgeJSON{{W: 1}, {W: w}}})
		if ok || string(out) != "kept" {
			t.Errorf("weight %v: encoder returned %q, %v; want the buffer back and false", w, out, ok)
		}
	}
}

// fixedBackend answers every query with one canned response.
type fixedBackend struct {
	Backend
	resp *QueryResponse
}

func (b fixedBackend) Target() string                                { return "forest" }
func (b fixedBackend) N() int                                        { return 4 }
func (b fixedBackend) Applied() int64                                { return b.resp.Applied }
func (b fixedBackend) Query(context.Context) (*QueryResponse, error) { return b.resp, nil }

// TestQueryHandlerBody: the handler's body is encoding/json's, for a
// response the append-based encoder takes and for one it refuses.
func TestQueryHandlerBody(t *testing.T) {
	for name, resp := range map[string]*QueryResponse{
		"finite": {Target: "forest", Applied: 3, Summary: "ok", Edges: []EdgeJSON{{U: 0, V: 1, W: 1}, {U: 1, V: 3, W: 0.25}}},
		"nan":    {Target: "forest", Applied: 3, Edges: []EdgeJSON{{U: 0, V: 1, W: math.NaN()}}},
	} {
		s, err := NewServer([]Backend{fixedBackend{resp: resp}}, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		got, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(got.Body)
		got.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(resp) // the NaN case writes nothing
		if got.StatusCode != http.StatusOK || got.Header.Get("Content-Type") != "application/json" || !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: status %d, type %q, body %q; want 200, application/json, %q",
				name, got.StatusCode, got.Header.Get("Content-Type"), body, want.Bytes())
		}
	}
}

// TestQueryContentLength: a query answer carries its length, for a
// small body and for one far past net/http's response buffer (which a
// body without a length would reach chunked), and its bytes are still
// encoding/json's.
func TestQueryContentLength(t *testing.T) {
	big := &QueryResponse{Target: "forest", Applied: 9, Summary: "big"}
	for i := 0; i < 12000; i++ {
		big.Edges = append(big.Edges, EdgeJSON{U: i, V: i + 1, W: 1})
	}
	for name, resp := range map[string]*QueryResponse{
		"small": {Target: "forest", Applied: 3, Summary: "ok", Edges: []EdgeJSON{{U: 0, V: 1, W: 1}}},
		"big":   big,
	} {
		s, err := NewServer([]Backend{fixedBackend{resp: resp}}, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		got, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(got.Body)
		got.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(resp)
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body of %d bytes differs from encoding/json's %d", name, len(body), want.Len())
		}
		if cl := got.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || got.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %q (%d), body %d bytes", name, cl, got.ContentLength, len(body))
		}
		if len(got.TransferEncoding) != 0 {
			t.Errorf("%s: transfer encoding %v, want none", name, got.TransferEncoding)
		}
	}
}

// integralCorners are the weights on both sides of the integer fast
// path's bounds, and the formats around it.
var integralCorners = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -7, 1 << 53, -(1 << 53), 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1 << 60,
	0.5, -0.5, 1.5, 1e-7, 1e15, 1e20, -1e20, 1e21, -1e21, 123456789012345, 4503599627370495.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, math.MaxFloat64,
}

// TestAppendJSONFloatCorners: each corner weight encodes as
// encoding/json writes it.
func TestAppendJSONFloatCorners(t *testing.T) {
	for _, w := range integralCorners {
		checkEncoding(t, fmt.Sprintf("weight %v", w), &QueryResponse{Edges: []EdgeJSON{{U: 1, V: 2, W: w}}})
	}
}

// FuzzAppendJSONFloat: any finite float64 bit pattern encodes as
// encoding/json writes it.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, w := range integralCorners {
		f.Add(math.Float64bits(w))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		w := math.Float64frombits(bits)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return
		}
		checkEncoding(t, fmt.Sprintf("bits %#x", bits), &QueryResponse{Edges: []EdgeJSON{{W: w}, {U: 3, V: 4, W: -w}}})
	})
}
