package dynstream

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynstream/internal/graph"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
)

// ---------------------------------------------------------------------
// Old-vs-new equivalence: the legacy entry points are wrappers over
// Build, and Build must be bit-identical to the pre-redesign internal
// code paths — serial and parallel, for every target.

func buildTestStream(n int, p float64, churn int, seed uint64) (*Graph, *MemoryStream) {
	g := graph.ConnectedGNP(n, p, seed)
	return g, StreamWithChurn(g, churn, seed+1)
}

func TestBuildSpannerEquivalence(t *testing.T) {
	_, st := buildTestStream(48, 0.15, 150, 901)
	cfg := SpannerConfig{K: 2, Seed: 902}
	want, err := spanner.BuildTwoPass(st, cfg) // pre-redesign serial path
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Build(context.Background(), st, SpannerTarget{Config: cfg}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "spanner", got.Spanner, want.Spanner)
		if got.SpaceWords != want.SpaceWords || got.Terminals != want.Terminals {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, got, want)
		}
	}
}

func TestBuildSpannerWeightedEquivalence(t *testing.T) {
	base := graph.ConnectedGNP(40, 0.15, 903)
	g := graph.RandomWeighted(base, 1, 60, 904)
	st := StreamFromGraph(g, 905)
	cfg := SpannerConfig{K: 2, Seed: 906}
	want, err := spanner.BuildTwoPassWeighted(st, cfg, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Build(context.Background(), st, SpannerTarget{Config: cfg},
			WithWorkers(workers), WithWeightClasses(2.0))
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "weighted spanner", got.Spanner, want.Spanner)
	}
}

func TestBuildAdditiveEquivalence(t *testing.T) {
	_, st := buildTestStream(44, 0.2, 120, 907)
	cfg := AdditiveConfig{D: 3, Seed: 908}
	want, err := spanner.BuildAdditive(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Build(context.Background(), st, AdditiveTarget{Config: cfg}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "additive", got.Spanner, want.Spanner)
	}
}

func TestBuildSparsifierEquivalence(t *testing.T) {
	g := graph.Complete(10)
	st := StreamFromGraph(g, 909)
	cfg := SparsifierConfig{
		K: 1, Z: 4, Seed: 910,
		Estimate: EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 911},
	}
	want, err := sparsify.Sparsify(st, cfg) // pre-redesign serial path
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Build(context.Background(), st, SparsifierTarget{Config: cfg}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "sparsifier", got.Sparsifier, want.Sparsifier)
	}
}

func TestBuildForestEquivalence(t *testing.T) {
	_, st := buildTestStream(50, 0.12, 200, 912)
	want := NewForestSketch(913, st.N(), ForestConfig{})
	if err := st.Replay(func(u Update) error { want.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := Build(context.Background(), st, ForestTarget{Seed: 913}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("workers=%d: sketch state differs from serial ingest (bit-level)", workers)
		}
	}
}

func TestBuildKConnectivityEquivalence(t *testing.T) {
	_, st := buildTestStream(28, 0.25, 80, 914)
	want := NewKConnectivity(915, st.N(), 2)
	if err := st.Replay(func(u Update) error { want.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(context.Background(), st, KConnectivityTarget{Seed: 915, K: 2}, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("parallel k-connectivity state differs from serial ingest (bit-level)")
	}
}

func TestBuildMSFAndBipartiteness(t *testing.T) {
	// MSF: auto-scan (2 passes) vs explicit WMax (1 pass) must agree.
	// n odd, so the closing edge makes an odd (non-bipartite) cycle.
	n := 13
	ms := NewMemoryStream(n)
	for i := 0; i < n-1; i++ {
		if err := ms.Append(Update{U: i, V: i + 1, Delta: 1, W: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ms.Append(Update{U: 0, V: n - 1, Delta: 1, W: 30}); err != nil {
		t.Fatal(err)
	}
	scan, err := Build(context.Background(), ms, MSFTarget{Seed: 916, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	expl, err := Build(context.Background(), ms, MSFTarget{Seed: 916, WMax: 30, Gamma: 0.5}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	fa, err := scan.Forest()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := expl.Forest()
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != len(fb) {
		t.Fatalf("msf forests differ: %d vs %d edges", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("msf forest edge %d: %+v vs %+v", i, fa[i], fb[i])
		}
	}

	// Bipartiteness through the driver.
	b, err := Build(context.Background(), ms, BipartitenessTarget{Seed: 917}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	bip, err := b.IsBipartite()
	if err != nil {
		t.Fatal(err)
	}
	if bip {
		t.Fatal("odd cycle reported bipartite")
	}
}

// ---------------------------------------------------------------------
// Options validation: one typed gate.

// TestSparsifierBadConfig: a negative count or a δ outside [0, 1) is a
// typed refusal from Build and Open, not a panic in the grid's layout.
func TestSparsifierBadConfig(t *testing.T) {
	_, st := buildTestStream(10, 0.4, 0, 919)
	for name, cfg := range map[string]SparsifierConfig{
		"Z=-1":      {Z: -1},
		"H=-1":      {H: -1},
		"J=-1":      {Estimate: EstimateConfig{J: -1}},
		"T=-1":      {Estimate: EstimateConfig{T: -1}},
		"Delta=-1":  {Estimate: EstimateConfig{Delta: -1}},
		"Delta=1":   {Estimate: EstimateConfig{Delta: 1}},
		"Delta=NaN": {Estimate: EstimateConfig{Delta: math.NaN()}},
	} {
		target := SparsifierTarget{Config: cfg}
		if _, err := Build(context.Background(), st, target); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Build %s: err = %v, want ErrBadConfig", name, err)
		}
		if _, err := Open(context.Background(), st, target); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Open %s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestWeightParamsBadConfig: a class base outside (1, +Inf), a
// non-finite MSF Gamma or WMax, and an MSF weight range with more
// classes than its decoder accepts are typed refusals from Build and
// Open — not a spanner with NaN weights, a checkpoint that cannot be
// restored, or millions of class sketches.
func TestWeightParamsBadConfig(t *testing.T) {
	_, st := buildTestStream(10, 0.4, 0, 930)
	heavy := NewMemoryStream(4)
	if err := heavy.Append(Update{U: 0, V: 1, Delta: 1, W: 1e6}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, base := range []float64{math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprintf("classBase=%v", base), func(t *testing.T) {
			if _, err := Build(ctx, st, SpannerTarget{Config: SpannerConfig{K: 2}}, WithWeightClasses(base)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("spanner: err = %v, want ErrBadConfig", err)
			}
			if _, err := Build(ctx, st, SparsifierTarget{}, WithWeightClasses(base)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("sparsifier: err = %v, want ErrBadConfig", err)
			}
		})
	}
	for name, c := range map[string]struct {
		target MSFTarget
		src    *MemoryStream
	}{
		"Gamma=NaN":        {MSFTarget{WMax: 8, Gamma: math.NaN()}, st},
		"Gamma=+Inf":       {MSFTarget{WMax: 8, Gamma: math.Inf(1)}, st},
		"Gamma=-Inf":       {MSFTarget{WMax: 8, Gamma: math.Inf(-1)}, st},
		"WMax=NaN":         {MSFTarget{WMax: math.NaN()}, st},
		"WMax=+Inf":        {MSFTarget{WMax: math.Inf(1)}, st},
		"WMax=-Inf":        {MSFTarget{WMax: math.Inf(-1)}, st},
		"classes/explicit": {MSFTarget{WMax: 8, Gamma: 1e-7}, st},
		"classes/scanned":  {MSFTarget{Gamma: 1e-5}, heavy},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Build(ctx, c.src, c.target, WithWorkers(2)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Build: err = %v, want ErrBadConfig", err)
			}
			if _, err := Open(ctx, c.src, c.target); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Open: err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestConfigsTheDecoderRefuses: a negative count, a non-finite factor,
// or a configuration whose state the target's own decoder would refuse
// is a typed refusal from Build and Open — not a panic, an allocation
// sized from the bad field, or a handle whose checkpoint Restore
// rejects. The accepted rows sit on the bounds and must round-trip
// through Checkpoint and Restore.
func TestConfigsTheDecoderRefuses(t *testing.T) {
	_, st := buildTestStream(12, 0.4, 0, 940)
	nan, inf := math.NaN(), math.Inf(1)
	for name, check := range map[string]func(*testing.T, *MemoryStream){
		"forest/Rounds=-1":                refuses(ForestTarget{Config: ForestConfig{Rounds: -1}}),
		"forest/Rounds=300":               refuses(ForestTarget{Config: ForestConfig{Rounds: 300}}),
		"forest/PerLevel=-1":              refuses(ForestTarget{Config: ForestConfig{PerLevel: -1}}),
		"forest/PerLevel=6":               refuses(ForestTarget{Config: ForestConfig{PerLevel: 6}}),
		"additive/D=100":                  refuses(AdditiveTarget{Config: AdditiveConfig{D: 100}}),
		"additive/D=-1":                   refuses(AdditiveTarget{Config: AdditiveConfig{D: -1}}),
		"additive/DegreeFactor=-1":        refuses(AdditiveTarget{Config: AdditiveConfig{DegreeFactor: -1}}),
		"additive/DegreeFactor=NaN":       refuses(AdditiveTarget{Config: AdditiveConfig{DegreeFactor: nan}}),
		"additive/DegreeFactor=+Inf":      refuses(AdditiveTarget{Config: AdditiveConfig{DegreeFactor: inf}}),
		"additive/DegreeFactor=1e9":       refuses(AdditiveTarget{Config: AdditiveConfig{DegreeFactor: 1e9}}),
		"additive/CenterFactor=NaN":       refuses(AdditiveTarget{Config: AdditiveConfig{CenterFactor: nan}}),
		"additive/CenterFactor=+Inf":      refuses(AdditiveTarget{Config: AdditiveConfig{CenterFactor: inf}}),
		"spanner/K=100":                   refuses(SpannerTarget{Config: SpannerConfig{K: 100}}),
		"spanner/K=-3":                    refuses(SpannerTarget{Config: SpannerConfig{K: -3}}),
		"spanner/TableFactor=NaN":         refuses(SpannerTarget{Config: SpannerConfig{K: 2, TableFactor: nan}}),
		"spanner/TableFactor=+Inf":        refuses(SpannerTarget{Config: SpannerConfig{K: 2, TableFactor: inf}}),
		"kcert/K=-3":                      refuses(KConnectivityTarget{K: -3}),
		"kcert/K=70000":                   refuses(KConnectivityTarget{K: 70000}),
		"accept/forest/Rounds=256":        roundTrips(ForestTarget{Config: ForestConfig{Rounds: 256}}),
		"accept/forest/PerLevel=5":        roundTrips(ForestTarget{Config: ForestConfig{PerLevel: 5}}),
		"accept/additive/D=n":             roundTrips(AdditiveTarget{Config: AdditiveConfig{D: 12}}),
		"accept/additive/CenterFactor=-1": roundTrips(AdditiveTarget{Config: AdditiveConfig{CenterFactor: -1}}),
		"accept/spanner/K=64":             roundTrips(SpannerTarget{Config: SpannerConfig{K: 64}}),
		"accept/kcert/K=0":                roundTrips(KConnectivityTarget{}),
	} {
		t.Run(name, func(t *testing.T) { check(t, st) })
	}
}

// refuses checks that Build and Open refuse target with ErrBadConfig.
func refuses[R any](target Target[R]) func(*testing.T, *MemoryStream) {
	return func(t *testing.T, st *MemoryStream) {
		ctx := context.Background()
		if _, err := Build(ctx, st, target); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Build: err = %v, want ErrBadConfig", err)
		}
		if _, err := Open(ctx, st, target); !errors.Is(err, ErrBadConfig) {
			t.Errorf("Open: err = %v, want ErrBadConfig", err)
		}
	}
}

// roundTrips checks that Build accepts target and that an Open handle's
// checkpoint restores.
func roundTrips[R any](target Target[R]) func(*testing.T, *MemoryStream) {
	return func(t *testing.T, st *MemoryStream) {
		ctx := context.Background()
		if _, err := Build(ctx, st, target); err != nil {
			t.Fatalf("Build: %v", err)
		}
		h, err := Open(ctx, st, target)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var snap bytes.Buffer
		if err := h.Checkpoint(&snap); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if _, err := Restore(ctx, &snap, st, target); err != nil {
			t.Errorf("Restore: %v", err)
		}
	}
}

func TestBuildOptionValidation(t *testing.T) {
	_, st := buildTestStream(10, 0.4, 0, 918)
	if _, err := Build(context.Background(), st, SpannerTarget{}, WithWorkers(0)); !errors.Is(err, ErrBadWorkers) {
		t.Errorf("workers=0: err = %v, want ErrBadWorkers", err)
	}
	if _, err := Build(context.Background(), st, SpannerTarget{}, WithWorkers(-2)); !errors.Is(err, ErrBadWorkers) {
		t.Errorf("workers=-2: err = %v, want ErrBadWorkers", err)
	}
	if _, err := Build(context.Background(), st, SpannerTarget{}, WithBatchSize(-1)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("batch=-1: err = %v, want ErrBadConfig", err)
	}
	if _, err := Build(context.Background(), st, SpannerTarget{}, WithWeightClasses(1.0)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("classBase=1: err = %v, want ErrBadConfig", err)
	}
	if _, err := Build(context.Background(), st, ForestTarget{}, WithWeightClasses(2.0)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("forest+classes: err = %v, want ErrBadConfig", err)
	}
	if _, err := Build[*ForestSketch](context.Background(), st, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil target: err = %v, want ErrBadConfig", err)
	}
	if _, err := Build(context.Background(), nil, ForestTarget{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil source: err = %v, want ErrBadConfig", err)
	}

	// Multi-pass target over a single-shot source: typed refusal.
	ch := make(chan Update)
	close(ch)
	if _, err := Build(context.Background(), NewChannelSource(4, ch), SpannerTarget{}); !errors.Is(err, ErrNotReplayable) {
		t.Errorf("spanner over channel: err = %v, want ErrNotReplayable", err)
	}
}

// TestBuildBatchSizeInvariance: batching is an execution knob only.
func TestBuildBatchSizeInvariance(t *testing.T) {
	_, st := buildTestStream(40, 0.15, 100, 919)
	var ref []byte
	for _, b := range []int{0, 1, 7, 1024} {
		sk, err := Build(context.Background(), st, ForestTarget{Seed: 920},
			WithWorkers(2), WithBatchSize(b))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = enc
		} else if !bytes.Equal(ref, enc) {
			t.Fatalf("batch=%d changed the sketch state", b)
		}
	}
}

// ---------------------------------------------------------------------
// Context cancellation: a mid-ingest cancel returns ctx.Err() promptly
// on every execution path, with no goroutine leak (run under -race).

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d now vs baseline %d", runtime.NumGoroutine(), baseline)
}

func TestBuildCancellationSerialAndSharded(t *testing.T) {
	_, st := buildTestStream(60, 0.15, 4000, 921)
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var calls int64
		_, err := Build(ctx, st, ForestTarget{Seed: 922},
			WithWorkers(workers), WithBatchSize(16),
			WithProgress(func(int64) {
				if atomic.AddInt64(&calls, 1) == 2 {
					cancel() // cancel mid-ingest, from inside the pipeline
				}
			}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		waitGoroutines(t, baseline)
	}
}

func TestBuildCancellationFanout(t *testing.T) {
	// A channel source is read once, into the build's one state.
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan Update, 4096)
	for i := 0; i < 4000; i++ {
		ch <- Update{U: i % 50, V: (i + 1 + i%7) % 50, Delta: 1}
	}
	close(ch)
	var calls int64
	_, err := Build(ctx, NewChannelSource(50, ch), AdditiveTarget{Config: AdditiveConfig{D: 2, Seed: 923}},
		WithWorkers(3), WithBatchSize(16),
		WithProgress(func(int64) {
			if atomic.AddInt64(&calls, 1) == 2 {
				cancel()
			}
		}))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fanout cancel: err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}

func TestBuildCancellationSparsifier(t *testing.T) {
	// Cancellation must propagate into the sparsifier's inner builds.
	g := graph.Complete(10)
	st := StreamFromGraph(g, 924)
	cfg := SparsifierConfig{
		K: 1, Z: 4, Seed: 925,
		Estimate: EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 926},
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the build starts: must fail fast
	if _, err := Build(ctx, st, SparsifierTarget{Config: cfg}, WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("sparsifier cancel: err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}

// ---------------------------------------------------------------------
// ReaderSource parity: the same bytes produce bit-identical sketch
// state whether they are streamed (text or binary, at one worker or
// several) or first materialized.

func TestReaderSourceSketchParity(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.15, 927)
	ms := StreamWithChurn(g, 300, 928)

	var text, bin bytes.Buffer
	if err := WriteTextStream(&text, ms); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryStream(&bin, ms); err != nil {
		t.Fatal(err)
	}

	want, err := Build(context.Background(), ms, ForestTarget{Seed: 929}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		r    io.Reader
		w    int
	}{
		{"text/seekable/serial", strings.NewReader(text.String()), 1},
		{"binary/seekable/serial", bytes.NewReader(bin.Bytes()), 1},
		{"text/pipe/serial", io.MultiReader(strings.NewReader(text.String())), 1},
		{"binary/pipe/workers3", io.MultiReader(bytes.NewReader(bin.Bytes())), 3},
	}
	for _, tc := range cases {
		src, err := NewReaderSource(tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := Build(context.Background(), src, ForestTarget{Seed: 929}, WithWorkers(tc.w))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: sketch state differs from materialized ingest", tc.name)
		}
	}
}

// ---------------------------------------------------------------------
// Constant-memory pipe ingest: a long synthetic pipe must not grow the
// heap anywhere near the materialized stream's size.

// syntheticPipe generates the binary wire format on the fly: header
// plus `count` pseudo-random updates, never holding more than one
// record in memory. It is deliberately NOT a Seeker.
type syntheticPipe struct {
	n     int
	count int
	pos   int // updates emitted
	buf   []byte
	off   int
	state uint64
}

func newSyntheticPipe(n, count int) *syntheticPipe {
	p := &syntheticPipe{n: n, count: count, state: 0x9e3779b97f4a7c15}
	var hdr [16]byte
	copy(hdr[:8], "DSTRMv1\n")
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	p.buf = hdr[:]
	return p
}

func (p *syntheticPipe) next() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state
}

func (p *syntheticPipe) Read(b []byte) (int, error) {
	total := 0
	for total < len(b) {
		if p.off == len(p.buf) {
			if p.pos == p.count {
				if total == 0 {
					return 0, io.EOF
				}
				return total, nil
			}
			u := int(p.next() % uint64(p.n))
			v := int(p.next() % uint64(p.n))
			if u == v {
				v = (v + 1) % p.n
			}
			var rec [20]byte
			binary.LittleEndian.PutUint32(rec[0:4], uint32(u))
			binary.LittleEndian.PutUint32(rec[4:8], uint32(v))
			binary.LittleEndian.PutUint32(rec[8:12], 1)
			binary.LittleEndian.PutUint64(rec[12:20], math.Float64bits(1))
			p.buf, p.off = rec[:], 0
			p.pos++
		}
		c := copy(b[total:], p.buf[p.off:])
		p.off += c
		total += c
	}
	return total, nil
}

func TestPipeIngestConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profile test skipped in -short mode")
	}
	const n = 64
	count := 400_000 // materialized: ~12.8 MB of updates; sketch: ~1 MB

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	src, err := NewReaderSource(newSyntheticPipe(n, count))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Build(context.Background(), src, ForestTarget{Seed: 930})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// O(sketch) bound: generous 8 MB ceiling, far below the ~12.8 MB a
	// materialized []Update alone would pin (32 bytes x 400k).
	if grown > 8<<20 {
		t.Fatalf("heap grew by %d bytes ingesting a %d-update pipe (want O(sketch))", grown, count)
	}
	if sk.SpaceWords() == 0 {
		t.Fatal("sketch is empty")
	}
}

// TestWeightClassBaseNearOne: a class base just above 1 passes
// WithWeightClasses and an MSF Gamma just above 0 passes MSFClassesFit,
// but a weight of 2 is then ≈ 7·10¹¹ classes up, a count the class loop
// once spent dividing. The weighted spanner and sparsifier refuse the
// stream with ErrTooManyClasses, and the MSF files the weight under its
// top class, all within a second.
func TestWeightClassBaseNearOne(t *testing.T) {
	st := NewMemoryStream(4)
	for _, u := range []Update{{U: 0, V: 1, Delta: 1, W: 1}, {U: 1, V: 2, Delta: 1, W: 2}, {U: 2, V: 3, Delta: 1, W: 1.5}} {
		if err := st.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		const base = 1 + 1e-12
		if _, err := Build(ctx, st, SpannerTarget{Config: SpannerConfig{K: 2}}, WithWeightClasses(base)); !errors.Is(err, ErrTooManyClasses) {
			t.Errorf("spanner: err = %v, want ErrTooManyClasses", err)
		}
		if _, err := Build(ctx, st, SparsifierTarget{}, WithWeightClasses(base)); !errors.Is(err, ErrTooManyClasses) {
			t.Errorf("sparsifier: err = %v, want ErrTooManyClasses", err)
		}
		m, err := Build(ctx, st, MSFTarget{WMax: 1, Gamma: 1e-12})
		if err != nil {
			t.Errorf("MSF: %v", err)
			return
		}
		forest, err := m.Forest()
		if err != nil {
			t.Errorf("MSF forest: %v", err)
			return
		}
		if got := len(forest); got != 3 {
			t.Errorf("MSF of a path on 4 vertices: %d edges, want 3", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("weights at a class base of 1 + 1e-12: no answer within a second")
	}
}
