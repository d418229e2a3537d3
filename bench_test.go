package dynstream

// Throughput benchmarks of the public surface: ingest at several worker
// counts, decode in isolation, the multi-process build, and live-handle
// re-queries. The paper's quantitative claims (stretch, size, space,
// additive error, spectral ε, decode rates) are not measured here; the
// Test…Guarantees tests of the internal packages pin them over seeds.
//
// Run: go test -run '^$' -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dynstream/internal/dynnet"
	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
)

const benchSeed = 0xbe7c

// benchHostJSON renders the host-metadata object BENCH_ingest.json
// records next to every tracked block: the GOMAXPROCS/NumCPU the
// numbers were measured under, the toolchain, and the commit. Tracked
// benchmarks log it so a recording session captures the block to paste
// verbatim.
func benchHostJSON() string {
	commit := "unknown"
	if data, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := string(bytes.TrimSpace(data))
		if rest, ok := bytes.CutPrefix([]byte(ref), []byte("ref: ")); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", string(bytes.TrimSpace(rest)))); err == nil && len(sha) >= 7 {
				commit = string(sha[:7])
			}
		} else if len(ref) >= 7 {
			commit = ref[:7]
		}
	}
	return fmt.Sprintf(`{ "gomaxprocs": %d, "numcpu": %d, "go": %q, "commit": %q }`,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// reportHost logs the host-metadata block once per tracked benchmark.
func reportHost(b *testing.B) {
	b.Helper()
	b.Logf("host: %s", benchHostJSON())
}

// BenchmarkParallelIngest measures the ingest of the five single-pass
// targets at 1/2/4/8 workers over one churn stream: Open ingests the
// stream exactly as Build does and stops before any decode. One state
// takes the whole stream, and its batch kernel routes each chunk on the
// workers and sweeps it in disjoint vertex ranges of the state, so the
// speedup tracked here is that kernel's. Output is identical across
// worker counts (linearity), which is asserted once per run by the
// handle's checkpoint bytes. The workload is ingest-dominated: a long
// churn stream over a small vertex set.
func BenchmarkParallelIngest(b *testing.B) {
	ctx := context.Background()
	g := graph.ConnectedGNP(64, 0.2, benchSeed+30)
	st := stream.WithChurn(g, 30000, benchSeed+31)
	seed := uint64(benchSeed + 32)
	type checkpointer interface{ Checkpoint(io.Writer) error }
	for _, tc := range []struct {
		name string
		open func(workers int) (checkpointer, error)
	}{
		{"forest", func(w int) (checkpointer, error) { return Open(ctx, st, ForestTarget{Seed: seed}, WithWorkers(w)) }},
		{"kconnectivity", func(w int) (checkpointer, error) {
			return Open(ctx, st, KConnectivityTarget{Seed: seed, K: 2}, WithWorkers(w))
		}},
		{"bipartiteness", func(w int) (checkpointer, error) {
			return Open(ctx, st, BipartitenessTarget{Seed: seed}, WithWorkers(w))
		}},
		{"msf", func(w int) (checkpointer, error) {
			return Open(ctx, st, MSFTarget{Seed: seed, WMax: 8, Gamma: 0.5}, WithWorkers(w))
		}},
		{"additive", func(w int) (checkpointer, error) {
			return Open(ctx, st, AdditiveTarget{Config: AdditiveConfig{D: 3, Seed: seed}}, WithWorkers(w))
		}},
	} {
		state := func(tb testing.TB, h checkpointer) []byte {
			var buf bytes.Buffer
			if err := h.Checkpoint(&buf); err != nil {
				tb.Fatal(err)
			}
			return buf.Bytes()
		}
		serial, err := tc.open(1)
		if err != nil {
			b.Fatal(err)
		}
		want := state(b, serial)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(b *testing.B) {
				var h checkpointer
				for i := 0; i < b.N; i++ {
					if h, err = tc.open(workers); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if !bytes.Equal(state(b, h), want) {
					b.Fatalf("workers=%d: state differs from the serial one", workers)
				}
				b.ReportMetric(float64(st.Len()*b.N)/b.Elapsed().Seconds(), "updates/s")
			})
		}
	}
}

// BenchmarkIngestThroughput is the ingest trajectory benchmark tracked
// in BENCH_ingest.json: updates/sec folding a churned dynamic stream
// into an AGM forest sketch, at n ∈ {1k, 10k} vertices and 1 or 4
// workers. It exercises the whole fast path of the batched ingest
// stack — fixed-base power tables, shared per-round L0 families with
// flattened cell storage, hint-routed endpoint updates, and batched
// shard replay. (The n=10k instance is construction-heavy: sketch
// allocation is part of what the trajectory tracks.)
func BenchmarkIngestThroughput(b *testing.B) {
	reportHost(b)
	for _, n := range []int{1000, 10000} {
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+40)
		st := stream.WithChurn(g, 20000, benchSeed+41)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n%d/workers%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Build(context.Background(), st, ForestTarget{Seed: benchSeed + 42}, WithWorkers(workers)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.Len()*b.N)/b.Elapsed().Seconds(), "updates/s")
			})
		}
	}
}

// BenchmarkDecodeThroughput is the decode trajectory benchmark tracked
// in BENCH_ingest.json: the extraction phase isolated from ingest.
// Forest and k-connectivity run the Borůvka-round decode at
// n ∈ {1k, 10k} (the certificate consumes its sketches, so each
// iteration restores them from a marshaled snapshot with the timer
// stopped); the two-pass spanner times EndPass1 cluster construction
// plus Finish table peeling at n=1k. Those decode on the calling
// goroutine, so they run at one worker. The sparsifier oracle grid
// times its per-cell extraction at n=256 at 1 vs NumCPU decode workers,
// the one local decode that fans out. Output is asserted identical
// across worker counts by the decode equivalence tests — here only the
// wall clock varies.
func BenchmarkDecodeThroughput(b *testing.B) {
	reportHost(b)

	for _, n := range []int{1000, 10000} {
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+60)
		st := stream.WithChurn(g, 20000, benchSeed+61)
		sk := NewForestSketch(benchSeed+62, n, ForestConfig{})
		if err := st.Replay(func(u stream.Update) error { sk.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("forest/n%d/decode1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.SpanningForestOpts(nil, parallel.Default()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
		})

		kc := NewKConnectivity(benchSeed+63, n, 2)
		if err := st.Replay(func(u stream.Update) error { kc.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		blob, err := kc.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kconn/n%d/decode1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := &KConnectivity{}
				if err := fresh.UnmarshalBinary(blob); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := fresh.CertificateOpts(parallel.Default()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
		})
	}

	{
		const n = 1000
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+64)
		st := stream.WithChurn(g, 10000, benchSeed+65)
		tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: benchSeed + 66})
		if err := stream.ReplayBatches(st, 0, tp.Pass1AddBatch); err != nil {
			b.Fatal(err)
		}
		blob, err := tp.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("spanner/n%d/decode1", n), func(b *testing.B) {
			p := parallel.Default()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := &spanner.TwoPass{}
				if err := fresh.UnmarshalBinary(blob); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := fresh.EndPass1Opts(p); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := stream.ReplayBatches(st, 0, fresh.Pass2AddBatch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := fresh.FinishOpts(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
		})
	}

	{
		const n = 256
		g := graph.ConnectedGNP(n, 6.0/float64(n), benchSeed+67)
		st := stream.WithChurn(g, 4000, benchSeed+68)
		cfg := sparsify.EstimateConfig{K: 2, J: 3, T: 8, Delta: 0.34, Seed: benchSeed + 69}
		g0, err := sparsify.NewGrid(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.ReplayBatches(st, 0, g0.Pass1AddBatch); err != nil {
			b.Fatal(err)
		}
		blob, err := g0.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		multi := runtime.NumCPU()
		if multi < 2 {
			multi = 4 // single-core host: the point still tracks fan-out overhead
		}
		for _, w := range []int{1, multi} {
			b.Run(fmt.Sprintf("sparsify/n%d/decode%d", n, w), func(b *testing.B) {
				p := parallel.Default().WithWorkers(w)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh := &sparsify.Grid{}
					if err := fresh.UnmarshalBinary(blob); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := fresh.EndPass1Opts(p); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := stream.ReplayBatches(st, 0, fresh.Pass2AddBatch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := fresh.FinishOpts(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
			})
		}
	}
}

// BenchmarkDistributedIngest measures the multi-process build path
// tracked in BENCH_ingest.json: updates/sec folding a churned dynamic
// stream into an AGM forest sketch across 1/2/4 protocol workers over
// unix sockets (in-process listeners speaking the full dynnet frame
// protocol — varint/CRC framing, compressed state blobs, shard
// streaming, and the coordinator merge). The result is asserted
// byte-identical to a local build once per worker count.
func BenchmarkDistributedIngest(b *testing.B) {
	reportHost(b)
	g := graph.ConnectedGNP(1000, 4.0/1000, benchSeed+50)
	st := stream.WithChurn(g, 50000, benchSeed+51)
	ctx := context.Background()
	local, err := Build(ctx, st, ForestTarget{Seed: benchSeed + 52})
	if err != nil {
		b.Fatal(err)
	}
	want, err := local.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "dynbench")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			addrs := make([]string, workers)
			for i := range addrs {
				addrs[i] = filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
				ln, err := net.Listen("unix", addrs[i])
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				go dynnet.ListenAndServeWorker(ctx, ln, dynnet.WorkerConfig{})
			}
			cluster, err := DialWorkers(ctx, addrs...)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			b.ResetTimer()
			var sk *ForestSketch
			for i := 0; i < b.N; i++ {
				sk, err = Build(ctx, st, ForestTarget{Seed: benchSeed + 52}, WithRemoteCluster(cluster))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			got, err := sk.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				b.Fatal("distributed state differs from local build")
			}
			b.ReportMetric(float64(st.Len()*b.N)/b.Elapsed().Seconds(), "updates/s")
			out, in := cluster.BytesOnWire()
			b.ReportMetric(float64(out+in)/float64(b.N), "wireB/op")
		})
	}
}

// BenchmarkParallelSpanner measures the end-to-end two-pass spanner
// with sharded concurrent passes at 1/2/4/8 workers.
func BenchmarkParallelSpanner(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.07, benchSeed+33)
	st := stream.WithChurn(g, 2*g.M(), benchSeed+34)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spanner.BuildTwoPassOpts(st, spanner.Config{K: 2, Seed: benchSeed + 35},
					parallel.Default().WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalQuery measures the live-handle query path
// tracked in the `incremental` block of BENCH_ingest.json: with the
// decode caches on, a re-query after a small churn batch re-decodes
// only the components (or cluster regions) the batch touched, vs the
// cold full decode a cache-free build pays. Churn batches insert
// fresh random edges and delete previously inserted ones, so the
// graph stays near its base shape while every batch dirties ~pct% of
// the edge set. The apply itself is untimed ingest; the metric is
// queries/sec.
func BenchmarkIncrementalQuery(b *testing.B) {
	reportHost(b)
	churn := func(rng *rand.Rand, n, k int, extra *[][2]int, apply func(u, v, delta int)) {
		del := k / 2
		if del > len(*extra) {
			del = len(*extra)
		}
		for j := 0; j < del; j++ {
			i := rng.Intn(len(*extra))
			e := (*extra)[i]
			(*extra)[i] = (*extra)[len(*extra)-1]
			*extra = (*extra)[:len(*extra)-1]
			apply(e[0], e[1], -1)
		}
		for j := 0; j < k-del; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			apply(u, v, 1)
			*extra = append(*extra, [2]int{u, v})
		}
	}

	for _, n := range []int{1000, 10000} {
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+80)
		st := stream.WithChurn(g, n, benchSeed+81)
		m := g.M()

		cold := NewForestSketch(benchSeed+82, n, ForestConfig{})
		if err := st.Replay(func(u stream.Update) error { cold.AddUpdate(u); return nil }); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("forest/n%d/cold", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cold.SpanningForest(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})

		// Churn levels in basis points of m: the speedup over a cold
		// decode scales inversely with batch size, because bit-identity
		// forces re-decoding every component the batch touched in every
		// Borůvka round.
		for _, lvl := range []struct {
			name string
			bp   int
		}{{"churn0.05pct", 5}, {"churn0.1pct", 10}, {"churn1pct", 100}, {"churn10pct", 1000}} {
			live := NewForestSketch(benchSeed+82, n, ForestConfig{})
			live.EnableDecodeCache(true)
			if err := st.Replay(func(u stream.Update) error { live.AddUpdate(u); return nil }); err != nil {
				b.Fatal(err)
			}
			if _, err := live.SpanningForest(nil); err != nil { // warm
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(benchSeed + 83)))
			var extra [][2]int
			b.Run(fmt.Sprintf("forest/n%d/%s", n, lvl.name), func(b *testing.B) {
				k := m * lvl.bp / 10000
				if k < 2 {
					k = 2
				}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					churn(rng, n, k, &extra, func(u, v, delta int) { live.AddEdge(u, v, int64(delta)) })
					b.StartTimer()
					if _, err := live.SpanningForest(nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}

	{
		const n = 1000
		g := graph.ConnectedGNP(n, 4.0/float64(n), benchSeed+84)
		st := stream.WithChurn(g, n, benchSeed+85)
		m := g.M()
		p := parallel.Default()
		{
			tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: benchSeed + 86})
			if err := tp.StartLive(st); err != nil {
				b.Fatal(err)
			}
			blob, err := tp.MarshalLive()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("spanner/n%d/cold", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// A restored state has empty caches and no tables: its
					// first query is a cold decode.
					b.StopTimer()
					cold := &spanner.TwoPass{}
					if err := cold.RestoreLive(st, blob); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := cold.QueryLive(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
		for _, pct := range []int{1, 10} {
			tp := spanner.NewTwoPass(n, spanner.Config{K: 2, Seed: benchSeed + 86})
			if err := tp.StartLive(st); err != nil {
				b.Fatal(err)
			}
			if _, err := tp.QueryLive(p); err != nil { // warm
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(benchSeed + 87)))
			var extra [][2]int
			b.Run(fmt.Sprintf("spanner/n%d/churn%dpct", n, pct), func(b *testing.B) {
				k := m * pct / 100
				if k < 2 {
					k = 2
				}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var batch []stream.Update
					churn(rng, n, k, &extra, func(u, v, delta int) {
						batch = append(batch, stream.Update{U: u, V: v, Delta: delta, W: 1})
					})
					if err := tp.ApplyLive(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := tp.QueryLive(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}
}
