package dynstream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/dynnet"
	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// startWorkers launches n in-process protocol workers on unix sockets
// and returns their dialable addresses. Worker goroutines run the same
// ServeWorker loop as `dynstream worker` processes; the process-level
// equivalence lives in cmd/dynstream's tests.
func startWorkers(t *testing.T, ctx context.Context, n int) []string {
	t.Helper()
	dir, err := os.MkdirTemp("", "dynnet")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sock := filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go dynnet.ListenAndServeWorker(ctx, ln, dynnet.WorkerConfig{ID: fmt.Sprintf("w%d", i)})
		addrs[i] = "unix:" + sock
	}
	return addrs
}

func remoteTestStream(t *testing.T) *dynstream.MemoryStream {
	t.Helper()
	g := graph.ConnectedGNP(48, 0.12, 404)
	for i := 0; i < g.N(); i++ { // a weight spread for msf / weight classes
		g.AddEdge(i, (i+5)%g.N(), float64(1+i%7))
	}
	return dynstream.StreamWithChurn(g, 400, 405)
}

func edgesEqual(t *testing.T, what string, a, b *dynstream.Graph) {
	t.Helper()
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: edge count %d vs %d", what, len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d: %v vs %v", what, i, ae[i], be[i])
		}
	}
}

func marshalEqual(t *testing.T, what string, a, b interface{ MarshalBinary() ([]byte, error) }) {
	t.Helper()
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("%s: marshaled state differs (%d vs %d bytes)", what, len(ab), len(bb))
	}
}

// TestRemoteBuildMatchesSerial is the seeded equivalence gate of the
// multi-process path: every Build target over remote workers must
// produce byte-identical sketch state (or an identical decoded result)
// to the serial build.
func TestRemoteBuildMatchesSerial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st := remoteTestStream(t)
	addrs := startWorkers(t, ctx, 3)
	cluster, err := dynstream.DialWorkers(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	opts := func(extra ...dynstream.Option) []dynstream.Option {
		return append([]dynstream.Option{dynstream.WithRemoteCluster(cluster)}, extra...)
	}

	t.Run("forest", func(t *testing.T) {
		serial, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 11}, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		marshalEqual(t, "forest sketch", serial, remote)
	})

	t.Run("kconnectivity", func(t *testing.T) {
		target := dynstream.KConnectivityTarget{Seed: 12, K: 2}
		serial, err := dynstream.Build(ctx, st, target)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		marshalEqual(t, "k-connectivity sketch", serial, remote)
	})

	t.Run("bipartiteness", func(t *testing.T) {
		target := dynstream.BipartitenessTarget{Seed: 13}
		serial, err := dynstream.Build(ctx, st, target)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		marshalEqual(t, "bipartiteness sketch", serial, remote)
	})

	t.Run("msf", func(t *testing.T) {
		target := dynstream.MSFTarget{Seed: 14, Gamma: 0.5} // WMax=0: remote weight scan
		serial, err := dynstream.Build(ctx, st, target)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		marshalEqual(t, "msf sketch", serial, remote)
	})

	t.Run("additive", func(t *testing.T) {
		target := dynstream.AdditiveTarget{Config: dynstream.AdditiveConfig{D: 3, Seed: 15}}
		serial, err := dynstream.Build(ctx, st, target)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "additive spanner", serial.Spanner, remote.Spanner)
	})

	t.Run("spanner", func(t *testing.T) {
		target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 16}}
		serial, err := dynstream.Build(ctx, st, target)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target, opts()...)
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "two-pass spanner", serial.Spanner, remote.Spanner)
	})

	t.Run("spanner-weight-classes", func(t *testing.T) {
		target := dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 17}}
		serial, err := dynstream.Build(ctx, st, target, dynstream.WithWeightClasses(2))
		if err != nil {
			t.Fatal(err)
		}
		remote, err := dynstream.Build(ctx, st, target, opts(dynstream.WithWeightClasses(2))...)
		if err != nil {
			t.Fatal(err)
		}
		edgesEqual(t, "weighted spanner", serial.Spanner, remote.Spanner)
	})

	t.Run("sparsifier", func(t *testing.T) {
		target := dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{
			K: 1, Z: 1, H: 4, Seed: 18,
			Estimate: dynstream.EstimateConfig{K: 1, J: 2, T: 4, Seed: 19},
		}}
		for _, classBase := range []float64{0, 2} {
			var classes []int
			if classBase != 0 {
				if classes, _, err = stream.WeightClasses(st, classBase); err != nil {
					t.Fatal(err)
				}
			}
			serial, err := dynstream.Build(ctx, st, target, dynstream.WithWeightClasses(classBase))
			if err != nil {
				t.Fatal(err)
			}
			tr := dynstream.NewTracer()
			out, in := cluster.BytesOnWire()
			remote, err := dynstream.Build(ctx, st, target, opts(dynstream.WithWeightClasses(classBase), dynstream.WithTracer(tr))...)
			if err != nil {
				t.Fatal(err)
			}
			edgesEqual(t, "sparsifier", serial.Sparsifier, remote.Sparsifier)
			// The oracle grid and the Z·H sample spanners are one grid:
			// one two-pass session per weight class.
			passes := 0
			for _, ph := range tr.Phases() {
				if strings.HasPrefix(ph.Phase, "dynnet/pass") {
					passes += int(ph.Count)
				}
			}
			out2, in2 := cluster.BytesOnWire()
			t.Logf("classBase %v: %d weight classes, %d dynnet passes, %d B out, %d B in", classBase, max(len(classes), 1), passes, out2-out, in2-in)
			if want := 2 * max(len(classes), 1); passes != want {
				t.Errorf("classBase %v: %d dynnet passes, want %d", classBase, passes, want)
			}
		}
	})

	out, in := cluster.BytesOnWire()
	if out == 0 || in == 0 {
		t.Fatalf("wire accounting reported %d out / %d in", out, in)
	}
	t.Logf("wire: %d B out, %d B in", out, in)
}

// TestRemoteOptionsGate pins the typed validation of the remote
// options at the Build front door.
func TestRemoteOptionsGate(t *testing.T) {
	ctx := context.Background()
	st := dynstream.NewMemoryStream(8)
	target := dynstream.ForestTarget{Seed: 1}

	if _, err := dynstream.Build(ctx, st, target, dynstream.WithRemoteWorkers()); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Errorf("empty WithRemoteWorkers: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Build(ctx, st, target, dynstream.WithWorkerShards()); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Errorf("WithWorkerShards without remote: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Build(ctx, st, target,
		dynstream.WithRemoteWorkers("nowhere.sock"),
		dynstream.WithRemoteCluster(&dynstream.RemoteCluster{})); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Errorf("remote workers + cluster: got %v, want ErrBadConfig", err)
	}
	if _, err := dynstream.Build(ctx, st, target,
		dynstream.WithRemoteWorkers("/nonexistent/worker.sock")); err == nil {
		t.Error("dialing a nonexistent worker succeeded")
	}
}

// TestRemoteWorkerShards runs the worker-local-shard topology: each
// worker ingests its own shard file; the coordinator only merges. The
// merged state must equal a serial build over the shard union.
func TestRemoteWorkerShards(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st := remoteTestStream(t)

	// Split the stream into 2 shard files, one per worker.
	dir, err := os.MkdirTemp("", "dynnetshard")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	shards, err := stream.Split(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.bin", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dynstream.WriteBinaryStream(f, sh); err != nil {
			t.Fatal(err)
		}
		f.Close()
		sf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		src, err := dynstream.NewReaderSource(sf)
		if err != nil {
			t.Fatal(err)
		}
		sock := filepath.Join(dir, fmt.Sprintf("w%d.sock", i))
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go dynnet.ListenAndServeWorker(ctx, ln, dynnet.WorkerConfig{
			ID: fmt.Sprintf("shard-worker-%d", i), Source: src,
		})
		addrs[i] = sock
	}

	serial, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	placeholder := dynstream.NewMemoryStream(st.N())
	remote, err := dynstream.Build(ctx, placeholder, dynstream.ForestTarget{Seed: 21},
		dynstream.WithRemoteWorkers(addrs...), dynstream.WithWorkerShards())
	if err != nil {
		t.Fatal(err)
	}
	marshalEqual(t, "worker-shard forest sketch", serial, remote)

	// Two-pass spanner over replayable shard files also works: each
	// worker replays its file once per pass.
	sp, err := dynstream.Build(ctx, st, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 22}})
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := dynstream.Build(ctx, placeholder, dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 22}},
		dynstream.WithRemoteWorkers(addrs...), dynstream.WithWorkerShards())
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, "worker-shard spanner", sp.Spanner, rsp.Spanner)

	// Targets that need the stream at the coordinator reject the mode
	// with a typed error.
	if _, err := dynstream.Build(ctx, placeholder,
		dynstream.SparsifierTarget{Config: dynstream.SparsifierConfig{K: 1, Z: 1, H: 2}},
		dynstream.WithRemoteWorkers(addrs...), dynstream.WithWorkerShards()); !errors.Is(err, dynstream.ErrBadConfig) {
		t.Errorf("sparsifier under WithWorkerShards: got %v, want ErrBadConfig", err)
	}
}

// TestRemoteWorkerShardNotReplayable is the probeSeek-style runtime
// gate over the wire: a worker whose local shard turns out to be a
// one-shot source must answer a second pass with a typed
// ErrNotReplayable ERROR frame instead of hanging the coordinator.
func TestRemoteWorkerShardNotReplayable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st := remoteTestStream(t)

	dir, err := os.MkdirTemp("", "dynnetpipe")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The worker's shard arrives through a pipe: statically a Reader,
	// never seekable — exactly one Replay is possible.
	pr, pw := io.Pipe()
	go func() {
		dynstream.WriteBinaryStream(pw, st)
		pw.Close()
	}()
	src, err := dynstream.NewReaderSource(pr)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "w.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go dynnet.ListenAndServeWorker(ctx, ln, dynnet.WorkerConfig{ID: "pipe-worker", Source: src})

	placeholder := dynstream.NewMemoryStream(st.N())
	_, err = dynstream.Build(ctx, placeholder,
		dynstream.SpannerTarget{Config: dynstream.SpannerConfig{K: 2, Seed: 23}},
		dynstream.WithRemoteWorkers(sock), dynstream.WithWorkerShards())
	if !errors.Is(err, dynstream.ErrNotReplayable) {
		t.Fatalf("second pass over a pipe-backed worker shard: got %v, want ErrNotReplayable", err)
	}
}

// TestRemoteCancel checks that canceling the coordinator context tears
// down the build promptly instead of leaving a pass wedged.
func TestRemoteCancel(t *testing.T) {
	bg, bgCancel := context.WithTimeout(context.Background(), time.Minute)
	defer bgCancel()
	st := remoteTestStream(t)
	addrs := startWorkers(t, bg, 2)

	ctx, cancel := context.WithCancel(bg)
	fired := false
	done := make(chan error, 1)
	go func() {
		_, err := dynstream.Build(ctx, st, dynstream.ForestTarget{Seed: 31},
			dynstream.WithRemoteWorkers(addrs...),
			dynstream.WithBatchSize(8),
			dynstream.WithProgress(func(int64) {
				if !fired {
					fired = true
					cancel()
				}
			}))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled build returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled build did not return (coordinator deadlock)")
	}
	cancel()
}
