// Command dynstreamd is the resident sketch-serving daemon: it owns
// one or more live build handles (any of the seven targets, all over
// the same vertex set), ingests a continuous update feed, and serves
// online queries to many concurrent HTTP clients.
//
//	dynstreamd -n 10000 -target forest,bipartite -listen 127.0.0.1:8080 < updates.txt
//
// Endpoints:
//
//	POST /v1/update      apply a batch (JSON {"updates":[...]} or text update lines)
//	GET  /v1/query       extract the current result (?target= with several targets)
//	GET  /v1/status      applied counts, cache stats, uptime
//	POST /v1/checkpoint  force a snapshot now
//	GET  /healthz        liveness (always 200 while the process serves)
//	GET  /readyz         readiness (503 once draining)
//	GET  /metrics        Prometheus text format
//
// The feed (-feed) runs alongside the HTTP API:
//
//	stdin        update lines on standard input (default)
//	none         HTTP updates only
//	tcp:ADDR     listen on ADDR; every connection streams update lines
//	unix:PATH    same, over a unix socket
//	tail:FILE    follow FILE, ingesting lines as they are appended
//
// Every flag also reads a DYNSTREAM_* environment variable (flag wins):
// -feed-batch ⇔ DYNSTREAM_FEED_BATCH, and so on.
//
// With -checkpoint PATH -every N the daemon snapshots its live state
// atomically every N updates and restores from the latest valid
// snapshot at startup (the feed should then resume past the restored
// AppliedUpdates count, printed at startup). On SIGTERM/SIGINT the
// daemon drains gracefully: updates are rejected (503, /readyz turns
// 503), in-flight batches flush, a final checkpoint is written, open
// query connections finish, and the process exits 0.
//
// Queries under concurrent ingest are batch-boundary consistent: the
// result and its applied-update count are read under one hold of the
// handle's mutex, so an offline build over exactly that stream prefix
// reproduces the response bit for bit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux, exposed only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynstream"
	"dynstream/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr, os.LookupEnv))
}

// run is the daemon lifecycle; factored from main (and re-entered by
// the test binary) so process tests can drive it. Returns the exit
// code: 0 after a clean drain, 1 on error.
func run(args []string, stdin io.Reader, stderr io.Writer, lookupEnv func(string) (string, bool)) int {
	fs := flag.NewFlagSet("dynstreamd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		targets   = fs.String("target", "forest", "comma-separated targets to serve (forest|kcert|bipartite|msf|spanner|additive|sparsify)")
		nFlag     = fs.Int("n", 0, "vertex count (required, >= 1)")
		k         = fs.Int("k", 2, "stretch/connectivity parameter (>= 1)")
		d         = fs.Int("d", 4, "additive spanner space parameter (>= 1)")
		z         = fs.Int("z", 32, "sparsifier repetitions (>= 1)")
		seed      = fs.Uint64("seed", 1, "random seed")
		wmax      = fs.Float64("wmax", 0, "msf: weight upper bound (required for msf)")
		workers   = fs.Int("workers", 1, "concurrent ingest workers (>= 1)")
		decodeW   = fs.Int("decodeworkers", 0, "concurrent decode workers of the sparsifier's per-cell decode and a remote build's state decode (0 = follow -workers)")
		batch     = fs.Int("batch", 0, "handle ingest batch size (0 = default)")
		feed      = fs.String("feed", "stdin", "update feed: stdin|none|tcp:ADDR|unix:PATH|tail:FILE")
		feedBatch = fs.Int("feed-batch", 256, "feed lines per applied batch (>= 1)")
		ckpt      = fs.String("checkpoint", "", "snapshot path (atomic rename; .<target> suffix per target when serving several)")
		every     = fs.Int("every", 0, "auto-snapshot after this many admitted updates (with -checkpoint)")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		slowQ     = fs.Duration("slow-query", 0, "log queries slower than this threshold (0 = disabled)")
		quiet     = fs.Bool("q", false, "suppress operational log lines")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dynstreamd:", err)
		return 1
	}
	if err := serve.ApplyEnv(fs, lookupEnv); err != nil {
		return fail(err)
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fail(fmt.Errorf("unexpected arguments after flags: %v", extra))
	}
	names := strings.Split(*targets, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	switch {
	case *nFlag < 1:
		return fail(fmt.Errorf("-n is required (vertex count >= 1): %w", dynstream.ErrBadConfig))
	case *k < 1 || *d < 1 || *z < 1:
		return fail(fmt.Errorf("-k/-d/-z must be >= 1: %w", dynstream.ErrBadConfig))
	case *feedBatch < 1:
		return fail(fmt.Errorf("-feed-batch must be >= 1, got %d: %w", *feedBatch, dynstream.ErrBadConfig))
	case *every < 0:
		return fail(fmt.Errorf("-every must be >= 0, got %d: %w", *every, dynstream.ErrBadConfig))
	case *every > 0 && *ckpt == "":
		return fail(fmt.Errorf("-every needs -checkpoint: %w", dynstream.ErrBadConfig))
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "dynstreamd: "+format+"\n", a...) }
	if *quiet {
		logf = func(string, ...any) {}
	}

	// SIGTERM/SIGINT trigger the graceful drain (not an abort): the
	// signal context only gates startup and the feed loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One tracer observes every backend's pipeline phases (ingest,
	// decode, query, checkpoint) and bridges them into the
	// /metrics phase histograms. The server doesn't exist yet while
	// backends open/restore — phases fired before it does are kept in
	// the tracer's aggregates but skipped by the bridge (same
	// goroutine, so the nil check is race-free).
	tr := dynstream.NewTracer()
	var srv *serve.Server
	tr.OnSpanEnd(func(e dynstream.TraceEvent) {
		if srv != nil {
			srv.Metrics().ObserveSpan(e)
		}
	})

	// Open (or restore) every target over an empty n-vertex base graph.
	ckptPaths := serve.CheckpointPathsFor(*ckpt, names)
	backends := make([]serve.Backend, 0, len(names))
	for _, name := range names {
		spec := serve.Spec{
			Target: name, N: *nFlag, K: *k, D: *d, Z: *z, Seed: *seed, WMax: *wmax,
			Workers: *workers, DecodeWorkers: *decodeW, Batch: *batch, Tracer: tr,
		}
		b, restored, note, err := serve.OpenBackend(ctx, spec, ckptPaths[name])
		if err != nil {
			return fail(fmt.Errorf("open %s: %w", name, err))
		}
		if note != "" {
			logf("%s: %s", name, note)
		}
		if restored >= 0 {
			logf("%s: restored from %s (%d updates applied)", name, ckptPaths[name], restored)
		}
		backends = append(backends, b)
	}
	srv, err := serve.NewServer(backends, serve.ServerConfig{
		Checkpoint: *ckpt, Every: *every, Logf: logf, SlowQuery: *slowQ,
	})
	if err != nil {
		return fail(err)
	}

	// pprof serves on its own listener so profiling never shares a port
	// (or an exposure decision) with the query API.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fail(fmt.Errorf("pprof listen: %w", err))
		}
		defer pln.Close()
		logf("pprof listening on http://%s/debug/pprof/", pln.Addr())
		go http.Serve(pln, nil) // DefaultServeMux carries net/http/pprof
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	// The actual address (for -listen :0) on stderr, where process
	// tests and scripts pick it up.
	fmt.Fprintf(stderr, "dynstreamd: listening on http://%s (targets %s, n=%d)\n",
		ln.Addr(), strings.Join(names, ","), *nFlag)

	httpSrv := srv.HTTPServer()
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	// The feed runs until EOF, error, or drain. feedDone carries its
	// verdict (nil channel when no feed runs — receives then block
	// forever, which is what the select below wants); feedClose
	// unblocks blocking readers at drain time.
	var feedDone chan error
	if *feed != "none" {
		feedDone = make(chan error, 1)
	}
	feedClose, err := startFeed(ctx, srv, *feed, *feedBatch, stdin, logf, feedDone)
	if err != nil {
		return fail(err)
	}

	exit := 0
	select {
	case <-ctx.Done():
		logf("signal received, draining")
	case err := <-feedDone:
		feedDone = nil
		if err != nil && !errors.Is(err, context.Canceled) {
			logf("feed failed: %v", err)
			exit = 1
		} else {
			logf("feed finished, serving until signaled")
			select {
			case <-ctx.Done():
				logf("signal received, draining")
			case err := <-httpErr:
				return fail(err)
			}
		}
	case err := <-httpErr:
		return fail(err)
	}

	// Graceful drain: reject new updates, unblock and wait out the
	// feed, write the final checkpoint, then stop the HTTP server.
	if err := srv.Drain(); err != nil {
		logf("%v", err)
		exit = 1
	}
	if feedClose != nil {
		feedClose()
	}
	if feedDone != nil {
		select {
		case <-feedDone:
		case <-time.After(10 * time.Second):
			logf("feed did not stop within 10s")
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logf("http shutdown: %v", err)
		exit = 1
	}
	logf("drained, exiting")
	return exit
}

// startFeed launches the configured feed. It returns a closer that
// unblocks any blocking reads at drain time (nil when there is nothing
// to close); the feed's terminal error arrives on done.
func startFeed(ctx context.Context, srv *serve.Server, kind string, batch int,
	stdin io.Reader, logf func(string, ...any), done chan<- error) (func(), error) {
	switch {
	case kind == "none":
		// No feed: done never fires, the daemon serves HTTP only.
		return nil, nil

	case kind == "stdin":
		go func() { done <- srv.IngestFeed(ctx, stdin, batch) }()
		if c, ok := stdin.(io.Closer); ok {
			return func() { c.Close() }, nil
		}
		return nil, nil

	case strings.HasPrefix(kind, "tcp:"), strings.HasPrefix(kind, "unix:"):
		network, addr := "tcp", strings.TrimPrefix(kind, "tcp:")
		if strings.HasPrefix(kind, "unix:") {
			network, addr = "unix", strings.TrimPrefix(kind, "unix:")
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, fmt.Errorf("feed %s: %w", kind, err)
		}
		logf("feed listening on %s", ln.Addr())
		go func() {
			// Connections are served sequentially: the feed is one
			// logical stream, and a single producer at a time keeps
			// its ordering. Concurrent producers should POST
			// /v1/update instead.
			for {
				conn, err := ln.Accept()
				if err != nil {
					done <- nil // listener closed at drain
					return
				}
				if err := srv.IngestFeed(ctx, conn, batch); err != nil {
					conn.Close()
					done <- err
					return
				}
				conn.Close()
				if srv.Draining() || ctx.Err() != nil {
					done <- nil
					return
				}
			}
		}()
		return func() { ln.Close() }, nil

	case strings.HasPrefix(kind, "tail:"):
		path := strings.TrimPrefix(kind, "tail:")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("feed %s: %w", kind, err)
		}
		stopped := make(chan struct{})
		go func() {
			defer f.Close()
			done <- srv.IngestFeed(ctx, &tailReader{f: f, ctx: ctx, stop: stopped}, batch)
		}()
		return func() { close(stopped) }, nil

	default:
		return nil, fmt.Errorf("unknown -feed %q (want stdin|none|tcp:ADDR|unix:PATH|tail:FILE)", kind)
	}
}

// tailReader reads a file to EOF and then polls for appended data
// instead of reporting EOF — `tail -f` as an io.Reader. It reports EOF
// once the context is canceled or stop is closed.
type tailReader struct {
	f    *os.File
	ctx  context.Context
	stop <-chan struct{}
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-t.stop:
			return 0, io.EOF
		case <-time.After(100 * time.Millisecond):
		}
	}
}
