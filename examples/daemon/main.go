// The daemon, end to end and in-process: an HTTP sketch server over a
// live forest handle, queried while a feed streams updates into it,
// checkpointed, drained, and restored — every piece the dynstreamd
// binary wires together, small enough to read in one sitting.
//
// Queries under concurrent ingest are batch-boundary consistent: each
// response carries the applied-update count it observed, and an
// offline Build over exactly that prefix reproduces it bit for bit
// (that identity is linearity — sketches of update batches sum).
//
// Run: go run ./examples/daemon
// For the two-process version (real dynstreamd + client binaries) see
// run.sh next to this file.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/serve"
)

func main() {
	const (
		n    = 200
		m    = 4000
		seed = 42
	)
	ctx := context.Background()

	// A scripted update stream: inserts with a sprinkle of deletes.
	g := graph.ConnectedGNP(n, 0.05, seed)
	var log_ []dynstream.Update
	for _, e := range g.Edges() {
		log_ = append(log_, dynstream.Update{U: e.U, V: e.V, W: 1, Delta: 1})
		if (e.U+e.V)%7 == 0 { // insert, then delete again: net zero
			log_ = append(log_, dynstream.Update{U: e.U, V: e.V, W: 1, Delta: -1},
				dynstream.Update{U: e.U, V: e.V, W: 1, Delta: 1})
		}
	}
	if len(log_) > m {
		log_ = log_[:m]
	}

	// 1. Open the live backend and the HTTP server around it.
	backend, _, _, err := serve.OpenBackend(ctx, serve.Spec{Target: "forest", N: n, Seed: seed}, "")
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "dynstreamd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "forest.ckpt")
	srv, err := serve.NewServer([]serve.Backend{backend}, serve.ServerConfig{Checkpoint: ckpt})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := srv.HTTPServer()
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon listening on %s (forest, n=%d)\n", base, n)

	// 2. Feed updates through IngestFeed — the daemon's stdin path —
	// while a client queries over HTTP mid-stream.
	pr, pw := io.Pipe()
	feedDone := make(chan error, 1)
	go func() { feedDone <- srv.IngestFeed(ctx, pr, 64) }()
	go func() {
		for _, u := range log_ {
			op := "+"
			if u.Delta < 0 {
				op = "-"
			}
			fmt.Fprintf(pw, "%s %d %d\n", op, u.U, u.V)
		}
		pw.Close()
	}()

	query := func() serve.QueryResponse {
		resp, err := http.Get(base + "/v1/query")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var qr serve.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			log.Fatal(err)
		}
		return qr
	}
	mid := query()
	fmt.Printf("mid-stream query: %s at applied=%d\n", mid.Summary, mid.Applied)

	// The mid-stream snapshot is exact: offline Build over the same
	// prefix answers identically.
	if !reflect.DeepEqual(offlineEdges(ctx, n, log_[:mid.Applied], seed), edgesOf(mid)) {
		log.Fatal("mid-stream query diverged from offline build")
	}
	fmt.Printf("  = offline Build over those %d updates, bit for bit\n", mid.Applied)

	if err := <-feedDone; err != nil {
		log.Fatal(err)
	}
	final := query()
	fmt.Printf("final query:      %s at applied=%d\n", final.Summary, final.Applied)

	// 3. Drain: reject updates, write the final checkpoint, stop HTTP.
	if err := srv.Drain(); err != nil {
		log.Fatal(err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drained; final checkpoint at %s\n", ckpt)

	// 4. A fresh process restores the checkpoint and answers the same.
	restoredBackend, restored, _, err := serve.OpenBackend(ctx,
		serve.Spec{Target: "forest", N: n, Seed: seed}, ckpt)
	if err != nil {
		log.Fatal(err)
	}
	again, err := restoredBackend.Query(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(edgesOf(final), edgesOf(*again)) {
		log.Fatal("restored daemon answered differently")
	}
	fmt.Printf("restored from checkpoint (%d updates applied): identical answer\n", restored)
}

func edgesOf(qr serve.QueryResponse) []serve.EdgeJSON {
	if qr.Edges == nil {
		return []serve.EdgeJSON{}
	}
	return qr.Edges
}

// offlineEdges is the ground truth: a from-scratch Build over a fixed
// update prefix, rendered the same way the daemon renders.
func offlineEdges(ctx context.Context, n int, log_ []dynstream.Update, seed uint64) []serve.EdgeJSON {
	ms := dynstream.NewMemoryStream(n)
	for _, u := range log_ {
		if err := ms.Append(u); err != nil {
			log.Fatal(err)
		}
	}
	sk, err := dynstream.Build(ctx, ms, dynstream.ForestTarget{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	forest, err := sk.SpanningForest(nil)
	if err != nil {
		log.Fatal(err)
	}
	fg := graph.New(n)
	for _, e := range forest {
		fg.AddUnitEdge(e.U, e.V)
	}
	out := []serve.EdgeJSON{}
	for _, e := range fg.Edges() {
		out = append(out, serve.EdgeJSON{U: e.U, V: e.V, W: e.W})
	}
	return out
}
