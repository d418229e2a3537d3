package main

import (
	"fmt"
	"time"

	"dynstream"
	"dynstream/internal/serve"
)

// spanMetrics turns the spanned window's spans into serve-layer metrics.
func (s *serveRun) spanMetrics(spans []span) {
	r := s.r
	byID := make(map[int]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var backend, overhead []float64
	for _, sp := range spans {
		switch sp.Name {
		case "serve.backend_query":
			backend = append(backend, float64(sp.End-sp.Start)/1e6)
		case "serve.handler":
			if req, ok := byID[sp.Parent]; ok {
				overhead = append(overhead, float64((req.End-req.Start)-(sp.End-sp.Start))/1e6)
			}
		}
	}
	r.set("serve.backend_query_ms", median(backend))
	r.set("serve.http_overhead_ms", median(overhead))
	if total := wallMs(spans, "request"); total > 0 {
		r.set("trace.unattributed_pct", 100*selfMs(spans, "request")/total)
	}
}

// probes measures the layers under the daemon on twins fed the same
// updates: a live handle (the root package's layer, and through its
// sketch the agm layer) and a bare backend (the serve layer without
// HTTP), each queried after the workload's per-query churn.
func (s *serveRun) probes() error {
	r, in, spec := s.r, s.in, s.spec
	pipe := servePipe
	perQuery := spec.perQuery()
	perQuery -= perQuery % 2 // whole insert/delete steps
	// The twins start from the preload and take the churn log from its
	// beginning, in per-query chunks, as the daemon did.
	pos := 0
	next := func() []dynstream.Update {
		chunk := in.log[pos : pos+perQuery]
		pos += perQuery
		return chunk
	}
	warm := in.preload
	churn := next()
	h, err := probeHandle(s.ctx, r, in.n, warm, churn, pipe, 0, false)
	if err != nil {
		return err
	}
	inner, _, _, err := serve.OpenBackend(s.ctx, serve.Spec{Target: "forest", N: in.n, Seed: sketchSeed, Workers: pipe.workers}, "")
	if err != nil {
		return fmt.Errorf("twin backend: %w", err)
	}
	for i := 0; i < len(warm); i += preloadBatch {
		if err := inner.Apply(warm[i:min(i+preloadBatch, len(warm))]); err != nil {
			return fmt.Errorf("twin backend preload: %w", err)
		}
	}
	if err := inner.Apply(churn); err != nil {
		return fmt.Errorf("twin backend churn: %w", err)
	}
	if _, err := inner.Query(s.ctx); err != nil {
		return fmt.Errorf("twin backend query: %w", err)
	}
	var backendMs, handleMs []float64
	for i := 0; i < 5; i++ {
		chunk := next()
		if err := inner.Apply(chunk); err != nil {
			return fmt.Errorf("twin backend apply: %w", err)
		}
		t0 := time.Now()
		if _, err := inner.Query(s.ctx); err != nil {
			return fmt.Errorf("twin backend query: %w", err)
		}
		backendMs = append(backendMs, ms(time.Since(t0)))
		if err := h.Apply(chunk); err != nil {
			return fmt.Errorf("twin handle apply: %w", err)
		}
		_, d, err := forestQuery(s.ctx, h, pipe)
		if err != nil {
			return fmt.Errorf("twin handle query: %w", err)
		}
		handleMs = append(handleMs, d)
	}
	r.set("serve.render_ms", median(backendMs)-median(handleMs))
	r.note("render base: twin backend query %.2f ms − twin handle query+decode %.2f ms", median(backendMs), median(handleMs))
	inner = nil

	sk, err := h.Query(s.ctx)
	if err != nil {
		return fmt.Errorf("twin handle sketch: %w", err)
	}
	r.set("agm.space_words", float64(sk.SpaceWords()))
	if err := probeAgm(s.ctx, r, sk, in.preload, next(), pipe, false); err != nil {
		return err
	}
	st0 := dynstream.NewMemoryStream(in.n)
	for _, u := range in.preload {
		_ = st0.Append(u) // generated in range
	}
	probeKernels(r, in.n, st0)
	return nil
}
