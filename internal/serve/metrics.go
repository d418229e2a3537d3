package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynstream"
)

// Metrics is the daemon's hand-rolled metric registry, exposed on
// GET /metrics in the Prometheus text exposition format (the container
// has no client library, and the daemon needs only counters, gauges and
// one fixed-bucket histogram — ~100 lines beats a dependency).
type Metrics struct {
	start time.Time

	updates     atomic.Uint64 // stream updates folded into every backend
	batches     atomic.Uint64 // update batches admitted
	feedErrors  atomic.Uint64 // malformed/rejected feed lines
	checkpoints atomic.Uint64 // snapshots written (auto + forced + final)
	lastCkpt    atomic.Int64  // unix nanos of the last snapshot (0 = none)
	folds       atomic.Uint64 // member sampler level blocks summed by forest decodes

	mu      sync.Mutex
	queries map[string]*queryStats // per target
	latency histogram
	phases  map[string]*histogram // per build/ingest phase, fed by the tracer
	phOrder []string              // first-observed phase order, for stable output
}

// queryStats is one target's query counters.
type queryStats struct {
	served uint64
	errors uint64
}

// latencyBuckets are the query-latency histogram bounds in seconds
// (cumulative, +Inf implicit) — spanning sub-ms cache-hit queries to
// multi-second cold extractions.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts [numBuckets + 1]uint64 // counts[i]: observations <= latencyBuckets[i]; last = +Inf
	sum    float64
	total  uint64
}

const numBuckets = 12 // len(latencyBuckets); const so the array is fixed-size

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), queries: map[string]*queryStats{}, phases: map[string]*histogram{}}
}

// AddUpdates records one admitted update batch of the given size.
func (m *Metrics) AddUpdates(n int) {
	m.updates.Add(uint64(n))
	m.batches.Add(1)
}

// AddFeedError records one malformed or rejected feed line.
func (m *Metrics) AddFeedError() { m.feedErrors.Add(1) }

// AddCheckpoint records one written snapshot.
func (m *Metrics) AddCheckpoint() {
	m.checkpoints.Add(1)
	m.lastCkpt.Store(time.Now().UnixNano())
}

// ObserveQuery records one query against target with its latency and
// outcome.
func (m *Metrics) ObserveQuery(target string, d time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	qs := m.queries[target]
	if qs == nil {
		qs = &queryStats{}
		m.queries[target] = qs
	}
	if err != nil {
		qs.errors++
		return
	}
	qs.served++
	m.latency.observe(d.Seconds())
}

// ObserveSpan records one completed pipeline phase (a tracer span end)
// with its wall-clock duration. Phases share the query-latency bucket
// bounds: ingest shards and Borůvka rounds land in the same sub-second
// range as queries. A Borůvka round's span also carries the member
// sampler level blocks its dirty components' draws summed — the part of
// a re-query that cache hits do not remove — which accumulate into the
// decode-folds counter.
func (m *Metrics) ObserveSpan(e dynstream.TraceEvent) {
	for _, a := range e.Attrs {
		if a.Key == "folds" {
			m.folds.Add(uint64(a.Val))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.phases[e.Phase]
	if h == nil {
		h = &histogram{}
		m.phases[e.Phase] = h
		m.phOrder = append(m.phOrder, e.Phase)
	}
	h.observe(e.Dur.Seconds())
}

// observe folds one reading into the histogram. Caller holds m.mu.
func (h *histogram) observe(sec float64) {
	h.sum += sec
	h.total++
	for i, b := range latencyBuckets {
		if sec <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[numBuckets]++
}

// Snapshot totals for /v1/status.

// UpdatesTotal returns the cumulative admitted update count.
func (m *Metrics) UpdatesTotal() uint64 { return m.updates.Load() }

// QueriesTotal returns the cumulative successfully served query count.
func (m *Metrics) QueriesTotal() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t uint64
	for _, qs := range m.queries {
		t += qs.served
	}
	return t
}

// Checkpoints returns the cumulative snapshot count.
func (m *Metrics) Checkpoints() uint64 { return m.checkpoints.Load() }

// LastCheckpoint returns the time of the last snapshot (zero if none).
func (m *Metrics) LastCheckpoint() time.Time {
	ns := m.lastCkpt.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Uptime returns the registry's age.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// targetCacheStats is the per-scrape decode-cache reading WritePrometheus
// exports; the server supplies it from each backend's handle.
type targetCacheStats struct {
	target       string
	applied      int64
	hits, misses uint64
}

// WritePrometheus writes every metric in the Prometheus text format.
// ready/draining and the per-target cache/applied gauges are sampled by
// the caller at scrape time (they live on the server and its handles,
// not in the registry).
func (m *Metrics) WritePrometheus(w io.Writer, ready, draining bool, targets []targetCacheStats) {
	b01 := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	fmt.Fprintf(w, "# HELP dynstream_up Whether the daemon is running.\n# TYPE dynstream_up gauge\ndynstream_up 1\n")
	fmt.Fprintf(w, "# HELP dynstream_ready Whether the daemon admits updates (0 while draining).\n# TYPE dynstream_ready gauge\ndynstream_ready %d\n", b01(ready))
	fmt.Fprintf(w, "# HELP dynstream_draining Whether a graceful drain is in progress.\n# TYPE dynstream_draining gauge\ndynstream_draining %d\n", b01(draining))
	fmt.Fprintf(w, "# HELP dynstream_uptime_seconds Daemon uptime.\n# TYPE dynstream_uptime_seconds gauge\ndynstream_uptime_seconds %g\n", m.Uptime().Seconds())

	fmt.Fprintf(w, "# HELP dynstream_updates_ingested_total Stream updates folded into every live handle.\n# TYPE dynstream_updates_ingested_total counter\ndynstream_updates_ingested_total %d\n", m.updates.Load())
	fmt.Fprintf(w, "# HELP dynstream_update_batches_total Update batches admitted (feed lines batch; HTTP bodies are one batch each).\n# TYPE dynstream_update_batches_total counter\ndynstream_update_batches_total %d\n", m.batches.Load())
	fmt.Fprintf(w, "# HELP dynstream_feed_errors_total Malformed or rejected update lines.\n# TYPE dynstream_feed_errors_total counter\ndynstream_feed_errors_total %d\n", m.feedErrors.Load())

	m.mu.Lock()
	names := make([]string, 0, len(m.queries))
	for t := range m.queries {
		names = append(names, t)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP dynstream_queries_total Queries served, by target and outcome.\n# TYPE dynstream_queries_total counter\n")
	for _, t := range names {
		qs := m.queries[t]
		fmt.Fprintf(w, "dynstream_queries_total{target=%q,outcome=\"ok\"} %d\n", t, qs.served)
		fmt.Fprintf(w, "dynstream_queries_total{target=%q,outcome=\"error\"} %d\n", t, qs.errors)
	}
	fmt.Fprintf(w, "# HELP dynstream_query_latency_seconds Successful query latency.\n# TYPE dynstream_query_latency_seconds histogram\n")
	var cum uint64
	for i, b := range latencyBuckets {
		cum += m.latency.counts[i]
		fmt.Fprintf(w, "dynstream_query_latency_seconds_bucket{le=\"%g\"} %d\n", b, cum)
	}
	fmt.Fprintf(w, "dynstream_query_latency_seconds_bucket{le=\"+Inf\"} %d\n", m.latency.total)
	fmt.Fprintf(w, "dynstream_query_latency_seconds_sum %g\n", m.latency.sum)
	fmt.Fprintf(w, "dynstream_query_latency_seconds_count %d\n", m.latency.total)
	if len(m.phOrder) > 0 {
		fmt.Fprintf(w, "# HELP dynstream_phase_duration_seconds Pipeline phase wall time (ingest shards, Borůvka rounds, decode, checkpoint), by phase.\n# TYPE dynstream_phase_duration_seconds histogram\n")
		for _, ph := range m.phOrder {
			h := m.phases[ph]
			var cum uint64
			for i, b := range latencyBuckets {
				cum += h.counts[i]
				fmt.Fprintf(w, "dynstream_phase_duration_seconds_bucket{phase=%q,le=\"%g\"} %d\n", ph, b, cum)
			}
			fmt.Fprintf(w, "dynstream_phase_duration_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", ph, h.total)
			fmt.Fprintf(w, "dynstream_phase_duration_seconds_sum{phase=%q} %g\n", ph, h.sum)
			fmt.Fprintf(w, "dynstream_phase_duration_seconds_count{phase=%q} %d\n", ph, h.total)
		}
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP dynstream_applied_updates Updates folded into the live handle, by target.\n# TYPE dynstream_applied_updates gauge\n")
	for _, t := range targets {
		fmt.Fprintf(w, "dynstream_applied_updates{target=%q} %d\n", t.target, t.applied)
	}
	fmt.Fprintf(w, "# HELP dynstream_decode_cache_hits_total Decode-cache region hits, by target.\n# TYPE dynstream_decode_cache_hits_total counter\n")
	for _, t := range targets {
		fmt.Fprintf(w, "dynstream_decode_cache_hits_total{target=%q} %d\n", t.target, t.hits)
	}
	fmt.Fprintf(w, "# HELP dynstream_decode_cache_misses_total Decode-cache region misses, by target.\n# TYPE dynstream_decode_cache_misses_total counter\n")
	for _, t := range targets {
		fmt.Fprintf(w, "dynstream_decode_cache_misses_total{target=%q} %d\n", t.target, t.misses)
	}
	fmt.Fprintf(w, "# HELP dynstream_decode_folds_total Member sampler level blocks summed to draw dirty components' boundary edges in spanning-forest decodes, all targets.\n# TYPE dynstream_decode_folds_total counter\ndynstream_decode_folds_total %d\n", m.folds.Load())

	fmt.Fprintf(w, "# HELP dynstream_checkpoints_total Snapshots written (auto, forced, and final).\n# TYPE dynstream_checkpoints_total counter\ndynstream_checkpoints_total %d\n", m.checkpoints.Load())
	if last := m.LastCheckpoint(); !last.IsZero() {
		fmt.Fprintf(w, "# HELP dynstream_checkpoint_age_seconds Seconds since the last snapshot.\n# TYPE dynstream_checkpoint_age_seconds gauge\ndynstream_checkpoint_age_seconds %g\n", time.Since(last).Seconds())
	}
}
