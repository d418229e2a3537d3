package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/serve"
)

const (
	preloadBatch   = 512 // updates per ApplyBatch while preloading
	serveSetupReps = 2
	checkEvery     = 10 // every 10th answer is re-derived offline
	ceilingBurst   = 1 * time.Second
	probeLead      = 30 * time.Millisecond // the pre-query memory probe starts this long before the query is due
	spanHeader     = "X-Bench-Span"
)

// servePipe is how the daemon runs its forest backend: one worker.
var servePipe = pipeline{kind: "forest", workers: 1}

// spanBackend is the benchmark's interposition on the serve layer: it
// wraps the real backend, times Apply and Query from outside, and opens
// spans under the request that caused them when a recorder is attached.
//
// It also serialises Query against Apply. The forest backend decodes the
// live sketch after Handle.QueryAt has released the handle's mutex, so
// an ApplyBatch that lands during a decode can tear the answer (the
// repository's TestConcurrentIngestQuery fails under -race for this
// reason). A torn answer cannot be checked against its applied prefix,
// and a workload must not fail operations, so the benchmark supplies the
// exclusion the batch-boundary contract promises. Once serve holds that
// exclusion itself this lock is never contended.
type spanBackend struct {
	serve.Backend
	mu  sync.Mutex
	rec atomic.Pointer[recorder]

	applyNs, applies atomic.Int64
}

type spanKey struct{}

func (b *spanBackend) Apply(u []dynstream.Update) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t0 := time.Now()
	err := b.Backend.Apply(u)
	b.applyNs.Add(int64(time.Since(t0)))
	b.applies.Add(1)
	return err
}

func (b *spanBackend) Query(ctx context.Context) (*serve.QueryResponse, error) {
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	wait := parent.child("serve.lockwait")
	b.mu.Lock()
	defer b.mu.Unlock()
	wait.end()
	sp := parent.child("serve.backend_query")
	defer sp.end()
	return b.Backend.Query(ctx)
}

// handler wraps the server's handler in a span caused by the client's
// request span, whose ID travels in a header.
func (b *spanBackend) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := b.rec.Load()
		id, err := strconv.Atoi(req.Header.Get(spanHeader))
		if rec == nil || err != nil {
			h.ServeHTTP(w, req)
			return
		}
		sp := spanRef{r: rec, id: id, op: id}.child("serve.handler")
		defer sp.end()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, sp)))
	})
}

// daemon is one serving stack: backend, server, HTTP front.
type daemon struct {
	back *spanBackend
	srv  *serve.Server
	ts   *httptest.Server
}

func (d *daemon) close() { d.ts.Close() }

// get issues one GET /v1/query and reads the body to its last byte.
func (d *daemon) get(ctx context.Context, spanID int) (status int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/v1/query", nil)
	if err != nil {
		return 0, nil, err
	}
	if spanID >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openDaemon is the serve workloads' set-up: open the forest backend
// behind a server, preload it, and answer a first query.
func openDaemon(ctx context.Context, in *serveInput, tr *dynstream.Tracer) (*daemon, error) {
	inner, _, _, err := serve.OpenBackend(ctx,
		serve.Spec{Target: "forest", N: in.n, Seed: sketchSeed, Workers: servePipe.workers, Tracer: tr}, "")
	if err != nil {
		return nil, fmt.Errorf("open backend: %w", err)
	}
	back := &spanBackend{Backend: inner}
	srv, err := serve.NewServer([]serve.Backend{back}, serve.ServerConfig{})
	if err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	d := &daemon{back: back, srv: srv, ts: httptest.NewServer(back.handler(srv.Handler()))}
	for i := 0; i < len(in.preload); i += preloadBatch {
		if err := srv.ApplyBatch(in.preload[i:min(i+preloadBatch, len(in.preload))]); err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if status, _, err := d.get(ctx, -1); err != nil || status != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("first query: status %d: %v", status, err)
	}
	return d, nil
}

// reply is one query as the client saw it.
type reply struct {
	due     time.Duration // scheduled send time, from window start
	sent    time.Duration // actual send time
	done    time.Duration // last body byte
	status  int
	body    []byte
	err     error
	applied int64   // parsed after the window
	probeNs float64 // memory probe read just before the send
}

// latencyMs is due time to last body byte.
func (q *reply) latencyMs() float64 { return ms(q.done - q.due) }

// windowStats is what one open-loop window observed.
type windowStats struct {
	replies       []*reply
	elapsed       time.Duration
	updates       int // applied during the window
	scheduled     int // due during the window
	ingestLateMax time.Duration
	queryLateMax  time.Duration
	backlogMax    int   // updates due but not yet applied, worst moment
	logPos        int   // log position after the window
	applyNs       int64 // time inside the backend's Apply, and the call count
	applies       int64
}

// window runs the open loop for `queries` queries: one ingest goroutine
// applies spec.batch updates every batch/rate seconds, one scheduler
// sends a query every queryEvery, each on its own goroutine so a slow
// answer never delays the next send. Every operation is timed from the
// moment it was due. logPos is where in the churn log ingest resumes.
func (s *serveRun) window(queries, logPos int, phase time.Duration, rec *recorder) (*windowStats, error) {
	spec := s.spec
	st := &windowStats{logPos: logPos}
	batchEvery := time.Duration(float64(time.Second) * float64(spec.batch) / float64(spec.rate))
	length := phase + time.Duration(queries)*spec.queryEvery
	s.d.back.rec.Store(rec)
	defer s.d.back.rec.Store(nil)

	ns0, n0 := s.d.back.applyNs.Load(), s.d.back.applies.Load()
	start := time.Now()
	stop := make(chan struct{})
	var ingestErr error
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for k := 0; ; k++ {
			due := time.Duration(k) * batchEvery
			if wait := due - time.Since(start); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-stop:
				return
			default:
			}
			now := time.Since(start)
			if late := now - due; late > st.ingestLateMax {
				st.ingestLateMax = late
			}
			if behind := (int(now/batchEvery) - k) * spec.batch; behind > st.backlogMax {
				st.backlogMax = behind
			}
			if st.logPos+spec.batch > len(s.in.log) {
				ingestErr = fmt.Errorf("churn log exhausted after %d updates", st.logPos)
				return
			}
			if err := s.d.srv.ApplyBatch(s.in.log[st.logPos : st.logPos+spec.batch]); err != nil {
				ingestErr = fmt.Errorf("apply batch: %w", err)
				return
			}
			st.logPos += spec.batch
			st.updates += spec.batch
		}
	}()

	st.replies = make([]*reply, queries)
	var inflight sync.WaitGroup
	for i := 0; i < queries; i++ {
		q := &reply{due: phase + time.Duration(i)*spec.queryEvery}
		st.replies[i] = q
		// Read the memory probe just ahead of the send, on this
		// goroutine: ingest is in its steady rhythm then, not catching up
		// behind the previous decode.
		if wait := q.due - probeLead - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		q.probeNs = memProbeNs(queryProbe)
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		q.sent = time.Since(start)
		if late := q.sent - q.due; late > st.queryLateMax {
			st.queryLateMax = late
		}
		inflight.Add(1)
		go func(i int) {
			defer inflight.Done()
			sp := rec.root("request", i)
			q.status, q.body, q.err = s.d.get(s.ctx, spanID(sp))
			sp.end()
			q.done = time.Since(start)
		}(i)
	}
	inflight.Wait()
	if rest := length - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	st.elapsed = time.Since(start)
	close(stop)
	ingest.Wait()
	st.scheduled = int(st.elapsed/batchEvery) * spec.batch
	st.applyNs, st.applies = s.d.back.applyNs.Load()-ns0, s.d.back.applies.Load()-n0
	return st, ingestErr
}

func spanID(s spanRef) int {
	if s.r == nil {
		return -1
	}
	return s.id
}

// serveRun carries one serve workload's run.
type serveRun struct {
	ctx  context.Context
	spec *serveSpec
	r    *report
	in   *serveInput
	d    *daemon
}

func runServe(ctx context.Context, w *workload, seed uint64, seconds float64, traced, corrupt bool, outDir string) (*report, error) {
	s := &serveRun{ctx: ctx, spec: w.serve, r: newReport(w.Name, seed, traced)}
	memProbeNs(1) // map the probe arena before anything is measured
	r, spec := s.r, s.spec
	spin0 := spinProbeNs(spinSteps)

	queries := int(math.Ceil(seconds / spec.queryEvery.Seconds()))
	if queries < minQueries {
		queries = minQueries
	}
	// The log covers the window with three seconds to spare.
	logPairs := int(float64(spec.rate)*(float64(queries)*spec.queryEvery.Seconds()+3)) / 2
	if traced {
		logPairs += 40_000 // the ceiling burst: a second of back-to-back batches
	}

	// Set-up, several times over: generate the input, open the daemon,
	// preload, first query. The last daemon is the one measured.
	reps := serveSetupReps
	var tr *dynstream.Tracer
	if traced {
		reps = 1
		tr = dynstream.NewTracer()
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if s.d != nil {
			s.d.close()
			s.d = nil
			runtime.GC()
		}
		t0 := time.Now()
		s.in = genServe(spec.n, spec.baseEdges, spec.window, logPairs, seed)
		d, err := openDaemon(ctx, s.in, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.d = d
	}
	defer s.d.close()
	r.set("setup_s", median(setups))
	r.note("input n=%d preload=%d log=%d digest=%016x", spec.n, len(s.in.preload), len(s.in.log),
		digestUpdates(spec.n, s.in.preload, s.in.log[:min(len(s.in.log), 100_000)]))
	r.note("open loop: ingest %d upd/s in %d-update batches from one goroutine; one query every %v, each on its own goroutine; %d queries",
		spec.rate, spec.batch, spec.queryEvery, queries)

	// The query schedule's phase against the ingest schedule comes from
	// the workload seed; the first query leaves room for its probe.
	phase := probeLead + time.Duration((&rng{s: seed ^ 0x9a5e}).intn(int(spec.queryEvery)))

	var rec *recorder
	var all []*reply
	var measuredWin *windowStats
	if !traced {
		st, err := s.window(queries, 0, phase, nil)
		if err != nil {
			return nil, err
		}
		measuredWin, all = st, st.replies
	} else {
		// Two half-length windows on one daemon: spans off, then on.
		// Their medians' difference is what the benchmark's spans cost.
		half := max(queries/2, minQueries/2)
		plain, err := s.window(half, 0, phase, nil)
		if err != nil {
			return nil, err
		}
		rec = newRecorder()
		spanned, err := s.window(half, plain.logPos, phase, rec)
		if err != nil {
			return nil, err
		}
		measuredWin = spanned
		all = append(append(all, plain.replies...), spanned.replies...)
		a, b := median(s.normalised(plain.replies)), median(s.normalised(spanned.replies))
		r.set("trace.overhead_pct", 100*(b-a)/a)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("process.peak_rss_mb", rss)

	lat := s.normalised(measuredWin.replies)
	raw, probes := make([]float64, len(lat)), make([]float64, len(lat))
	for i, q := range measuredWin.replies {
		raw[i], probes[i] = q.latencyMs(), q.probeNs
	}
	r.set("op_p50_ms", median(lat))
	r.set("process.op_raw_p50_ms", median(raw))
	r.set("process.op_iqr_pct", 100*iqrShare(lat))
	r.set("host.memprobe_ns", median(probes))
	r.set("updates_per_s", float64(measuredWin.updates)/measuredWin.elapsed.Seconds())
	r.set("serve.query_p90_ms", percentile(lat, 90))
	if pct, v, ok := tail(lat); ok {
		r.set("serve.query_tail_pct", pct)
		r.set("serve.query_tail_ms", v)
	}
	r.set("serve.query_max_ms", sorted(lat)[len(lat)-1])
	r.set("serve.ingest_late_max_ms", ms(measuredWin.ingestLateMax))
	r.set("serve.query_late_max_ms", ms(measuredWin.queryLateMax))
	r.set("serve.backlog_max_updates", float64(measuredWin.backlogMax))
	r.set("serve.applybatch_us_per_batch", float64(measuredWin.applyNs)/1e3/float64(measuredWin.applies))
	r.note("window %.2f s: %d queries, %d updates applied of %d scheduled", measuredWin.elapsed.Seconds(),
		len(lat), measuredWin.updates, measuredWin.scheduled)

	if traced {
		if err := s.ceiling(measuredWin.logPos); err != nil {
			return nil, err
		}
	}
	s.d.close()

	// An open loop that was not sustained measured the backlog, not the
	// program.
	if err := s.sustained(measuredWin); err != nil {
		return nil, err
	}
	if err := s.checkReplies(all, corrupt); err != nil {
		return nil, err
	}
	sizes := make([]float64, len(measuredWin.replies))
	for i, q := range measuredWin.replies {
		sizes[i] = float64(len(q.body))
	}
	r.set("serve.response_bytes", median(sizes))
	first, last := measuredWin.replies[0], measuredWin.replies[len(measuredWin.replies)-1]
	r.set("serve.updates_per_query", float64(last.applied-first.applied)/float64(len(measuredWin.replies)-1))
	if traced {
		s.spanMetrics(rec.snapshot())
		if err := s.probes(); err != nil {
			return nil, err
		}
		if err := writeTrace(outDir, r, rec.snapshot(), tr); err != nil {
			return nil, err
		}
	}

	r.set("host.spin_ns", (spin0+spinProbeNs(spinSteps))/2)
	return r, nil
}

// normalised returns each reply's latency at the reference host's
// memory speed.
func (s *serveRun) normalised(rs []*reply) []float64 {
	out := make([]float64, len(rs))
	for i, q := range rs {
		out[i] = q.latencyMs() / hostFactor(s.spec.memShare, q.probeNs)
	}
	return out
}

// invalidRun is a run whose numbers must not be used; main prints the
// reason in place of the metrics and exits non-zero.
type invalidRun struct{ reason string }

func (e *invalidRun) Error() string { return "invalid run: " + e.reason }

// sustained rejects a window whose open loop was not sustained: the
// query generator ran more than one interval late, or ingest ended more
// than two query intervals of load behind its schedule, or was ever
// four behind. The program was then measured under a different load
// than the workload states. A decode holds the backend lock, so falling
// up to one interval behind and catching up is the normal rhythm.
func (s *serveRun) sustained(st *windowStats) error {
	perQuery := s.spec.perQuery()
	switch {
	case st.queryLateMax > s.spec.queryEvery:
		return &invalidRun{fmt.Sprintf("query generator ran %v late, more than one interval (%v)", st.queryLateMax, s.spec.queryEvery)}
	case st.scheduled-st.updates > 2*perQuery:
		return &invalidRun{fmt.Sprintf("ingest ended %d updates behind its schedule (growing backlog)", st.scheduled-st.updates)}
	case st.backlogMax > 4*perQuery:
		return &invalidRun{fmt.Sprintf("ingest backlog reached %d updates, more than four query intervals of load", st.backlogMax)}
	}
	return nil
}

// ceiling measures what ingest alone sustains: a closed-loop burst of
// back-to-back batches with no queries.
func (s *serveRun) ceiling(logPos int) error {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < ceilingBurst {
		if logPos+s.spec.batch > len(s.in.log) {
			break
		}
		if err := s.d.srv.ApplyBatch(s.in.log[logPos : logPos+s.spec.batch]); err != nil {
			return fmt.Errorf("ceiling burst: %w", err)
		}
		logPos += s.spec.batch
		n += s.spec.batch
	}
	s.r.set("serve.ingest_ceiling_updates_per_s", float64(n)/time.Since(t0).Seconds())
	return nil
}

// checkReplies verifies every answer after the window has closed: it
// must be a 200 whose applied count is a batch boundary and whose edges
// are a spanning forest of the graph at exactly that prefix; every
// tenth is also re-derived by an offline sketch fed exactly that prefix
// and must match edge for edge.
func (s *serveRun) checkReplies(all []*reply, corrupt bool) error {
	r, spec, in := s.r, s.spec, s.in
	type parsed struct {
		q    *reply
		resp serve.QueryResponse
	}
	var ok []parsed
	for i, q := range all {
		var p parsed
		p.q = q
		err := q.err
		if err == nil && q.status != http.StatusOK {
			err = fmt.Errorf("status %d", q.status)
		}
		if err == nil {
			err = json.Unmarshal(q.body, &p.resp)
		}
		if err == nil {
			q.applied = p.resp.Applied
			if since := int(q.applied) - len(in.preload); since < 0 || since%spec.batch != 0 || since > len(in.log) {
				err = fmt.Errorf("applied=%d is not a batch boundary", q.applied)
			}
		}
		if err != nil {
			r.attempt(fmt.Sprintf("query %d", i), err)
			continue
		}
		ok = append(ok, p)
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].q.applied < ok[j].q.applied })
	if corrupt && len(ok) > 0 {
		ok[0].resp.Edges[0].V = ok[0].resp.Edges[0].U
	}

	// Sweep the log once, keeping the exact graph and the offline sketch
	// in step with each answer's prefix.
	g := graph.New(in.n)
	apply := func(us []dynstream.Update) {
		for _, u := range us {
			if u.Delta > 0 {
				g.AddUnitEdge(u.U, u.V)
			} else {
				g.RemoveEdge(u.U, u.V)
			}
		}
	}
	apply(in.preload)
	offline := dynstream.NewForestSketch(sketchSeed, in.n, dynstream.ForestConfig{})
	offline.AddBatch(in.preload)
	// The daemon's built state is this sketch's twin: same seed, same n.
	r.set("sketch_words", float64(offline.SpaceWords()))
	policy := servePipe.policy(s.ctx, nil)
	gPos, skPos := 0, 0
	for i, p := range ok {
		upto := int(p.q.applied) - len(in.preload)
		apply(in.log[gPos:upto])
		gPos = upto
		forest := make([]graph.Edge, len(p.resp.Edges))
		for j, e := range p.resp.Edges {
			forest[j] = graph.Edge{U: e.U, V: e.V, W: e.W}
		}
		err := checkForest(g, forest)
		if err == nil && i%checkEvery == 0 {
			offline.AddBatch(in.log[skPos:upto])
			skPos = upto
			var want []graph.Edge
			want, err = offline.SpanningForestOpts(nil, policy)
			if err == nil {
				err = sameEdges(in.n, forest, want)
			}
		}
		r.attempt(fmt.Sprintf("answer at applied=%d", p.q.applied), err)
	}
	return nil
}

// sameEdges compares an answer's edge list, which the daemon renders in
// sorted order, with an offline forest.
func sameEdges(n int, got, forest []graph.Edge) error {
	g := graph.New(n)
	for _, e := range forest {
		g.AddUnitEdge(e.U, e.V)
	}
	want := g.Edges()
	if len(got) != len(want) {
		return fmt.Errorf("%d edges, offline build has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("edge %d is %v, offline build has %v", i, got[i], want[i])
		}
	}
	return nil
}
