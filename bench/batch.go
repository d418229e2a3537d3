package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"dynstream"
)

const (
	setupReps     = 3 // input generations per run at least; setup_s is their median
	minSetupTime  = 300 * time.Millisecond
	maxSetupReps  = 300  // a millisecond set-up repeats until minSetupTime has been measured
	warmFaultGate = 1000 // a rep under this many minor faults is warm
	maxWarmups    = 2
	tracedReps    = 3 // untraced and staged reps of a traced run
)

// measured is the cost of a series of reps of one operation.
type measured struct {
	rawMs  []float64 // wall time, source to result
	opMs   []float64 // the same at the reference host's memory speed
	probes []float64 // memory probe around each rep, ns per access
	costs  []opCost
}

func (m *measured) add(a *answer, c opCost, probeNs, memShare float64) {
	m.rawMs = append(m.rawMs, a.opMs)
	m.opMs = append(m.opMs, a.opMs/hostFactor(memShare, probeNs))
	m.probes = append(m.probes, probeNs)
	m.costs = append(m.costs, c)
}

func (m *measured) col(f func(opCost) float64) []float64 {
	out := make([]float64, len(m.costs))
	for i, c := range m.costs {
		out[i] = f(c)
	}
	return out
}

// batchRun carries one batch workload's run from set-up to report.
type batchRun struct {
	ctx  context.Context
	spec *batchSpec
	r    *report
	in   *batchInput
	cold *answer
}

// op runs one untraced operation, checks its digest against the cold
// op's, and returns what it cost the process.
func (b *batchRun) op(what string) (*answer, opCost, error) {
	// Collect the previous rep's garbage first. A CLI process runs one
	// op on an empty heap; without this a rep allocates beside its
	// predecessor's dead state, the heap extent creeps up for many reps,
	// and every new page is a first-touch fault inside the timed region.
	runtime.GC()
	u0 := readUsage()
	a, err := b.spec.pipe.run(b.ctx, b.in.stream, nil)
	if err != nil {
		return nil, opCost{}, fmt.Errorf("%s: %w", what, err)
	}
	c := u0.until(readUsage())
	if b.cold != nil {
		b.r.attemptDigest(what, a.digest, b.cold.digest)
	}
	return a, c, nil
}

func runBatch(ctx context.Context, w *workload, seed uint64, seconds float64, traced, corrupt bool, outDir string) (*report, error) {
	b := &batchRun{ctx: ctx, spec: w.batch, r: newReport(w.Name, seed, traced)}
	r := b.r
	spin0 := spinProbeNs(spinSteps)

	// Set-up: generate the input. Several times, because one generation
	// is short enough for scheduler noise to move it by a large share.
	reps := setupReps
	if traced {
		reps = 1 // setup_s is not a traced-run metric
	}
	var setups []float64
	for begun := time.Now(); ; {
		t0 := time.Now()
		in, err := genBatch(b.spec.n, b.spec.baseEdges, b.spec.churnPairs, seed)
		if err != nil {
			return nil, fmt.Errorf("generate input: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.in = in
		if len(setups) >= reps && (traced || time.Since(begun) >= minSetupTime || len(setups) >= maxSetupReps) {
			break
		}
	}
	updates := b.in.stream.Len()
	r.set("setup_s", median(setups))
	r.note("input n=%d updates=%d final_edges=%d stream_digest=%016x", b.spec.n, updates,
		b.in.final.M(), digestUpdates(b.spec.n, streamUpdates(b.in.stream)))

	// Cold op: what one CLI process pays, first-touch page faults
	// included. Its answer is the one checked in full, and its digest is
	// the reference for every later rep.
	cold, coldCost, err := b.op("cold op")
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if corrupt {
		cold.corrupt(b.in.final)
	}
	eps, cerr := cold.check(b.in.final)
	r.attempt("cold op output", cerr)
	b.cold = cold
	r.set("process.peak_rss_mb", rss)
	r.set("sketch_words", float64(cold.words))
	r.set("process.cold_op_ms", coldCost.wallMs)
	r.set("process.cold_op_user_ms", coldCost.userMs)
	r.set("process.cold_minor_faults", float64(coldCost.minflt))
	r.note("result digest=%016x words=%d", cold.digest, cold.words)

	// Warm-up: rep until one rep runs without faulting pages in.
	t0 := time.Now()
	warmups := 0
	for warmups < maxWarmups {
		_, c, err := b.op("warm-up rep")
		if err != nil {
			return nil, err
		}
		warmups++
		r.note("warm-up rep %d: %.0f ms faults=%d sys=%.0f ms", warmups, c.wallMs, c.minflt, c.sysMs)
		if c.minflt < warmFaultGate {
			break
		}
	}
	r.set("process.warmup_s", time.Since(t0).Seconds())

	// Measured reps, tracing off, each between two readings of the
	// memory probe.
	var m measured
	var last *answer
	want := maxReps
	if traced {
		want = tracedReps
	}
	probe := memProbeNs(batchProbe)
	for start := time.Now(); len(m.opMs) < want; {
		if !traced && len(m.opMs) >= minReps && time.Since(start).Seconds() >= seconds {
			break
		}
		a, c, err := b.op("measured rep")
		if err != nil {
			return nil, err
		}
		after := memProbeNs(batchProbe)
		m.add(a, c, (probe+after)/2, b.spec.memShare)
		probe, last = after, a
		r.note("rep %d: %.1f ms (%.1f at probe %.1f ns) user=%.0f sys=%.0f faults=%d gc=%d", len(m.opMs),
			m.opMs[len(m.opMs)-1], a.opMs, m.probes[len(m.probes)-1], c.userMs, c.sysMs, c.minflt, c.gcCycles)
	}
	p50 := median(m.opMs)
	r.set("op_p50_ms", p50)
	r.set("updates_per_s", float64(updates)/(p50/1000))
	r.set("process.op_raw_p50_ms", median(m.rawMs))
	r.set("process.op_iqr_pct", 100*iqrShare(m.opMs))
	r.set("host.memprobe_ns", median(m.probes))
	r.set("process.cpu_user_ms_per_op", median(m.col(func(c opCost) float64 { return c.userMs })))
	r.set("process.cpu_sys_ms_per_op", median(m.col(func(c opCost) float64 { return c.sysMs })))
	r.set("process.minor_faults_per_op", median(m.col(func(c opCost) float64 { return float64(c.minflt) })))
	r.set("process.alloc_mb_per_op", median(m.col(func(c opCost) float64 { return c.allocMB })))
	r.set("process.gc_cycles_per_op", median(m.col(func(c opCost) float64 { return float64(c.gcCycles) })))
	r.set("process.live_heap_mb", liveHeapMB())
	_ = last // held across liveHeapMB so the result counts as live
	r.note("measured reps=%d memory share m=%.2f", len(m.opMs), b.spec.memShare)

	if traced {
		if err := b.trace(p50, eps, outDir); err != nil {
			return nil, err
		}
	}
	r.set("host.spin_ns", (spin0+spinProbeNs(spinSteps))/2)
	return r, nil
}

// trace is the traced run's extra work: the staged replay under the
// benchmark's spans with the program's own tracer attached, the
// cross-check between the two, and the per-layer probes.
func (b *batchRun) trace(untracedMs, eps float64, outDir string) error {
	r := b.r
	rec := newRecorder()
	type stagedRep struct {
		ms    float64
		st    *staged
		tr    *dynstream.Tracer
		spans []span
	}
	var reps []stagedRep
	probe := memProbeNs(batchProbe)
	for i := 0; i < tracedReps; i++ {
		tr := dynstream.NewTracer()
		st := &staged{ctx: b.ctx, p: b.spec.pipe, tr: tr}
		mark := len(rec.snapshot())
		runtime.GC() // as before every untraced rep
		a, err := st.replay(rec, i, b.in.stream)
		if err != nil {
			return fmt.Errorf("staged replay: %w", err)
		}
		after := memProbeNs(batchProbe)
		r.attemptDigest("staged replay", a.digest, b.cold.digest)
		reps = append(reps, stagedRep{a.opMs / hostFactor(b.spec.memShare, (probe+after)/2), st, tr, rec.snapshot()[mark:]})
		probe = after
	}
	// The per-layer numbers come from the median rep, not from whichever
	// ran last: one slow rep would otherwise speak for every layer.
	sort.Slice(reps, func(i, j int) bool { return reps[i].ms < reps[j].ms })
	mid := reps[len(reps)/2]
	traced, st, tr, opSpans := mid.ms, mid.st, mid.tr, mid.spans
	r.set("trace.overhead_pct", 100*(traced-untracedMs)/untracedMs)
	rootMs := wallMs(opSpans, "op")
	r.set("trace.unattributed_pct", 100*selfMs(opSpans, "op")/rootMs)

	// The program's tracer saw the same execution from inside: its
	// ingest aggregate and the spans around the IngestOpts calls must
	// agree, or one of the two clocks is attributing time wrongly.
	outside := wallMs(opSpans, "parallel.ingest")
	var inside float64
	for _, ph := range tr.Phases() {
		if ph.Phase == "ingest" {
			inside = ms(ph.Wall)
		}
	}
	var xerr error
	if inside == 0 || math.Abs(outside-inside)/inside > 0.05 {
		xerr = fmt.Errorf("outside ingest timers %.2f ms, tracer ingest aggregate %.2f ms: more than 5%% apart", outside, inside)
	}
	r.attempt("tracer cross-check", xerr)
	r.note("cross-check outside_ingest_ms=%.2f tracer_ingest_ms=%.2f", outside, inside)

	b.layerMetrics(st, opSpans, eps)
	probeKernels(r, b.spec.n, b.in.stream)
	if b.spec.pipe.kind == "forest" {
		updates := streamUpdates(b.in.stream)
		g := &rng{s: 0xf07e57}
		// The two forest workloads build the same state bit for bit; its
		// marshal and checkpoint round trips cost seconds and are measured
		// once, on the one-shard workload.
		serialise := b.spec.pipe.workers == 1
		if err := probeAgm(b.ctx, r, st.sketch, updates,
			freshEdges(b.in.final.HasEdge, b.spec.n, b.spec.requeryChurn, g), b.spec.pipe, serialise); err != nil {
			return err
		}
		st.sketch = nil
		if _, err := probeHandle(b.ctx, r, b.spec.n, updates,
			freshEdges(b.in.final.HasEdge, b.spec.n, b.spec.requeryChurn, g), b.spec.pipe, b.cold.digest, serialise); err != nil {
			return err
		}
		if b.spec.pipe.workers > 1 {
			if err := b.speedup(untracedMs); err != nil {
				return err
			}
		}
	}
	return writeTrace(outDir, r, rec.snapshot(), tr)
}

// layerMetrics turns the last staged replay's spans into per-layer
// metrics.
func (b *batchRun) layerMetrics(st *staged, spans []span, eps float64) {
	r := b.r
	perUpdate := func(metric, name string) {
		if n := st.n.get(name); n > 0 {
			r.set(metric, wallMs(spans, name)*1e6/n)
		}
	}
	merges := 0.0
	for _, l := range []string{"agm", "spanner.pass1", "spanner.pass2", "sparsify.grid.pass1", "sparsify.grid.pass2"} {
		merges += wallMs(spans, l+".merge")
	}
	r.set("parallel.shard_ingest_ms", wallMs(spans, "parallel.ingest")-merges)
	r.set("parallel.treemerge_ms", merges)

	switch b.spec.pipe.kind {
	case "forest":
		r.set("agm.new_ms", wallMs(spans, "agm.new"))
		perUpdate("agm.addbatch_ns_per_update", "agm.add")
		r.set("agm.forest_cold_ms", wallMs(spans, "agm.forest"))
		if b.spec.pipe.workers > 1 { // one shard merges nothing; probeAgm times a merge then
			r.set("agm.merge_ms", wallMs(spans, "agm.merge"))
		}
		r.set("agm.space_words", float64(b.cold.words))
	case "sparsifier":
		r.set("sparsify.grid_new_ms", wallMs(spans, "sparsify.grid.pass1.new")+wallMs(spans, "sparsify.grid.pass2.new"))
		perUpdate("sparsify.grid_pass1_ns_per_update", "sparsify.grid.pass1.add")
		r.set("sparsify.grid_endpass1_ms", wallMs(spans, "sparsify.grid.endpass1"))
		perUpdate("sparsify.grid_pass2_ns_per_update", "sparsify.grid.pass2.add")
		r.set("sparsify.grid_finish_ms", wallMs(spans, "sparsify.grid.finish"))
		r.set("sparsify.sample_ms", wallMs(spans, "op")-wallMs(spans, "sparsify.grid"))
		r.set("sparsify.cells_per_update", st.n.get("sparsify.grid_cells")/st.n.get("sparsify.grid.pass1.add"))
		r.set("sparsify.space_words", float64(b.cold.words))
		r.set("sparsify.spectral_eps", eps)
	}
	if b.spec.pipe.kind != "forest" {
		// The sparsifier's 112 inner builds land here too, summed.
		// new = both passes' state construction: NewTwoPass and ForkPass2.
		r.set("spanner.new_ms", wallMs(spans, "spanner.pass1.new")+wallMs(spans, "spanner.pass2.new"))
		perUpdate("spanner.pass1_ns_per_update", "spanner.pass1.add")
		r.set("spanner.endpass1_ms", wallMs(spans, "spanner.endpass1"))
		perUpdate("spanner.pass2_ns_per_update", "spanner.pass2.add")
		r.set("spanner.finish_ms", wallMs(spans, "spanner.finish"))
	}
	if b.spec.pipe.kind == "spanner" {
		r.set("spanner.space_words", float64(b.cold.words))
		r.set("spanner.edges_out", float64(b.cold.g.M()))
	}
}

// speedup measures forest-stream's one-shard op in this process, on
// this input, so parallel.workers2_speedup states its base: one-shard
// op ÷ this workload's two-shard op, both at reference memory speed.
func (b *batchRun) speedup(shardedMs float64) error {
	one := findWorkload("forest-stream").batch
	var opMs []float64
	probe := memProbeNs(batchProbe)
	for i := 0; i < 2; i++ {
		runtime.GC()
		a, err := one.pipe.run(b.ctx, b.in.stream, nil)
		if err != nil {
			return fmt.Errorf("one-shard op: %w", err)
		}
		after := memProbeNs(batchProbe)
		b.r.attemptDigest("one-shard op", a.digest, b.cold.digest)
		opMs = append(opMs, a.opMs/hostFactor(one.memShare, (probe+after)/2))
		probe = after
	}
	base := math.Min(opMs[0], opMs[1])
	b.r.set("parallel.workers2_speedup", base/shardedMs)
	b.r.note("workers2_speedup base: one-shard op %.1f ms ÷ two-shard op %.1f ms", base, shardedMs)
	return nil
}
