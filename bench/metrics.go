package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the system sees, the same on every
// workload. BENCHMARK.json repeats this table; the tests keep the two in
// step. error_share is not a row because a gate metric may never read 0:
// it is the run's failed/attempted pair instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"sketch_words", "count", "lower", 0.001},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer is the traced run's table. A metric reads 0 on a workload
// that does not execute its layer.
var perLayer = []metricDef{
	layer("field.mulvec_ns_per_elem", "ns", "lower"),
	layer("field.fingerprint_ns_per_elem", "ns", "lower"),
	layer("field.mergecells_ns_per_cell", "ns", "lower"),
	layer("field.scatteradd3_ns_per_call", "ns", "lower"),

	layer("hashing.polybank_ns_per_key", "ns", "lower"),
	layer("hashing.level_ns_per_key", "ns", "lower"),

	layer("sketch.grid_alloc_ms", "ms", "lower"),
	layer("sketch.l0_add_ns_per_update", "ns", "lower"),
	layer("sketch.l0_merge_us_per_sampler", "us", "lower"),
	layer("sketch.l0_sample_us", "us", "lower"),
	layer("sketch.keyed_add_ns_per_update", "ns", "lower"),
	layer("sketch.keyed_decode_us_per_table", "us", "lower"),
	layer("sketch.sketchb_add_ns_per_update", "ns", "lower"),
	layer("sketch.sketchb_decode_us", "us", "lower"),

	layer("agm.new_ms", "ms", "lower"),
	layer("agm.addbatch_ns_per_update", "ns", "lower"),
	layer("agm.forest_cold_ms", "ms", "lower"),
	layer("agm.forest_requery_ms", "ms", "lower"),
	layer("agm.cache_hit_share", "ratio", "higher"),
	layer("agm.merge_ms", "ms", "lower"),
	layer("agm.marshal_ms", "ms", "lower"),
	layer("agm.unmarshal_ms", "ms", "lower"),
	layer("agm.state_bytes", "count", "lower"),
	layer("agm.space_words", "count", "lower"),

	layer("spanner.new_ms", "ms", "lower"),
	layer("spanner.pass1_ns_per_update", "ns", "lower"),
	layer("spanner.endpass1_ms", "ms", "lower"),
	layer("spanner.pass2_ns_per_update", "ns", "lower"),
	layer("spanner.finish_ms", "ms", "lower"),
	layer("spanner.space_words", "count", "lower"),
	layer("spanner.edges_out", "count", "lower"),

	layer("sparsify.grid_new_ms", "ms", "lower"),
	layer("sparsify.grid_pass1_ns_per_update", "ns", "lower"),
	layer("sparsify.grid_endpass1_ms", "ms", "lower"),
	layer("sparsify.grid_pass2_ns_per_update", "ns", "lower"),
	layer("sparsify.grid_finish_ms", "ms", "lower"),
	layer("sparsify.sample_ms", "ms", "lower"),
	layer("sparsify.cells_per_update", "count", "lower"),
	layer("sparsify.space_words", "count", "lower"),
	layer("sparsify.spectral_eps", "ratio", "lower"),

	layer("stream.replay_ns_per_update", "ns", "lower"),
	layer("stream.parse_text_ns_per_update", "ns", "lower"),
	layer("stream.parse_binary_ns_per_update", "ns", "lower"),

	layer("parallel.shard_ingest_ms", "ms", "lower"),
	layer("parallel.treemerge_ms", "ms", "lower"),
	layer("parallel.workers2_speedup", "ratio", "higher"),

	layer("dynstream.open_ms", "ms", "lower"),
	layer("dynstream.apply_ns_per_update", "ns", "lower"),
	layer("dynstream.query_cold_ms", "ms", "lower"),
	layer("dynstream.query_warm_ms", "ms", "lower"),
	layer("dynstream.checkpoint_ms", "ms", "lower"),
	layer("dynstream.restore_ms", "ms", "lower"),
	layer("dynstream.checkpoint_bytes", "count", "lower"),

	layer("serve.applybatch_us_per_batch", "us", "lower"),
	layer("serve.backend_query_ms", "ms", "lower"),
	layer("serve.render_ms", "ms", "lower"),
	layer("serve.http_overhead_ms", "ms", "lower"),
	layer("serve.response_bytes", "count", "lower"),
	layer("serve.updates_per_query", "count", "lower"),
	layer("serve.query_p90_ms", "ms", "lower"),
	layer("serve.query_tail_ms", "ms", "lower"),
	layer("serve.query_tail_pct", "%", "higher"),
	layer("serve.query_max_ms", "ms", "lower"),
	layer("serve.ingest_late_max_ms", "ms", "lower"),
	layer("serve.query_late_max_ms", "ms", "lower"),
	layer("serve.backlog_max_updates", "count", "lower"),
	layer("serve.ingest_ceiling_updates_per_s", "1/s", "higher"),

	layer("process.cold_op_ms", "ms", "lower"),
	layer("process.cold_op_user_ms", "ms", "lower"),
	layer("process.cold_minor_faults", "count", "lower"),
	layer("process.warmup_s", "s", "lower"),
	layer("process.cpu_user_ms_per_op", "ms", "lower"),
	layer("process.cpu_sys_ms_per_op", "ms", "lower"),
	layer("process.minor_faults_per_op", "count", "lower"),
	layer("process.alloc_mb_per_op", "MB", "lower"),
	layer("process.gc_cycles_per_op", "count", "lower"),
	layer("process.live_heap_mb", "MB", "lower"),
	layer("process.peak_rss_mb", "MB", "lower"),
	layer("process.op_raw_p50_ms", "ms", "lower"),
	layer("process.op_iqr_pct", "%", "lower"),
	layer("host.spin_ns", "ns", "lower"),
	layer("host.memprobe_ns", "ns", "lower"),

	layer("trace.overhead_pct", "%", "lower"),
	layer("trace.unattributed_pct", "%", "lower"),
}

// report is everything one run measured.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	vals      map[string]float64
	attempted int
	failed    int
	problems  []string // failed checks, in order seen
	notes     []string // context for the human-readable block
}

func newReport(workload string, seed uint64, traced bool) *report {
	return &report{workload: workload, seed: seed, traced: traced, vals: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// attempt counts one checked operation; a non-nil err is a failed one.
func (r *report) attempt(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, what+": "+err.Error())
	}
}

// attemptDigest counts one result whose digest must equal the cold op's.
func (r *report) attemptDigest(what string, got, want uint64) {
	var err error
	if got != want {
		err = fmt.Errorf("digest %016x differs from the cold op's %016x", got, want)
	}
	r.attempt(what, err)
}

// gateMetrics is the list the final JSON line must carry: the
// end-to-end table untraced, the per-layer table traced.
func (r *report) gateMetrics() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every measured metric as "name value unit" and, as the
// last line, the one JSON object the gate reads.
func (r *report) write(w io.Writer, host hostBlock) error {
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(w, "host go=%s commit=%s nproc=%d gomaxprocs=%d godebug=%s %s/%s\n",
		host.GoVersion, host.Commit, host.NProc, host.GoMaxProcs, host.GoDebug, host.GOOS, host.GOARCH)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %s\n", n, strconv.FormatFloat(r.vals[n], 'g', -1, 64), units[n])
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "error_share %g ratio (failed %d of %d attempted)\n", share, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED", p)
	}

	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.gateMetrics() {
		v, ok := r.vals[d.Name]
		if !ok && !r.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
