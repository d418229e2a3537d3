package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dynstream"
	"dynstream/internal/agm"
	"dynstream/internal/field"
	"dynstream/internal/hashing"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// Probes time the layers a replay cannot interpose on from outside —
// the kernels under AddBatch and Sample — by calling their exported
// functions directly at the workload's shape. They say what one element
// of work costs, not how much of the op it is; the staged replay's
// spans say that.

const (
	probeWindow  = 12 * time.Millisecond
	probeWindows = 3
)

// nsPer returns the cost in ns of one of the `per` elements fn
// processes per call: the best of a few short timing windows, which is
// the estimate least disturbed by whatever else the host was doing.
func nsPer(per int, fn func()) float64 {
	fn()
	best := 0.0
	for w := 0; w < probeWindows; w++ {
		calls := 0
		t0 := time.Now()
		var d time.Duration
		for d < probeWindow {
			for i := 0; i < 4; i++ {
				fn()
			}
			calls += 4
			d = time.Since(t0)
		}
		ns := float64(d) / float64(calls*per)
		if w == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// l0Universe is the coordinate space of an n-vertex edge vector.
func l0Universe(n int) uint64 { return uint64(n) * uint64(n) }

// agmRounds is agm.New's default Borůvka round count.
func agmRounds(n int) int {
	r := 2
	for x := 1; x < n; x *= 2 {
		r++
	}
	return r
}

func probeKernels(r *report, n int, st *dynstream.MemoryStream) {
	g := &rng{s: 0x9b0be}
	univ := l0Universe(n)

	// field: one 1024-element vector op, one 256-exponent batch (a
	// replay batch), one 1024-cell fold, one three-row scatter.
	const vec = 1024
	a, b, dst := make([]uint64, vec), make([]uint64, vec), make([]uint64, vec)
	for i := range a {
		a[i], b[i] = field.Reduce(g.next()), field.Reduce(g.next())
	}
	r.set("field.mulvec_ns_per_elem", nsPer(vec, func() { field.MulVec(dst, a, b) }))
	tab := field.NewPowTable(31337)
	exps, pows := make([]uint64, stream.DefaultBatchSize), make([]uint64, stream.DefaultBatchSize)
	for i := range exps {
		exps[i] = g.next() % univ
	}
	r.set("field.fingerprint_ns_per_elem", nsPer(len(exps), func() { tab.FingerprintVec(pows, exps) }))
	dc, sc, df := make([]int64, vec), make([]int64, vec), make([]uint64, vec)
	for i := range sc {
		sc[i] = int64(i) - vec/2
	}
	r.set("field.mergecells_ns_per_cell", nsPer(vec, func() { field.MergeCells(dc, dst, df, sc, a, b) }))
	idx := []int32{3, 21, 40}
	cnt, ks, fs := make([]int64, 64), make([]uint64, 64), make([]uint64, 64)
	r.set("field.scatteradd3_ns_per_call", nsPer(1, func() { field.ScatterAdd3(cnt, ks, fs, 1, a[0], b[0], idx) }))

	// hashing: the row-hash bank of one L0 family at this n (three rows
	// per level), and one geometric level draw.
	levels := 2
	for u := univ; u > 1; u >>= 1 {
		levels++
	}
	polys := make([]*hashing.Poly, 3*levels)
	for i := range polys {
		polys[i] = hashing.NewPoly(hashing.Mix(0xbeef, uint64(i)), 6)
	}
	bank := hashing.NewPolyBank(polys...)
	lanes := make([]uint64, bank.Lanes())
	key := uint64(0)
	r.set("hashing.polybank_ns_per_key", nsPer(1, func() { key += 0x9e3779b97f4a7c15; bank.HashPrefix(key%univ, lanes) }))
	lvl := hashing.NewPoly(0x1e7e1, 8)
	sink := 0
	r.set("hashing.level_ns_per_key", nsPer(1, func() { key += 0x9e3779b97f4a7c15; sink += lvl.Level(key % univ) }))
	_ = sink

	// sketch: the sampler grid agm.New allocates at this n, then one
	// family's add / merge / sample, then the spanner's two tables.
	rounds := agmRounds(n)
	fams := make([]*sketch.L0Family, rounds)
	for i := range fams {
		fams[i] = sketch.NewL0Family(hashing.Mix(sketchSeed, uint64(i)), univ, 4)
	}
	t0 := time.Now()
	grid := sketch.NewSamplerGrid(fams, n)
	r.set("sketch.grid_alloc_ms", ms(time.Since(t0)))
	fam := fams[0]
	samplers := grid[0]
	if len(samplers) > 256 {
		samplers = samplers[:256]
	}
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = g.next() % univ
	}
	var hint sketch.L0Hint
	k := 0
	r.set("sketch.l0_add_ns_per_update", nsPer(1, func() {
		k++
		fam.Hint(keys[k%len(keys)], &hint)
		samplers[k%len(samplers)].AddHint(keys[k%len(keys)], 1, &hint)
	}))
	acc, src := fam.NewSampler(), fam.NewSampler()
	for _, x := range keys[:64] {
		src.Add(x, 1)
	}
	r.set("sketch.l0_merge_us_per_sampler", nsPer(1, func() { _ = acc.Merge(src) })/1e3) // same family: Merge cannot fail
	r.set("sketch.l0_sample_us", nsPer(1, func() { src.Sample() })/1e3)
	grid, samplers = nil, nil

	keyed := sketch.NewKeyedEdgeSketch(sketchSeed, n, 64)
	kb := make([]sketch.KeyedEdgeUpdate, stream.DefaultBatchSize)
	for i := range kb {
		kb[i] = sketch.KeyedEdgeUpdate{W: g.intn(n), V: g.intn(n), Delta: 1}
	}
	r.set("sketch.keyed_add_ns_per_update", nsPer(len(kb), func() { keyed.AddBatch(kb) }))
	table := sketch.NewKeyedEdgeSketch(sketchSeed, n, 64)
	for i := 0; i < 32; i++ {
		table.Add(g.intn(n), g.intn(n), 1)
	}
	r.set("sketch.keyed_decode_us_per_table", nsPer(1, func() { table.BumpGen(); table.Keys() })/1e3)
	sb := sketch.NewSketchB(sketchSeed, 32)
	deltas := make([]int64, stream.DefaultBatchSize)
	for i := range deltas {
		deltas[i] = 1
	}
	r.set("sketch.sketchb_add_ns_per_update", nsPer(len(exps), func() { sb.AddBatch(exps, deltas) }))
	full := sketch.NewSketchB(sketchSeed, 32)
	for _, x := range keys[:32] {
		full.Add(x, 1)
	}
	r.set("sketch.sketchb_decode_us", nsPer(1, func() { full.Decode() })/1e3)

	// stream: replaying the in-memory stream in batches, and parsing it
	// back from its text and binary wire forms.
	noop := func([]stream.Update) error { return nil }
	total := st.Len()
	r.set("stream.replay_ns_per_update", nsPer(total, func() { _ = stream.ReplayBatches(st, 0, noop) }))
	head := dynstream.NewMemoryStream(st.N())
	_ = st.Replay(func(u stream.Update) error {
		if head.Len() < 20000 {
			_ = head.Append(u) // already validated once
		}
		return nil
	})
	for _, f := range []struct {
		metric string
		write  func(*bytes.Buffer) error
	}{
		{"stream.parse_text_ns_per_update", func(b *bytes.Buffer) error { return stream.WriteText(b, head) }},
		{"stream.parse_binary_ns_per_update", func(b *bytes.Buffer) error { return stream.WriteBinary(b, head) }},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			r.attempt(f.metric, err)
			continue
		}
		var perr error
		v := nsPer(head.Len(), func() {
			rs, err := stream.NewReaderSource(bytes.NewReader(buf.Bytes()))
			if err == nil {
				err = stream.ReplayBatches(rs, 0, noop)
			}
			if err != nil {
				perr = err
			}
		})
		r.attempt(f.metric, perr)
		r.set(f.metric, v)
	}
}

// freshEdges returns k insertions of distinct edges the graph does not
// have, so applying them keeps every multiplicity valid.
func freshEdges(has func(u, v int) bool, n, k int, g *rng) []dynstream.Update {
	seen := map[pair]bool{}
	out := make([]dynstream.Update, 0, k)
	for len(out) < k {
		u, v := g.intn(n), g.intn(n)
		p := canon(u, v)
		if u == v || seen[p] || has(u, v) {
			continue
		}
		seen[p] = true
		out = append(out, ins(p))
	}
	return out
}

// probeAgm measures the agm layer on the sketch a forest workload built.
// churn is the workload's per-query load: the updates between the query
// that fills the decode cache and the re-query that is timed. The probe
// consumes sk: the closing merge leaves it sketching a multigraph.
// serialise adds the marshal round trip, seconds of work at n = 10 000
// that the forest batch workloads pay once and the serve workloads skip.
func probeAgm(ctx context.Context, r *report, sk *agm.Sketch, updates, churn []dynstream.Update, pipe pipeline, serialise bool) error {
	policy := pipe.policy(ctx, nil)

	if serialise {
		t0 := time.Now()
		blob, err := sk.MarshalBinary()
		if err != nil {
			return fmt.Errorf("agm marshal: %w", err)
		}
		r.set("agm.marshal_ms", ms(time.Since(t0)))
		r.set("agm.state_bytes", float64(len(blob)))
		t0 = time.Now()
		var back agm.Sketch
		uerr := back.UnmarshalBinary(blob)
		r.set("agm.unmarshal_ms", ms(time.Since(t0)))
		r.attempt("agm unmarshal", uerr)
	}

	// Re-query with the decode cache on: the path a live handle's next
	// query takes.
	sk.EnableDecodeCache(true)
	if _, err := sk.SpanningForestOpts(nil, policy); err != nil {
		return fmt.Errorf("agm cache fill: %w", err)
	}
	sk.AddBatch(churn)
	h0, m0 := sk.DecodeCacheStats()
	t0 := time.Now()
	if _, err := sk.SpanningForestOpts(nil, policy); err != nil {
		return fmt.Errorf("agm re-query: %w", err)
	}
	r.set("agm.forest_requery_ms", ms(time.Since(t0)))
	h1, m1 := sk.DecodeCacheStats()
	if lookups := float64(h1-h0) + float64(m1-m0); lookups > 0 {
		r.set("agm.cache_hit_share", float64(h1-h0)/lookups)
	}
	if _, measured := r.vals["agm.merge_ms"]; !measured {
		// The replay merged nothing (one shard); time one merge against a
		// second sketch holding a slice of the stream.
		other := agm.New(sketchSeed, sk.N(), agm.Config{})
		other.AddBatch(updates[:min(len(updates), 1024)])
		t0 = time.Now()
		merr := sk.Merge(other)
		r.set("agm.merge_ms", ms(time.Since(t0)))
		r.attempt("agm merge", merr)
	}
	return nil
}

// forestQuery is one query of a live forest handle through to its
// answer: the handle hands out the sketch, the caller decodes it.
func forestQuery(ctx context.Context, h *dynstream.Handle[*dynstream.ForestSketch], pipe pipeline) (*answer, float64, error) {
	t0 := time.Now()
	live, err := h.Query(ctx)
	if err != nil {
		return nil, 0, err
	}
	forest, err := live.SpanningForestOpts(nil, pipe.policy(ctx, nil))
	if err != nil {
		return nil, 0, err
	}
	d := ms(time.Since(t0))
	return (&answer{kind: "forest", forest: forest, words: live.SpaceWords()}).seal(), d, nil
}

// probeHandle measures the root package's live-handle layer: open a
// forest handle, feed it updates, query it cold, apply churn, query it
// warm and, if serialise, checkpoint and restore. It returns the handle,
// loaded. want is the digest the cold query must reproduce (0 skips the
// comparison).
func probeHandle(ctx context.Context, r *report, n int, updates, churn []dynstream.Update,
	pipe pipeline, want uint64, serialise bool) (*dynstream.Handle[*dynstream.ForestSketch], error) {
	target := dynstream.ForestTarget{Seed: sketchSeed}
	t0 := time.Now()
	h, err := dynstream.Open(ctx, dynstream.NewMemoryStream(n), target, pipe.opts(nil)...)
	if err != nil {
		return nil, fmt.Errorf("dynstream open: %w", err)
	}
	r.set("dynstream.open_ms", ms(time.Since(t0)))
	t0 = time.Now()
	for i := 0; i < len(updates); i += stream.DefaultBatchSize {
		if err := h.Apply(updates[i:min(i+stream.DefaultBatchSize, len(updates))]); err != nil {
			return nil, fmt.Errorf("dynstream apply: %w", err)
		}
	}
	r.set("dynstream.apply_ns_per_update", float64(time.Since(t0))/float64(len(updates)))
	a, d, err := forestQuery(ctx, h, pipe)
	if err != nil {
		return nil, fmt.Errorf("dynstream cold query: %w", err)
	}
	r.set("dynstream.query_cold_ms", d)
	if want != 0 {
		r.attemptDigest("handle query", a.digest, want)
	}
	if err := h.Apply(churn); err != nil {
		return nil, fmt.Errorf("dynstream apply churn: %w", err)
	}
	if _, d, err = forestQuery(ctx, h, pipe); err != nil {
		return nil, fmt.Errorf("dynstream warm query: %w", err)
	}
	r.set("dynstream.query_warm_ms", d)
	if !serialise {
		return h, nil
	}
	var ckpt bytes.Buffer
	ckpt.Grow(int(r.vals["agm.state_bytes"]) + 1<<20) // time the checkpoint, not the buffer's doubling
	t0 = time.Now()
	if err := h.Checkpoint(&ckpt); err != nil {
		return nil, fmt.Errorf("dynstream checkpoint: %w", err)
	}
	r.set("dynstream.checkpoint_ms", ms(time.Since(t0)))
	r.set("dynstream.checkpoint_bytes", float64(ckpt.Len()))
	t0 = time.Now()
	_, rerr := dynstream.Restore(ctx, bytes.NewReader(ckpt.Bytes()), dynstream.NewMemoryStream(n), target, pipe.opts(nil)...)
	r.set("dynstream.restore_ms", ms(time.Since(t0)))
	r.attempt("dynstream restore", rerr)
	return h, nil
}
