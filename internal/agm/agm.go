// Package agm implements the graph-connectivity sketch of Ahn, Guha and
// McGregor [AGM12a] — the paper's Theorem 10 substrate: a single-pass
// linear sketch from which a spanning forest of the streamed graph can
// be extracted with high probability.
//
// Each vertex v keeps L0-samplers of its signed edge-incidence vector:
// edge {a, b} with a < b contributes +1 at coordinate enc(a,b) of a's
// vector and −1 of b's. Summing the vectors of a vertex set S cancels
// internal edges exactly, leaving the edge boundary ∂S — so Borůvka
// rounds can repeatedly sample outgoing edges of current components and
// merge. The two linearity properties the paper exploits are explicit
// here: SubtractTo (used by Algorithm 3 to remove E_low before
// computing the forest, and by the k-connectivity certificate to remove
// the earlier forests) and the ability to run the forest on supernode
// groups (collapsing clusters T_u).
package agm

import (
	"maps"

	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// Sketch is the per-graph AGM connectivity sketch: `rounds` independent
// L0-samplers per vertex, one consumed per Borůvka round. All samplers
// of a round share one L0Family (hash functions, fingerprint power
// tables, geometry), and the samplers are one flat vertex-major array
// over one level-0 arena (sketch.NewL0Grid), so New allocates O(rounds)
// objects instead of n×rounds×levels and ingest finds a vertex's
// samplers by index.
type Sketch struct {
	seed   uint64
	n      int
	rounds int
	fam    []*sketch.L0Family // fam[r]: shared randomness of round r
	samp   []sketch.L0Sampler // vertex v, round r at v·rounds+r: see at
	perLvl int

	// subtracted is the canonical-edge multiset ({a, b} with a < b ->
	// multiplicity) currently folded OUT of the samplers (SubtractTo).
	// MarshalBinary and Merge fold it back in first: the wire format and
	// Merge are defined over the stream state.
	subtracted map[[2]int]int64

	// Decode cache (EnableDecodeCache): the trace of the previous
	// extraction, which the next one repairs (forest.go). For each
	// Borůvka round it reached, 0 to depth, it keeps partition r — per
	// root its rank, its kids (the partition-(r-1) roots it was formed
	// from) and a bit in the root set — and round r's outcome: per root
	// its pick, the L0 level the pick was decoded at and its
	// partition-(r+1) root, and the ascending roots whose pick merged
	// (the round's forest edges). A component's members are found by
	// walking its kids, never stored. Resident cost per level reached,
	// n·22 bytes (n·4 of which are the root labels up, (rounds+1)·n·4
	// bytes over all levels) plus its kid slab and merge records, n·33
	// bytes of per-vertex scratch plus the round lists, and 72 bytes per
	// entry of the largest log a query has read (its endpoints' roots
	// and its pair keys' hash powers): 2.5 MB at n = 10 000 on the
	// serve-fresh shape.
	caching bool
	trace   *forestDecode

	// Window: log records the endpoints of every update, and each vertex
	// a Merge changed, while caching is on, and is cleared by each cached
	// extraction. logGen numbers the windows — it advances when an
	// extraction completes and whenever the log loses entries — and the
	// trace records the window its extraction opened, so "trace window ==
	// logGen" says the log holds every mutation since the trace was
	// built; otherwise the next query decodes in full.
	log    []logUpd
	logGen uint64

	// Cumulative cache outcomes while caching is on: a hit is a
	// component whose trace pick was served without re-decoding — its
	// members are the trace's, and no logged update crossed its boundary
	// at or above the level its pick was decoded at — and a miss is a
	// component drawn afresh. Read by DecodeCacheStats for operational
	// visibility (daemon /metrics).
	cacheHits   uint64
	cacheMisses uint64

	crew parallel.Crew[*Sketch, ingestScratch] // AddBatch's per-call bookkeeping (ingest.go)
}

// DecodeCacheStats reports the cumulative decode-cache hit and miss
// counts of this sketch's extraction cache pass: per round, a hit is a
// component whose stored pick a fresh draw would return (see
// EnableDecodeCache for the rule), a miss one drawn afresh. Both are
// zero until a cached extraction runs (EnableDecodeCache). Counters are
// cumulative across queries and survive EnableDecodeCache(false).
func (s *Sketch) DecodeCacheStats() (hits, misses uint64) {
	return s.cacheHits, s.cacheMisses
}

// logUpd is the endpoints of one logged stream update, a < b, or a
// vertex v a Merge changed, as {v, v}.
type logUpd struct{ a, b int32 }

// EnableDecodeCache turns on (or off) the decode trace used by
// SpanningForestOpts. Off (the default) keeps one-shot builds
// allocation-lean: an extraction keeps two root lists and its picks
// for one round. Live handles turn it on so that a re-query after a
// small update batch repairs the previous extraction's partitions,
// re-decoding only components whose members changed, that hold a
// vertex a Merge changed, or whose boundary a logged update crossed at
// or above the L0 level their last draw decoded at — the only updates
// that draw can see — and relabelling only the components a change
// reaches (the Liu–Tarjan restart from the previous labeling). Turning
// it off releases the trace.
func (s *Sketch) EnableDecodeCache(on bool) {
	s.caching = on
	if !on {
		s.trace = nil
		s.log = nil
		s.logGen++
	}
}

// cachedPickCount reports how many component picks the trace currently
// holds (test hook).
func (s *Sketch) cachedPickCount() int {
	d := s.trace
	if d == nil || d.depth < 0 {
		return 0
	}
	count := 0
	for l := 0; l < d.depth; l++ {
		count += d.lv[l].count
	}
	return count
}

// Config tunes the sketch.
type Config struct {
	// Rounds is the number of Borůvka rounds (default ceil(log2 n)+2).
	Rounds int
	// PerLevel is the sparse-recovery budget per L0 level (default 4).
	PerLevel int
}

// resolve fills in the defaults for a graph on n vertices.
func (c Config) resolve(n int) Config {
	if c.Rounds == 0 {
		c.Rounds = 2
		for x := 1; x < n; x *= 2 {
			c.Rounds++
		}
	}
	if c.PerLevel == 0 {
		c.PerLevel = 4
	}
	return c
}

// Fits reports whether c is a configuration whose sketches, on n
// vertices, UnmarshalBinary accepts whatever stream they hold: Rounds
// and PerLevel are not negative (0 means the default), and the resolved
// geometry passes the decoder's header bounds with the sparsest body,
// one suppressed zero byte per sampler. The arena bound is per sampler,
// so a one-vertex header stands for any n.
func (c Config) Fits(n int) bool {
	if c.Rounds < 0 || c.PerLevel < 0 {
		return false
	}
	c = c.resolve(n)
	rounds := uint64(c.Rounds)
	return headerFits(1, rounds, uint64(c.PerLevel), rounds)
}

// New creates an AGM sketch for a graph on n vertices.
func New(seed uint64, n int, cfg Config) *Sketch {
	cfg = cfg.resolve(n)
	s := &Sketch{seed: seed, n: n, rounds: cfg.Rounds, perLvl: cfg.PerLevel}
	universe := uint64(n) * uint64(n)
	s.fam = make([]*sketch.L0Family, s.rounds)
	for r := range s.fam {
		// All vertices share one projection per round: summing vertex
		// sketches must equal sketching the summed incidence vectors,
		// so the hash functions are a function of the round only — one
		// family per round.
		roundSeed := hashing.Mix(seed, uint64(r))
		s.fam[r] = sketch.NewL0Family(roundSeed, universe, s.perLvl)
	}
	s.samp = sketch.NewL0Grid(s.fam, n)
	return s
}

// at returns vertex v's sampler of round r.
func (s *Sketch) at(r, v int) *sketch.L0Sampler { return &s.samp[v*s.rounds+r] }

// N returns the vertex count.
func (s *Sketch) N() int { return s.n }

// AddEdge folds an update for edge {u, v} with multiplicity delta into
// both endpoint sketches with opposite signs: a batch of one.
func (s *Sketch) AddEdge(u, v int, delta int64) {
	s.AddBatch([]stream.Update{{U: u, V: v, Delta: int(delta)}})
}

// logUpdate appends one update's endpoints to the window. If the
// window outgrows its budget the log resets and logGen advances: the
// next query re-decodes every component.
func (s *Sketch) logUpdate(a, b int) {
	if len(s.log) >= 4*s.n+1024 {
		s.log = s.log[:0]
		s.logGen++
	}
	s.log = append(s.log, logUpd{a: int32(a), b: int32(b)})
}

// AddUpdate folds a stream update.
func (s *Sketch) AddUpdate(u stream.Update) {
	s.AddBatch([]stream.Update{u})
}

// SubtractTo folds exactly the canonical-edge multiset want ({a, b}
// with a < b -> multiplicity) out of the sketch — the linear operation
// Algorithm 3 uses to form G' = G − E_low, and the k-connectivity
// certificate to remove F_1..F_{i-1} — by applying, in one batch, only
// the difference from what is folded out now. An unchanged want touches
// no sampler, so repeated extractions never double-subtract and keep
// the decode caches hot; SubtractTo(nil) returns the stream state. The
// sketch keeps its own copy of want.
func (s *Sketch) SubtractTo(want map[[2]int]int64) {
	var diff []stream.Update
	for key, m := range want {
		if d := m - s.subtracted[key]; d != 0 {
			diff = append(diff, stream.Update{U: key[0], V: key[1], Delta: int(-d)})
		}
	}
	for key, m := range s.subtracted {
		if _, ok := want[key]; !ok && m != 0 {
			diff = append(diff, stream.Update{U: key[0], V: key[1], Delta: int(m)})
		}
	}
	if len(diff) == 0 {
		return
	}
	s.AddBatch(diff)
	s.subtracted = maps.Clone(want)
}

// ZeroSum reports whether every round's samplers sum to the zero
// sketch. Each update adds +δ to one endpoint's samplers and −δ to the
// other's, so every state built from updates — ingested, merged,
// subtracted (SubtractTo) or restored from its own encoding — is
// zero-sum. A forged encoding need not be: UnmarshalBinary refuses one
// that is not.
func (s *Sketch) ZeroSum() bool {
	var sum sketch.L0Sampler
	for r := 0; r < s.rounds && s.n > 0; r++ {
		sum.SetTo(s.at(r, 0))
		for v := 1; v < s.n; v++ {
			if err := sum.Merge(s.at(r, v)); err != nil {
				return false
			}
		}
		if !sum.IsZero() {
			return false
		}
	}
	return true
}

// SpaceWords returns the memory footprint in 64-bit words.
func (s *Sketch) SpaceWords() int {
	w := 2
	for i := range s.samp {
		w += s.samp[i].SpaceWords()
	}
	return w
}
