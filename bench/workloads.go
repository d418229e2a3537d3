package main

import "time"

// workload is one set of inputs the benchmark runs. Sizes are fixed
// here and never follow the host or the time budget: only rep and
// query counts do, and never below minReps / minQueries.
type workload struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json

	batch *batchSpec
	serve *serveSpec
}

// memShare, on both specs, is the share of the operation's time that
// moves with the host's memory speed, fitted once from ten runs' (op,
// memory probe) pairs as the value that makes the run medians agree best
// (README, Noise). It scales every timing to the reference host's
// memory speed; it is not a knob.
type batchSpec struct {
	pipe                     pipeline
	n, baseEdges, churnPairs int
	requeryChurn             int // updates between the cold and the warm query in the agm probe
	memShare                 float64
}

type serveSpec struct {
	n, baseEdges, window int           // graph: base edges plus a sliding window of extras
	batch                int           // updates per ApplyBatch
	rate                 int           // scheduled updates per second
	queryEvery           time.Duration // one query is due this often
	memShare             float64
}

// perQuery is the scheduled ingest between two queries, in updates.
func (s *serveSpec) perQuery() int { return int(float64(s.rate) * s.queryEvery.Seconds()) }

const (
	minReps    = 7  // measured reps of a batch workload
	maxReps    = 15 // enough for a stable median; more only costs time
	minQueries = 40 // measured queries of a serve workload
)

var workloads = []workload{
	{
		Name: "forest-stream",
		Why:  "one-shard AGM ingest is 92% of the op, so it isolates AddBatch, the L0 grid walk and the field/hashing kernels; decode is 8%",
		batch: &batchSpec{pipe: pipeline{kind: "forest", workers: 1},
			n: 10000, baseEdges: 20000, churnPairs: 30000, requeryChurn: 100, memShare: 0.7},
	},
	{
		Name: "forest-sharded",
		Why:  "same stream on two shards plus a merge and a two-worker decode, so an ingest layout that slows Merge, or a fan-out that never pays, shows here",
		batch: &batchSpec{pipe: pipeline{kind: "forest", workers: 2},
			n: 10000, baseEdges: 20000, churnPairs: 30000, requeryChurn: 100, memShare: 0.9},
	},
	{
		Name: "spanner-twopass",
		Why:  "Theorem 1's two-pass 2^k-spanner: keyed-sketch ingest, peeling decode and allocation volume each move it, and L0/agm work is absent",
		batch: &batchSpec{pipe: pipeline{kind: "spanner", workers: 1},
			n: 1000, baseEdges: 4000, churnPairs: 4000, memShare: 0.6},
	},
	{
		Name: "sparsifier-twopass",
		Why:  "Corollary 2's sparsifier: the oracle grid fans every update into many spanner cells and 112 inner spanners are decoded, work no other workload has",
		batch: &batchSpec{pipe: pipeline{kind: "sparsifier", workers: 1},
			n: 64, baseEdges: 640, churnPairs: 200, memShare: 0.8},
	},
	{
		Name: "serve-fresh",
		Why:  "open-loop daemon, ~51 new updates per query: the decode-cache hit path, handle mutex, JSON render and HTTP dominate; ingest cost is negligible",
		serve: &serveSpec{n: 10000, baseEdges: 20000, window: 20000,
			batch: 8, rate: 512, queryEvery: 100 * time.Millisecond, memShare: 0.7},
	},
	{
		Name: "serve-churn",
		Why:  "same daemon, ~1638 new updates (4% of the graph) per query: near-cold re-decode contending with heavy ApplyBatch, the path a hit-tuned cache can slow",
		serve: &serveSpec{n: 10000, baseEdges: 20000, window: 20000,
			batch: 128, rate: 4096, queryEvery: 400 * time.Millisecond, memShare: 0.9},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
