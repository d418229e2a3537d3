// Command bench is the repository's benchmark: six workloads over the
// two-pass spanner, the sparsifier, the AGM forest sketch and the
// serving daemon, measured end to end and, in a traced run, layer by
// layer from outside. One invocation is one workload and one seed:
//
//	go run . -workload forest-stream -seed 1            # end-to-end metrics
//	go run . -workload forest-stream -seed 1 -trace 1   # per-layer metrics
//	go run . -aa                                        # does the benchmark agree with itself?
//
// See README.md for what is measured and why.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Uint64("seed", 1, "workload seed: drives the generated inputs only")
		seconds = flag.Float64("seconds", 10, "how long to measure; rep and query counts never fall below their minimums")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file under -out")
		outDir  = flag.String("out", "out", "directory for trace files")
		list    = flag.Bool("list", false, "list the workloads and exit")
		aa      = flag.Bool("aa", false, "A/A mode: two interleaved sets of -k runs per workload")
		aaK     = flag.Int("k", 5, "runs per set in -aa mode")
		corrupt = flag.Bool("corrupt-output", false, "damage one checked output before checking it (proves checks fail the run)")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-20s %s\n", w.Name, w.Why)
		}
		return
	}
	if *aa {
		os.Exit(runAA(*name, *aaK, *seconds))
	}

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (use -list)\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if err := reexecWithGodebug(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if runtime.NumCPU() < gomaxprocs {
		fmt.Fprintf(os.Stderr, "bench: host has %d CPU, GOMAXPROCS=%d time-slices: two-shard numbers are not measurements here\n",
			runtime.NumCPU(), gomaxprocs)
	}

	ctx := context.Background()
	var r *report
	var err error
	if w.batch != nil {
		r, err = runBatch(ctx, w, *seed, *seconds, *trace == 1, *corrupt, *outDir)
	} else {
		r, err = runServe(ctx, w, *seed, *seconds, *trace == 1, *corrupt, *outDir)
	}
	var inv *invalidRun
	if errors.As(err, &inv) {
		// No numbers: a reader must not mistake these for a measurement.
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := r.write(os.Stdout, readHost()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}
