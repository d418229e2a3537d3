package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA answers "does the benchmark agree with itself?": per workload
// it runs two interleaved sets of k untraced runs of the current tree,
// each run a fresh process with its own seed, and compares the sets the
// way the gate compares a change with its parent. It returns the
// process's exit code: non-zero when a run failed, two sets of the same
// code disagree by more than a metric's bound, or a set's own spread
// exceeds it.
func runAA(only string, k int, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := false
	fmt.Printf("A/A: two interleaved sets of %d runs per workload, %g s each; spread = IQR/median; bound from BENCHMARK.json\n", k, seconds)
	fmt.Printf("%-20s %-14s %14s %14s %9s %9s %9s %7s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "disagree", "bound")
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			vals, err := runOnce(exe, w.Name, uint64(i+1), seconds)
			if err != nil {
				fmt.Printf("%-20s run with seed %d failed: %v\n", w.Name, i+1, err)
				bad = true
				continue
			}
			for name, v := range vals {
				sets[i%2][name] = append(sets[i%2][name], v)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			disagree := math.Abs(mb-ma) / ma
			mark := ""
			if disagree > d.Bound {
				mark, bad = "  DISAGREE", true
			}
			// A gate also refuses a metric whose own spread exceeds its
			// bound; set-up time is exempt there and here.
			if d.Name != "setup_s" && math.Max(iqrShare(a), iqrShare(b)) > d.Bound {
				mark, bad = mark+"  SPREAD", true
			}
			fmt.Printf("%-20s %-14s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				w.Name, d.Name, ma, mb, 100*iqrShare(a), 100*iqrShare(b), 100*disagree, 100*d.Bound, mark)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// runOnce runs one untraced run in a child process and returns its
// end-to-end metrics.
func runOnce(exe, workload string, seed uint64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not the result object: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}
