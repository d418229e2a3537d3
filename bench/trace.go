package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dynstream"
	"dynstream/internal/obs"
)

// traceFile is what a traced run leaves behind: every span the
// benchmark recorded, their per-name totals, the program's own phase
// aggregates verbatim, and the metrics derived from them.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Host     hostBlock          `json:"host"`
	Metrics  map[string]float64 `json:"metrics"`
	Layers   []layerTotal       `json:"layers"`
	Phases   []obs.PhaseStat    `json:"tracer_phases"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes <outDir>/<workload>-<seed>.trace.json.
func writeTrace(outDir string, r *report, spans []span, tr *dynstream.Tracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	tf := traceFile{Workload: r.workload, Seed: r.seed, Host: readHost(), Metrics: r.vals,
		Layers: totals(spans), Phases: tr.Phases(), Spans: spans}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-%d.trace.json", r.workload, r.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	r.note("trace file %s (%d spans)", path, len(spans))
	return nil
}
