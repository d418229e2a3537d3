package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/graph"
)

// TestTraceSmokeLarge is the CI trace-smoke body: a ~100k-update
// spanner build through the real CLI path with -trace and -trace-out,
// validating that the timeline covers the expected phases and the
// Chrome trace file parses with the expected event set. Gated behind an
// env var — it pushes 10^5 updates through a 4-worker ingest.
func TestTraceSmokeLarge(t *testing.T) {
	if os.Getenv("DYNSTREAM_TRACE_SMOKE") == "" {
		t.Skip("set DYNSTREAM_TRACE_SMOKE=1 to run the 100k-update trace smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	g := graph.ConnectedGNP(1500, 0.02, 81)
	churn := (100000 - g.M()) / 2
	if churn < 0 {
		churn = 0
	}
	st := dynstream.StreamWithChurn(g, churn, 82)
	t.Logf("stream: n=%d, %d updates", st.N(), st.Len())

	dir := t.TempDir()
	streamPath := filepath.Join(dir, "stream.txt")
	f, err := os.Create(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "n %d\n", st.N())
	err = st.Replay(func(u dynstream.Update) error {
		op := "+"
		if u.Delta < 0 {
			op = "-"
		}
		_, err := fmt.Fprintf(w, "%s %d %d\n", op, u.U, u.V)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "trace.json")
	var out, errOut strings.Builder
	err = run(ctx, []string{"spanner", "-k", "2", "-seed", "83", "-workers", "4",
		"-trace", "-trace-out", tracePath, "-in", streamPath},
		strings.NewReader(""), &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}

	// The stderr timeline must cover ingest and both spanner phases. A
	// local build ingests both passes into one state, so there are no
	// shard or merge spans.
	timeline := errOut.String()
	for _, phase := range []string{"== trace:", "ingest ", "spanner/cluster/level00", "spanner/recover", "ingested updates:"} {
		if !strings.Contains(timeline, phase) {
			t.Errorf("timeline missing %q:\n%s", phase, timeline)
		}
	}
	for _, phase := range []string{"ingest/shard", "ingest/merge"} {
		if strings.Contains(timeline, phase) {
			t.Errorf("timeline has %q, want one state per build:\n%s", phase, timeline)
		}
	}

	// The trace file must parse, and its complete events must cover the
	// same phase set.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
			Args struct {
				Workers int `json:"workers"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			phases[ev.Name]++
			if ev.Dur < 1 {
				t.Errorf("event %q has dur %d < 1µs", ev.Name, ev.Dur)
			}
			if ev.Name == "ingest" && ev.Args.Workers != 4 {
				t.Errorf("ingest span has workers = %d, want 4", ev.Args.Workers)
			}
			if strings.HasPrefix(ev.Name, "ingest/") {
				t.Errorf("trace file has phase %q, want one state per build", ev.Name)
			}
		}
	}
	for _, want := range []string{"ingest", "spanner/cluster/level00", "spanner/recover"} {
		if phases[want] == 0 {
			t.Errorf("trace file missing phase %q; has %v", want, phases)
		}
	}
	if phases["ingest"] != 2 {
		t.Errorf("ingest spans = %d, want 2 (two passes)", phases["ingest"])
	}
	t.Logf("trace: %d events across %d phases", len(doc.TraceEvents), len(phases))
}
