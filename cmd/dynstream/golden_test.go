package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden from this binary's output. The
// committed files were generated by the binary of commit a592a43 (the
// parent of the PR that moved the CLI onto the serve target table), so
// the test pins stdout across that rewrite; regenerate only when a
// change to the output is intended.
var updateGolden = flag.Bool("update-golden", false, "rewrite cmd/dynstream/testdata/golden from this binary's stdout")

// goldenTargets are the seven subcommands (msf twice: with an explicit
// weight bound, and — one-shot only, a live handle needs the bound —
// with the scanning pass) over testdata/golden/stream.txt, a 60-vertex
// weighted stream with 40 insert-then-delete pairs.
var goldenTargets = []struct {
	name string
	args []string
	repl bool
}{
	{"spanner", []string{"spanner", "-k", "2", "-seed", "7"}, true},
	{"additive", []string{"additive", "-d", "3", "-seed", "7"}, true},
	{"sparsify", []string{"sparsify", "-k", "1", "-z", "4", "-seed", "7"}, true},
	{"forest", []string{"forest", "-seed", "7"}, true},
	{"kcert", []string{"kcert", "-k", "2", "-seed", "7"}, true},
	{"msf", []string{"msf", "-wmax", "8", "-seed", "7"}, true},
	{"msf-scan", []string{"msf", "-seed", "7"}, false},
	{"bipartite", []string{"bipartite", "-seed", "7"}, true},
}

// goldenReplScript exercises every repl command: a query of the base
// stream, inserts and a delete, a second query, save, an update that
// the following load discards, a third query (equal to the second),
// and a line the repl must reject in-band.
const goldenReplScript = `query
+ 0 59 2
- 0 38 3
+ 3 7 5
query
save CKPT
+ 10 50 4
load CKPT
query
frobnicate
quit
`

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestCLIOutputGolden pins the CLI's stdout byte for byte: every
// subcommand one-shot at -workers 1 and 3, and one -repl session per
// target.
func TestCLIOutputGolden(t *testing.T) {
	in := filepath.Join("testdata", "golden", "stream.txt")
	for _, tc := range goldenTargets {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []string{"1", "3"} {
				args := append(append([]string{}, tc.args...), "-workers", workers, "-in", in)
				out, _ := runCLI(t, args, "")
				checkGolden(t, tc.name+".oneshot.txt", out)
			}
			if !tc.repl {
				return
			}
			script := strings.ReplaceAll(goldenReplScript, "CKPT", filepath.Join(t.TempDir(), "ckpt"))
			args := append(append([]string{}, tc.args...), "-repl", "-in", in)
			var out, errOut bytes.Buffer
			if err := run(context.Background(), args, strings.NewReader(script), &out, &errOut); err != nil {
				t.Fatalf("repl: %v\nstderr: %s", err, errOut.String())
			}
			checkGolden(t, tc.name+".repl.txt", out.String())
		})
	}
}
