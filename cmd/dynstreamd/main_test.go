package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dynstream"
	"dynstream/internal/graph"
	"dynstream/internal/serve"
)

// The process tests re-exec the test binary as a real dynstreamd
// process: TestMain intercepts the child invocation (marked by
// DYNSTREAMD_ARGS) and routes it through the same run() the installed
// binary uses, so signals, exit codes, and stdio behave exactly as in
// production.
const daemonArgsEnv = "DYNSTREAMD_ARGS"

func TestMain(m *testing.M) {
	if argv := os.Getenv(daemonArgsEnv); argv != "" {
		os.Exit(run(strings.Split(argv, "\x1f"), os.Stdin, os.Stderr, os.LookupEnv))
	}
	os.Exit(m.Run())
}

// procTestLog builds the deterministic insert/delete stream the tests
// feed the daemon — same xorshift construction as the serve package's
// testLog, so prefixes replay identically everywhere.
func procTestLog(n, m int, seed uint64) []dynstream.Update {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var log []dynstream.Update
	type edge struct{ u, v int }
	live := map[edge]bool{}
	for len(log) < m {
		u := int(next() % uint64(n))
		v := int(next() % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if live[e] && next()%4 == 0 {
			log = append(log, dynstream.Update{U: u, V: v, W: 1, Delta: -1})
			delete(live, e)
			continue
		}
		if !live[e] {
			log = append(log, dynstream.Update{U: u, V: v, W: 1, Delta: 1})
			live[e] = true
		}
	}
	return log[:m]
}

// updLines renders updates in the text feed format.
func updLines(log []dynstream.Update) string {
	var b strings.Builder
	for _, u := range log {
		op := "+"
		if u.Delta < 0 {
			op = "-"
		}
		fmt.Fprintf(&b, "%s %d %d\n", op, u.U, u.V)
	}
	return b.String()
}

// offlineForestEdges is the ground truth: an offline Build over exactly
// log[:upto], rendered through the same graph the daemon's render uses,
// so a correct daemon response matches bit for bit.
func offlineForestEdges(t *testing.T, n int, log []dynstream.Update, upto int64, seed uint64) []serve.EdgeJSON {
	t.Helper()
	ms := dynstream.NewMemoryStream(n)
	for _, u := range log[:upto] {
		if err := ms.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	sk, err := dynstream.Build(context.Background(), ms, dynstream.ForestTarget{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := sk.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(n)
	for _, e := range forest {
		g.AddUnitEdge(e.U, e.V)
	}
	out := []serve.EdgeJSON{}
	for _, e := range g.Edges() {
		out = append(out, serve.EdgeJSON{U: e.U, V: e.V, W: e.W})
	}
	return out
}

// daemonProc is one live dynstreamd child process.
type daemonProc struct {
	t     *testing.T
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string // http://HOST:PORT

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon launches the daemon with -listen 127.0.0.1:0 plus the
// given flags, captures stderr, and waits for the listening line to
// learn the actual address.
func startDaemon(t *testing.T, env []string, args ...string) *daemonProc {
	t.Helper()
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), daemonArgsEnv+"="+strings.Join(args, "\x1f"))
	cmd.Env = append(cmd.Env, env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{t: t, cmd: cmd, stdin: stdin}
	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var line strings.Builder
		sentAddr := false
		for {
			n, err := stderrPipe.Read(buf)
			if n > 0 {
				p.mu.Lock()
				p.stderr.Write(buf[:n])
				p.mu.Unlock()
				if !sentAddr {
					line.Write(buf[:n])
					if i := strings.Index(line.String(), "listening on http://"); i >= 0 {
						rest := line.String()[i+len("listening on http://"):]
						if j := strings.IndexAny(rest, " \n"); j >= 0 {
							addrCh <- rest[:j]
							sentAddr = true
						}
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not report a listen address; stderr:\n%s", p.stderrText())
	}
	return p
}

func (p *daemonProc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// waitExit waits for the process and returns its exit code.
func (p *daemonProc) waitExit() int {
	err := p.cmd.Wait()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	p.t.Fatalf("wait: %v", err)
	return -1
}

// status fetches /v1/status.
func (p *daemonProc) status() (serve.StatusResponse, error) {
	var st serve.StatusResponse
	resp, err := http.Get(p.base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitStatus polls /v1/status until pred holds.
func (p *daemonProc) waitStatus(what string, pred func(serve.StatusResponse) bool) {
	p.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := p.status()
		if err == nil && pred(st) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.t.Fatalf("daemon never reached %s; stderr:\n%s", what, p.stderrText())
}

// waitUpdates polls /v1/status until the daemon has admitted want
// updates.
func (p *daemonProc) waitUpdates(want uint64) {
	p.t.Helper()
	p.waitStatus(fmt.Sprintf("%d updates", want),
		func(st serve.StatusResponse) bool { return st.UpdatesTotal >= want })
}

// query fetches /v1/query.
func (p *daemonProc) query() (serve.QueryResponse, error) {
	var qr serve.QueryResponse
	resp, err := http.Get(p.base + "/v1/query")
	if err != nil {
		return qr, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return qr, err
	}
	if resp.StatusCode != http.StatusOK {
		return qr, fmt.Errorf("query status %d", resp.StatusCode)
	}
	return qr, nil
}

// TestDaemonQueryVsOffline feeds a real daemon process over stdin and
// checks the HTTP query answer is bit-identical to an offline Build
// over the same stream. -n arrives via DYNSTREAM_N to exercise the env
// path end to end.
func TestDaemonQueryVsOffline(t *testing.T) {
	const (
		n    = 64
		m    = 1200
		seed = 7
	)
	log := procTestLog(n, m, 0x5eed)
	p := startDaemon(t, []string{"DYNSTREAM_N=64"},
		"-seed", "7", "-feed-batch", "50")

	if _, err := io.WriteString(p.stdin, updLines(log)); err != nil {
		t.Fatal(err)
	}
	p.stdin.Close() // EOF flushes the final partial batch
	p.waitUpdates(m)

	qr, err := p.query()
	if err != nil {
		t.Fatal(err)
	}
	if qr.Applied != m {
		t.Fatalf("query applied = %d, want %d", qr.Applied, m)
	}
	want := offlineForestEdges(t, n, log, m, seed)
	got := qr.Edges
	if got == nil {
		got = []serve.EdgeJSON{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("daemon forest diverges from offline build:\n got %v\nwant %v", got, want)
	}

	// A clean shutdown after the feed finished still exits 0.
	p.cmd.Process.Signal(syscall.SIGTERM)
	if code := p.waitExit(); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, p.stderrText())
	}
}

// TestDaemonSIGTERMDrain is the graceful-drain contract: SIGTERM
// mid-stream must exit 0, leave a valid final checkpoint, and that
// checkpoint must restore to a state bit-identical to the applied
// prefix of the feed.
func TestDaemonSIGTERMDrain(t *testing.T) {
	const (
		n    = 64
		m    = 600
		seed = 3
	)
	log := procTestLog(n, m, 0xabcdef)
	ckpt := filepath.Join(t.TempDir(), "drain.ckpt")
	p := startDaemon(t, nil,
		"-n", "64", "-seed", "3", "-feed-batch", "25", "-checkpoint", ckpt)

	// Feed the whole prefix but keep stdin open: the daemon is
	// mid-stream when the signal lands.
	if _, err := io.WriteString(p.stdin, updLines(log)); err != nil {
		t.Fatal(err)
	}
	p.waitUpdates(m)

	p.cmd.Process.Signal(syscall.SIGTERM)
	if code := p.waitExit(); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, p.stderrText())
	}

	// The final checkpoint restores to exactly the applied prefix.
	b, restored, note, err := serve.OpenBackend(context.Background(),
		serve.Spec{Target: "forest", N: n, Seed: seed}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if note != "" || restored != m {
		t.Fatalf("restore: applied %d (note %q), want %d from the drain checkpoint", restored, note, m)
	}
	qr, err := b.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := offlineForestEdges(t, n, log, m, seed)
	got := qr.Edges
	if got == nil {
		got = []serve.EdgeJSON{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state diverges from applied prefix:\n got %v\nwant %v", got, want)
	}
}

// TestDaemonSIGKILLRestart kills the daemon without warning and
// restarts it from its auto-checkpoint: the restored prefix plus a
// replayed suffix must reproduce the full-stream state exactly.
func TestDaemonSIGKILLRestart(t *testing.T) {
	const (
		n    = 64
		m    = 1000
		half = 500
		seed = 11
	)
	log := procTestLog(n, m, 0xfaded)
	ckpt := filepath.Join(t.TempDir(), "auto.ckpt")
	p := startDaemon(t, nil,
		"-n", "64", "-seed", "11", "-feed-batch", "50",
		"-checkpoint", ckpt, "-every", "100")

	if _, err := io.WriteString(p.stdin, updLines(log[:half])); err != nil {
		t.Fatal(err)
	}
	// UpdatesTotal advances before the auto-checkpoint in the same
	// batch finishes writing; the Checkpoints counter only advances
	// after the write is durable — wait for both before the kill, or
	// SIGKILL can land mid-write and leave only the previous snapshot.
	p.waitStatus("500 updates and 5 checkpoints", func(st serve.StatusResponse) bool {
		return st.UpdatesTotal >= half && st.Checkpoints >= half/100
	})
	p.cmd.Process.Kill()
	p.cmd.Wait()

	// Restart from the snapshot, HTTP-only.
	p2 := startDaemon(t, nil,
		"-n", "64", "-seed", "11", "-feed", "none", "-checkpoint", ckpt)
	st, err := p2.status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Targets) != 1 {
		t.Fatalf("status targets = %+v", st.Targets)
	}
	restored := st.Targets[0].Applied
	if restored != half {
		t.Fatalf("restored applied = %d, want %d (auto-checkpoint at the last -every boundary)", restored, half)
	}

	// Replay the suffix over HTTP and compare against the full stream.
	body := updLines(log[restored:])
	resp, err := http.Post(p2.base+"/v1/update", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d", resp.StatusCode)
	}
	qr, err := p2.query()
	if err != nil {
		t.Fatal(err)
	}
	if qr.Applied != m {
		t.Fatalf("after replay applied = %d, want %d", qr.Applied, m)
	}
	want := offlineForestEdges(t, n, log, m, seed)
	got := qr.Edges
	if got == nil {
		got = []serve.EdgeJSON{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored+replayed state diverges from offline build:\n got %v\nwant %v", got, want)
	}
	p2.cmd.Process.Signal(syscall.SIGTERM)
	if code := p2.waitExit(); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, p2.stderrText())
	}
}

// TestDaemonSmokeLarge is the acceptance run: a 1M-update feed with
// concurrent HTTP queries, every query bit-identical to an offline
// Build over its exact prefix. Minutes of work, so it only runs when
// DYNSTREAM_DAEMON_SMOKE=1.
func TestDaemonSmokeLarge(t *testing.T) {
	if os.Getenv("DYNSTREAM_DAEMON_SMOKE") != "1" {
		t.Skip("set DYNSTREAM_DAEMON_SMOKE=1 to run the 1M-update daemon smoke")
	}
	const (
		n     = 10000
		m     = 1000000
		batch = 1000
		seed  = 1
	)
	log := procTestLog(n, m, 0xbead5)
	p := startDaemon(t, nil,
		"-n", "10000", "-seed", "1", "-feed-batch", "1000")

	// Feed in a goroutine while queriers hammer the HTTP API.
	go func() {
		io.WriteString(p.stdin, updLines(log))
		p.stdin.Close()
	}()
	var wg sync.WaitGroup
	type snap struct {
		applied int64
		edges   []serve.EdgeJSON
	}
	var mu sync.Mutex
	var snaps []snap
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				qr, err := p.query()
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				mu.Lock()
				snaps = append(snaps, snap{qr.Applied, qr.Edges})
				mu.Unlock()
				time.Sleep(2 * time.Second)
			}
		}()
	}
	wg.Wait()
	p.waitUpdates(m)
	qr, err := p.query()
	if err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, snap{qr.Applied, qr.Edges})

	seen := map[int64]bool{}
	for _, sn := range snaps {
		if sn.applied%batch != 0 {
			t.Fatalf("query observed applied=%d, not a batch boundary", sn.applied)
		}
		if seen[sn.applied] {
			continue
		}
		seen[sn.applied] = true
		want := offlineForestEdges(t, n, log, sn.applied, seed)
		got := sn.edges
		if got == nil {
			got = []serve.EdgeJSON{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query at applied=%d diverges from offline build", sn.applied)
		}
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	if code := p.waitExit(); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
}
