package dynnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// pipeWorker starts an in-process worker over a net.Pipe and returns
// the coordinator's end.
func pipeWorker(t *testing.T, ctx context.Context, cfg WorkerConfig) net.Conn {
	t.Helper()
	cc, wc := net.Pipe()
	go ServeWorker(ctx, wc, cfg)
	return cc
}

func testStream(t *testing.T, n, churn int, seed uint64) *stream.MemoryStream {
	t.Helper()
	g := graph.ConnectedGNP(n, 0.1, seed)
	return stream.WithChurn(g, churn, seed+1)
}

// forestPass builds a coordinator-side forest pass over st and returns
// the proto that accumulates the merged worker states.
func forestPass(t *testing.T, st stream.Source, seed uint64) (Pass, *agm.Sketch) {
	t.Helper()
	proto := agm.New(seed, st.N(), agm.Config{})
	blob, err := proto.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return Pass{
		Kind: KindForest,
		Blob: blob,
		Src:  st,
		N:    st.N(),
		Collect: func(blobs [][]byte) error {
			for _, b := range blobs {
				s := &agm.Sketch{}
				if err := s.UnmarshalBinary(b); err != nil {
					return err
				}
				if err := proto.Merge(s); err != nil {
					return err
				}
			}
			return nil
		},
	}, proto
}

func serialForest(t *testing.T, st stream.Source, seed uint64) []byte {
	t.Helper()
	want := agm.New(seed, st.N(), agm.Config{})
	if err := st.Replay(func(u stream.Update) error { want.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	enc, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestCoordinatorPassMatchesSerial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st := testStream(t, 60, 300, 7)
	conns := []net.Conn{
		pipeWorker(t, ctx, WorkerConfig{ID: "a"}),
		pipeWorker(t, ctx, WorkerConfig{ID: "b"}),
		pipeWorker(t, ctx, WorkerConfig{ID: "c"}),
	}
	c, err := NewCoordinator(ctx, conns)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.WorkerIDs(); fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("worker ids: %v", got)
	}

	p, proto := forestPass(t, st, 99)
	var updates atomic.Int64
	p.Progress = func(n int) { updates.Add(int64(n)) }
	if err := c.RunPass(ctx, p); err != nil {
		t.Fatal(err)
	}
	got, err := proto.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialForest(t, st, 99)) {
		t.Fatal("remote pass state differs from serial ingest")
	}
	if updates.Load() != int64(st.Len()) {
		t.Fatalf("progress saw %d updates, stream has %d", updates.Load(), st.Len())
	}
	out, in := c.Bytes()
	if out == 0 || in == 0 {
		t.Fatalf("byte accounting: %d out, %d in", out, in)
	}
}

// dropConn fails all reads/writes after `after` writes have gone
// through — a deterministic stand-in for a worker process killed
// mid-stream.
type dropConn struct {
	net.Conn
	writes int32
	after  int32
}

func (d *dropConn) Write(b []byte) (int, error) {
	if atomic.AddInt32(&d.writes, 1) > d.after {
		d.Conn.Close()
		return 0, errors.New("worker dropped")
	}
	return d.Conn.Write(b)
}

// TestWorkerDropFailover kills one worker's connection mid-stream and
// checks that the coordinator re-replays its shard to a survivor,
// producing the exact serial state.
func TestWorkerDropFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st := testStream(t, 60, 400, 13)

	healthy1 := pipeWorker(t, ctx, WorkerConfig{ID: "ok1"})
	healthy2 := pipeWorker(t, ctx, WorkerConfig{ID: "ok2"})
	// The flaky worker's conn dies after a handful of coordinator
	// frames (HELLO ack, ASSIGN, then mid-UPDATES).
	cc, wc := net.Pipe()
	go ServeWorker(ctx, wc, WorkerConfig{ID: "flaky"})
	flaky := &dropConn{Conn: cc, after: 4}

	c, err := NewCoordinator(ctx, []net.Conn{healthy1, flaky, healthy2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p, proto := forestPass(t, st, 42)
	p.Batch = 16 // many frames, so the drop lands mid-stream
	if err := c.RunPass(ctx, p); err != nil {
		t.Fatalf("pass with a dropped worker failed: %v", err)
	}
	if c.Live() != 2 {
		t.Fatalf("live workers after drop: %d, want 2", c.Live())
	}
	got, err := proto.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, serialForest(t, st, 42)) {
		t.Fatal("failover state differs from serial ingest")
	}

	// The same coordinator keeps working for subsequent passes on the
	// survivors.
	p2, proto2 := forestPass(t, st, 43)
	if err := c.RunPass(ctx, p2); err != nil {
		t.Fatal(err)
	}
	enc2, _ := proto2.MarshalBinary()
	if !bytes.Equal(enc2, serialForest(t, st, 43)) {
		t.Fatal("post-failover pass differs from serial ingest")
	}
}

// TestAllWorkersDead pins the failure mode when no survivor remains.
func TestAllWorkersDead(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st := testStream(t, 30, 100, 17)
	cc, wc := net.Pipe()
	go ServeWorker(ctx, wc, WorkerConfig{ID: "only"})
	flaky := &dropConn{Conn: cc, after: 3}
	c, err := NewCoordinator(ctx, []net.Conn{flaky})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, _ := forestPass(t, st, 5)
	p.Batch = 8
	if err := c.RunPass(ctx, p); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
}

// TestAssignVertexCountMismatch pins the registry's n cross-check:
// every state kind must refuse a prototype whose vertex count differs
// from the ASSIGN's, instead of letting later in-range-for-n updates
// index out of the smaller state (a worker-process panic).
func TestAssignVertexCountMismatch(t *testing.T) {
	proto := agm.New(3, 16, agm.Config{})
	blob, err := proto.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newWorkerState(KindForest, 16, blob); err != nil {
		t.Fatalf("matching n rejected: %v", err)
	}
	if _, err := newWorkerState(KindForest, 1000, blob); err == nil {
		t.Fatal("mismatched n accepted")
	}
	if _, err := newWorkerState(StateKind(200), 16, blob); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestHostileRegistration is the malformed-HELLO / wrong-version table:
// the coordinator must reject each hostile peer with an error, never
// deadlock (every case runs under the test timeout guard).
func TestHostileRegistration(t *testing.T) {
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"empty close", nil},
		{"wrong version", AppendFrame(nil, FrameHello, EncodeHello(Hello{ID: "w"}))},
		{"not hello", AppendFrame(nil, FrameSketch, EncodeSketch(SketchMsg{}))},
		{"garbage", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"truncated hello", AppendFrame(nil, FrameHello, EncodeHello(Hello{ID: "w"}))[:5]},
		{"malformed hello payload", AppendFrame(nil, FrameHello, []byte{0xff, 0xff, 0xff})},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cc, hostile := net.Pipe()
			go func() {
				data := tc.bytes
				if tc.name == "wrong version" {
					data = append([]byte(nil), data...)
					data[0] = ProtocolVersion + 1
				}
				hostile.Write(data)
				// Drain whatever the coordinator answers, then hang up.
				buf := make([]byte, 1024)
				hostile.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
				hostile.Read(buf)
				hostile.Close()
			}()
			done := make(chan error, 1)
			go func() {
				_, err := NewCoordinator(ctx, []net.Conn{cc})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("case %d (%s): hostile registration accepted", i, tc.name)
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("case %d (%s): coordinator deadlocked", i, tc.name)
			}
		})
	}
}

// TestMidStreamDisconnectNoDeadlock covers the worker side of the
// hostile table: a coordinator that vanishes mid-pass (after ASSIGN,
// mid-UPDATES) must unblock the worker loop promptly.
func TestMidStreamDisconnectNoDeadlock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cc, wc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeWorker(ctx, wc, WorkerConfig{ID: "w"}) }()

	bw := bufio.NewWriter(cc)
	br := bufio.NewReader(cc)
	// Register: the worker speaks first (net.Pipe is synchronous, so
	// read its HELLO before answering).
	if f, _, err := ReadFrame(br); err != nil || f.Type != FrameHello {
		t.Fatalf("hello exchange: %v %v", f.Type, err)
	}
	if _, err := WriteFrame(bw, FrameHello, EncodeHello(Hello{ID: "coord"})); err != nil {
		t.Fatal(err)
	}
	// Begin a pass, stream one batch, then vanish without FLUSH.
	proto := agm.New(1, 8, agm.Config{})
	blob, _ := proto.MarshalBinary()
	if _, err := WriteFrame(bw, FrameAssign, EncodeAssign(Assign{Kind: KindForest, Seq: 1, N: 8, Blob: blob})); err != nil {
		t.Fatal(err)
	}
	upd := AppendUpdates(nil, []stream.Update{{U: 0, V: 1, Delta: 1, W: 1}})
	if _, err := WriteFrame(bw, FrameUpdates, upd); err != nil {
		t.Fatal(err)
	}
	cc.Close()

	select {
	case <-done:
		// Returned — no deadlock; any error is acceptable on a torn
		// connection.
	case <-time.After(15 * time.Second):
		t.Fatal("worker deadlocked after mid-stream disconnect")
	}
}

// TestWorkerCtxCancelTearsDown: canceling the worker context closes the
// connection even while the worker is blocked reading.
func TestWorkerCtxCancelTearsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cc, wc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeWorker(ctx, wc, WorkerConfig{ID: "w"}) }()
	// Complete registration so the worker blocks in its assign loop
	// (worker speaks first on the synchronous pipe).
	bw := bufio.NewWriter(cc)
	br := bufio.NewReader(cc)
	if f, _, err := ReadFrame(br); err != nil || f.Type != FrameHello {
		t.Fatalf("hello: %v %v", f.Type, err)
	}
	WriteFrame(bw, FrameHello, EncodeHello(Hello{ID: "coord"}))
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not observe cancellation")
	}
}
