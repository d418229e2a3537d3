package dynnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynstream/internal/stream"
)

// ErrNoWorkers reports a pass with no live workers left.
var ErrNoWorkers = errors.New("dynnet: no live workers")

// defaultHandshakeTimeout bounds the HELLO exchange so a silent peer
// cannot hang coordinator setup (Options.HandshakeTimeout overrides).
const defaultHandshakeTimeout = 10 * time.Second

// Options tunes the coordinator's connection management. The zero
// value gives the historical behavior: a 10s handshake timeout, one
// dial attempt per address, no per-frame deadlines, no redialing.
type Options struct {
	// HandshakeTimeout bounds the HELLO exchange per worker
	// (default 10s).
	HandshakeTimeout time.Duration
	// FrameTimeout, when > 0, bounds every frame read and write on a
	// worker connection — the heartbeat that declares a silent worker
	// dead (and recovers its shard) instead of hanging the pass. Size
	// it to the slowest expected single-frame exchange: the worker's
	// end-of-pass marshal+SKETCH is the longest gap.
	FrameTimeout time.Duration
	// DialAttempts is the number of connection attempts per address
	// (default 1). Attempts after the first back off exponentially.
	DialAttempts int
	// DialBackoff is the delay before the second attempt (default
	// 100ms), doubling per attempt up to DialMaxBackoff (default 5s),
	// each sleep jittered deterministically from JitterSeed.
	DialBackoff    time.Duration
	DialMaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter, so tests (and
	// reruns) sleep the same schedule.
	JitterSeed uint64
	// Redial lets shard recovery re-dial dropped workers that were
	// registered by address (DialOpts): the restarted worker re-enters
	// the build and its shard is re-replayed to it. Without it (or for
	// accepted connections, which have no address) shards only move to
	// surviving workers.
	Redial bool
}

// withDefaults resolves unset fields; negative durations are treated
// as unset.
func (o Options) withDefaults() Options {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = defaultHandshakeTimeout
	}
	if o.FrameTimeout < 0 {
		o.FrameTimeout = 0
	}
	if o.DialAttempts < 1 {
		o.DialAttempts = 1
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 100 * time.Millisecond
	}
	if o.DialMaxBackoff <= 0 {
		o.DialMaxBackoff = 5 * time.Second
	}
	return o
}

// workerConn is one registered worker connection.
type workerConn struct {
	id string
	// addr is the dialable address this worker was registered from;
	// empty for accepted connections. A non-empty addr is what makes a
	// dead worker redialable.
	addr string
	// mu guards conn (replaced on redial) against the ctx-cancel
	// watchdogs, which close connections from their own goroutine.
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// alive is cleared when the connection is torn down; atomic
	// because the ctx-cancel watchdog closes connections from its own
	// goroutine while RunPass reads the flag.
	alive atomic.Bool
}

// netConn returns the current connection under the swap lock.
func (w *workerConn) netConn() net.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn
}

// closeConn closes the current connection (nil-safe for a worker whose
// redial never completed).
func (w *workerConn) closeConn() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		return nil
	}
	return w.conn.Close()
}

// adopt installs a freshly handshaken connection on this worker slot.
func (w *workerConn) adopt(nw *workerConn) {
	w.mu.Lock()
	w.conn, w.br, w.bw, w.id = nw.conn, nw.br, nw.bw, nw.id
	w.mu.Unlock()
	w.alive.Store(true)
}

// Coordinator drives multi-process builds over a set of registered
// worker connections. It is the data-plane side of Build's
// WithRemoteWorkers option: each build pass ships a prototype state,
// streams shard updates, and merges the returned sketch blobs.
//
// A Coordinator serves one RunPass at a time (passes of one build are
// sequential by nature); it is not safe for concurrent RunPass calls.
type Coordinator struct {
	opts    Options
	workers []*workerConn
	out     frameCounters
	in      frameCounters
}

// frameCounters is per-frame-type wire accounting for one direction:
// frames, bytes, and wall time spent in the frame read or write call.
// Index 0 collects frames whose type could not be decoded (a torn or
// corrupt read). This is the single accounting source for everything
// wire-related: Bytes(), the CLI's progress output, and the tracer's
// dynnet counters all derive from it.
type frameCounters struct {
	count [maxFrameType + 1]atomic.Int64
	bytes [maxFrameType + 1]atomic.Int64
	wall  [maxFrameType + 1]atomic.Int64 // nanoseconds
}

func (fc *frameCounters) add(t FrameType, n int, d time.Duration) {
	if t > maxFrameType {
		t = 0
	}
	fc.count[t].Add(1)
	fc.bytes[t].Add(int64(n))
	fc.wall[t].Add(int64(d))
}

func (fc *frameCounters) total() int64 {
	var sum int64
	for i := range fc.bytes {
		sum += fc.bytes[i].Load()
	}
	return sum
}

func (fc *frameCounters) stats() []FrameStat {
	var out []FrameStat
	for i := range fc.count {
		if c := fc.count[i].Load(); c > 0 {
			out = append(out, FrameStat{
				Type:  FrameType(i),
				Count: c,
				Bytes: fc.bytes[i].Load(),
				Wall:  time.Duration(fc.wall[i].Load()),
			})
		}
	}
	return out
}

// FrameStat is the cumulative wire accounting of one frame type in one
// direction.
type FrameStat struct {
	Type  FrameType
	Count int64
	Bytes int64
	Wall  time.Duration
}

// FrameStats returns the per-frame-type accounting of both directions,
// in frame-type order, omitting types never seen.
func (c *Coordinator) FrameStats() (out, in []FrameStat) {
	return c.out.stats(), c.in.stats()
}

// ResolveNetwork maps a worker address to its network: "unix" for
// addresses with a unix: prefix or a path separator, "tcp" otherwise.
func ResolveNetwork(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	if rest, ok := strings.CutPrefix(addr, "tcp:"); ok {
		return "tcp", rest
	}
	if strings.ContainsAny(addr, "/") {
		return "unix", addr
	}
	return "tcp", addr
}

// Dial connects to worker processes listening at addrs ("host:port",
// "unix:/path", or a bare socket path) and registers each one.
func Dial(ctx context.Context, addrs ...string) (*Coordinator, error) {
	return DialOpts(ctx, Options{}, addrs...)
}

// DialOpts is Dial with explicit connection-management options:
// per-address exponential backoff with deterministic jitter
// (DialAttempts/DialBackoff), handshake and per-frame deadlines, and
// redial-on-recovery. Workers registered by address are redialable.
func DialOpts(ctx context.Context, opts Options, addrs ...string) (*Coordinator, error) {
	opts = opts.withDefaults()
	conns := make([]net.Conn, 0, len(addrs))
	for _, a := range addrs {
		conn, err := dialRetry(ctx, a, opts)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, conn)
	}
	c, err := NewCoordinatorOpts(ctx, conns, opts)
	if err != nil {
		return nil, err
	}
	for i, a := range addrs {
		c.workers[i].addr = a
	}
	return c, nil
}

// dialRetry dials one worker address under ctx, backing off
// exponentially between attempts with deterministic jitter.
func dialRetry(ctx context.Context, addr string, opts Options) (net.Conn, error) {
	network, address := ResolveNetwork(addr)
	var d net.Dialer
	delay := opts.DialBackoff
	var lastErr error
	for attempt := 0; attempt < opts.DialAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, jitter(delay, opts.JitterSeed, addr, attempt)); err != nil {
				return nil, fmt.Errorf("dynnet: dial worker %s: %w (last attempt: %v)", addr, err, lastErr)
			}
			delay *= 2
			if delay > opts.DialMaxBackoff {
				delay = opts.DialMaxBackoff
			}
		}
		conn, err := d.DialContext(ctx, network, address)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("dynnet: dial worker %s: %w", addr, err)
		}
	}
	return nil, fmt.Errorf("dynnet: dial worker %s after %d attempts: %w", addr, opts.DialAttempts, lastErr)
}

// jitter spreads one backoff sleep over [delay/2, delay], picked
// deterministically from (seed, address, attempt) — reruns of the same
// configuration sleep the same schedule, and distinct addresses
// desynchronize.
func jitter(delay time.Duration, seed uint64, addr string, attempt int) time.Duration {
	h := fnv.New64a()
	h.Write([]byte(addr))
	x := seed ^ h.Sum64() ^ uint64(attempt)
	// splitmix64 finalizer: a full-avalanche mix of the inputs.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	half := delay / 2
	if half <= 0 {
		return delay
	}
	return half + time.Duration(x%uint64(half+1))
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Accept waits for count workers to connect to ln and register — the
// coordinator-listens topology, where workers dial in with HELLO.
func Accept(ctx context.Context, ln net.Listener, count int) (*Coordinator, error) {
	return AcceptOpts(ctx, ln, count, Options{})
}

// AcceptOpts is Accept with explicit connection-management options.
// Accepted workers have no dialable address, so Options.Redial does
// not apply to them; the handshake and frame deadlines do.
func AcceptOpts(ctx context.Context, ln net.Listener, count int, opts Options) (*Coordinator, error) {
	if count < 1 {
		return nil, fmt.Errorf("dynnet: accept: need at least 1 worker, got %d", count)
	}
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	conns := make([]net.Conn, 0, count)
	for len(conns) < count {
		conn, err := ln.Accept()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("dynnet: accept worker: %w", err)
		}
		conns = append(conns, conn)
	}
	return NewCoordinatorOpts(ctx, conns, opts)
}

// NewCoordinator performs the HELLO registration exchange on each
// established connection and returns a coordinator over the registered
// workers. Connections with a wrong protocol version (or a malformed
// HELLO) are refused with an ERROR frame and the whole setup fails —
// version skew is a deployment bug, not a runtime condition to paper
// over.
func NewCoordinator(ctx context.Context, conns []net.Conn) (*Coordinator, error) {
	return NewCoordinatorOpts(ctx, conns, Options{})
}

// NewCoordinatorOpts is NewCoordinator with explicit
// connection-management options.
func NewCoordinatorOpts(ctx context.Context, conns []net.Conn, opts Options) (*Coordinator, error) {
	if len(conns) == 0 {
		return nil, ErrNoWorkers
	}
	c := &Coordinator{opts: opts.withDefaults()}
	closeAll := func() {
		for _, conn := range conns {
			conn.Close()
		}
	}
	stop := context.AfterFunc(ctx, closeAll)
	defer stop()
	for i, conn := range conns {
		w, err := c.handshake(conn, fmt.Sprintf("worker-%d", i))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dynnet: worker %d registration: %w", i, err)
		}
		c.workers = append(c.workers, w)
	}
	if ctx.Err() != nil {
		closeAll()
		return nil, ctx.Err()
	}
	return c, nil
}

// handshake runs the coordinator side of the HELLO exchange on one
// established connection: read the worker's HELLO under the handshake
// deadline, ack it, and return the registered connection.
func (c *Coordinator) handshake(conn net.Conn, fallbackID string) (*workerConn, error) {
	w := &workerConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
	conn.SetDeadline(time.Now().Add(c.opts.HandshakeTimeout))
	start := time.Now()
	f, nr, err := ReadFrame(w.br)
	c.in.add(f.Type, nr, time.Since(start))
	if err != nil {
		if errors.Is(err, ErrWrongVersion) {
			c.write(w, FrameError, EncodeError(ErrorMsg{
				Code: CodeWrongVersion,
				Msg:  fmt.Sprintf("coordinator speaks protocol version %d", ProtocolVersion),
			}))
		}
		return nil, err
	}
	if f.Type != FrameHello {
		return nil, fmt.Errorf("%w: sent %v instead of HELLO", ErrBadFrame, f.Type)
	}
	h, err := DecodeHello(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	w.id = h.ID
	if w.id == "" {
		w.id = fallbackID
	}
	if err := c.write(w, FrameHello, EncodeHello(Hello{ID: "coordinator"})); err != nil {
		return nil, fmt.Errorf("hello ack: %w", err)
	}
	conn.SetDeadline(time.Time{})
	w.alive.Store(true)
	return w, nil
}

// Close tears down every worker connection.
func (c *Coordinator) Close() error {
	var first error
	for _, w := range c.workers {
		if err := w.closeConn(); err != nil && first == nil {
			first = err
		}
		w.alive.Store(false)
	}
	return first
}

// Live returns the number of workers still considered healthy.
func (c *Coordinator) Live() int {
	n := 0
	for _, w := range c.workers {
		if w.alive.Load() {
			n++
		}
	}
	return n
}

// WorkerIDs returns the registered worker identifiers, in order.
func (c *Coordinator) WorkerIDs() []string {
	ids := make([]string, len(c.workers))
	for i, w := range c.workers {
		ids[i] = w.id
	}
	return ids
}

// Bytes returns the cumulative bytes put on and read off the wire —
// the bytes-on-wire figure the coordinator's progress output reports.
// It is the sum of the per-frame-type counters (FrameStats).
func (c *Coordinator) Bytes() (out, in int64) {
	return c.out.total(), c.in.total()
}

// write ships one frame to a worker, under the per-frame write
// deadline when Options.FrameTimeout is set.
func (c *Coordinator) write(w *workerConn, t FrameType, payload []byte) error {
	if d := c.opts.FrameTimeout; d > 0 {
		w.netConn().SetWriteDeadline(time.Now().Add(d))
		defer w.netConn().SetWriteDeadline(time.Time{})
	}
	start := time.Now()
	n, err := WriteFrame(w.bw, t, payload)
	c.out.add(t, n, time.Since(start))
	return err
}

// read collects one frame from a worker, under the per-frame read
// deadline when Options.FrameTimeout is set: a worker that goes silent
// mid-pass times out and is declared dead instead of hanging the pass.
func (c *Coordinator) read(w *workerConn) (Frame, error) {
	if d := c.opts.FrameTimeout; d > 0 {
		w.netConn().SetReadDeadline(time.Now().Add(d))
		defer w.netConn().SetReadDeadline(time.Time{})
	}
	start := time.Now()
	f, n, err := ReadFrame(w.br)
	c.in.add(f.Type, n, time.Since(start))
	return f, err
}

func (c *Coordinator) markDead(w *workerConn) {
	w.alive.Store(false)
	w.closeConn()
}

// redial re-establishes a dropped worker that was registered by
// address: one dial attempt (a dead process refuses instantly; a
// restarted one answers), then the normal HELLO exchange. On success
// the worker slot is live again and ready for re-replay.
func (c *Coordinator) redial(ctx context.Context, w *workerConn) error {
	network, address := ResolveNetwork(w.addr)
	dctx, cancel := context.WithTimeout(ctx, c.opts.HandshakeTimeout)
	var d net.Dialer
	conn, err := d.DialContext(dctx, network, address)
	cancel()
	if err != nil {
		return err
	}
	nw, err := c.handshake(conn, w.id)
	if err != nil {
		conn.Close()
		return err
	}
	w.adopt(nw)
	return nil
}

// Pass describes one build pass to run across the workers.
type Pass struct {
	// Kind selects the worker-side state type.
	Kind StateKind
	// Blob is the coordinator's marshaled prototype state; every worker
	// decodes it into an identical-randomness state.
	Blob []byte
	// Src is the stream to shard across workers. Ignored in Local mode.
	Src stream.Source
	// Local makes every worker ingest its own local shard source
	// instead of streamed updates.
	Local bool
	// N is the vertex count.
	N int
	// Batch is the updates-per-frame granularity (default
	// stream.DefaultBatchSize).
	Batch int
	// Seq is the pass sequence number within the build.
	Seq int
	// Progress, when non-nil, receives the size of every dispatched (or
	// remotely ingested) update batch. When a dropped worker's shard is
	// re-replayed, a negative correction for the batches already
	// reported to the dead worker is emitted first, so the cumulative
	// sum stays exactly the number of updates in the pass.
	Progress func(updates int)
	// Collect folds the workers' returned state blobs into the
	// coordinator's state: once every shard's SKETCH blob has been
	// collected it is called exactly once with the blobs in shard order.
	// Every state merge is an exact commutative group operation, so any
	// fold shape (a linear fold, a parallel tree merge) produces the same
	// state bit for bit.
	Collect func(blobs [][]byte) error
}

// RunPass executes one pass: ASSIGN the prototype to every live
// worker, stream the shard updates (round-robin, matching
// stream.Shard's assignment), FLUSH, collect the SKETCH blobs, and
// hand them to Collect in shard order.
//
// Failure handling: a worker whose connection drops — or, with a frame
// timeout set, goes silent — mid-pass is marked dead and its shard is
// re-replayed in full: first to the dropped worker itself if it came
// back and Options.Redial is set, otherwise to a surviving worker.
// Either is legal because the source is replayable and the sketches
// are linear (the dead worker's partial state is simply discarded). A
// worker that *reports* a typed ERROR (bad update, non-replayable
// local source) fails the pass instead: the same error would recur on
// any worker.
//
// Cancelling ctx tears down every connection, unblocking all reads and
// writes; RunPass then returns ctx.Err().
func (c *Coordinator) RunPass(ctx context.Context, p Pass) error {
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	wrapCtx := func(err error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	if p.Batch <= 0 {
		p.Batch = stream.DefaultBatchSize
	}

	live := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		if w.alive.Load() {
			live = append(live, w)
		}
	}
	W := len(live)
	if W == 0 {
		return ErrNoWorkers
	}

	assign := EncodeAssign(Assign{Kind: p.Kind, Local: p.Local, Seq: p.Seq, N: p.N, Blob: p.Blob})
	counted := make([]int64, W) // updates reported per shard (progress exactness on failover)
	var failed []int            // shard indexes needing re-replay
	for i, w := range live {
		if err := c.write(w, FrameAssign, assign); err != nil {
			c.markDead(w)
			failed = append(failed, i)
		}
	}

	// Stream the shards: one replay of the source, update i going to
	// shard i mod W — exactly stream.Shard's round-robin split, so a
	// failed shard can later be re-replayed from a Shard view.
	if !p.Local {
		if p.Src == nil {
			return fmt.Errorf("dynnet: streamed pass without a source")
		}
		bufs := make([][]stream.Update, W)
		for i := range bufs {
			bufs[i] = make([]stream.Update, 0, p.Batch)
		}
		var payload []byte
		send := func(s int) error {
			w := live[s]
			payload = AppendUpdates(payload[:0], bufs[s])
			nu := len(bufs[s])
			bufs[s] = bufs[s][:0]
			if err := c.write(w, FrameUpdates, payload); err != nil {
				c.markDead(w)
				failed = append(failed, s)
				return nil // shard recovered later by re-replay
			}
			counted[s] += int64(nu)
			if p.Progress != nil {
				p.Progress(nu)
			}
			return nil
		}
		pos := 0
		err := p.Src.Replay(func(u stream.Update) error {
			s := pos % W
			pos++
			if !live[s].alive.Load() {
				return nil
			}
			bufs[s] = append(bufs[s], u)
			if len(bufs[s]) >= p.Batch {
				if err := ctx.Err(); err != nil {
					return err
				}
				return send(s)
			}
			return nil
		})
		if err != nil {
			return wrapCtx(fmt.Errorf("dynnet: pass %d replay: %w", p.Seq, err))
		}
		for s := range bufs {
			if len(bufs[s]) > 0 && live[s].alive.Load() {
				if err := send(s); err != nil {
					return wrapCtx(err)
				}
			}
		}
	}

	// FLUSH and collect, in shard order.
	blobs := make([][]byte, W)
	for i, w := range live {
		if !w.alive.Load() {
			continue
		}
		if err := c.write(w, FrameFlush, nil); err != nil {
			c.markDead(w)
			failed = append(failed, i)
		}
	}
	for i, w := range live {
		if !w.alive.Load() {
			continue
		}
		blob, err := c.collectSketch(w, p)
		switch {
		case err == nil:
			blobs[i] = blob
		case errors.As(err, new(*remoteError)):
			return wrapCtx(fmt.Errorf("dynnet: worker %s, shard %d/%d: %w", w.id, i, W, err))
		default:
			c.markDead(w)
			failed = append(failed, i)
		}
	}

	// Re-replay dropped shards: to their redialed owner when possible,
	// otherwise to survivors.
	for _, s := range failed {
		if blobs[s] != nil {
			continue
		}
		blob, err := c.recoverShard(ctx, p, s, W, counted[s], live[s])
		if err != nil {
			return wrapCtx(fmt.Errorf("dynnet: shard %d/%d lost: %w", s, W, err))
		}
		blobs[s] = blob
	}

	for s, blob := range blobs {
		if blob == nil {
			return fmt.Errorf("dynnet: shard %d/%d produced no state", s, W)
		}
	}
	if err := p.Collect(blobs); err != nil {
		return wrapCtx(fmt.Errorf("dynnet: merge %d shards: %w", W, err))
	}
	return wrapCtx(ctx.Err())
}

// remoteError wraps an ERROR frame from a worker: a deliberate, typed
// report, not a connection failure — re-replaying elsewhere would hit
// the same condition, so it fails the pass.
type remoteError struct{ err error }

func (e *remoteError) Error() string { return e.err.Error() }
func (e *remoteError) Unwrap() error { return e.err }

// collectSketch reads one worker's end-of-pass response.
func (c *Coordinator) collectSketch(w *workerConn, p Pass) ([]byte, error) {
	f, err := c.read(w)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FrameSketch:
		m, err := DecodeSketch(f.Payload)
		if err != nil {
			return nil, &remoteError{err}
		}
		if p.Local && p.Progress != nil && m.Updates > 0 {
			p.Progress(int(m.Updates))
		}
		return m.Blob, nil
	case FrameError:
		e, derr := DecodeError(f.Payload)
		if derr != nil {
			return nil, &remoteError{derr}
		}
		return nil, &remoteError{e.Err()}
	default:
		return nil, &remoteError{fmt.Errorf("%w: expected SKETCH, got %v", ErrBadFrame, f.Type)}
	}
}

// recoverShard re-replays shard s (of the round-robin split into W).
// The candidate order per attempt: the shard's own dropped worker if
// it can be redialed (Options.Redial and a dialable address — a
// restarted worker process re-registers mid-build and takes its shard
// back), then any surviving worker, then any other redialable dead
// worker. The shard view replays the base source, so this requires a
// replayable source; local-shard passes cannot be recovered (the data
// lived with the dead worker).
func (c *Coordinator) recoverShard(ctx context.Context, p Pass, s, W int, already int64, owner *workerConn) ([]byte, error) {
	if p.Local {
		return nil, fmt.Errorf("dynnet: worker with a local shard died; its data is unreachable")
	}
	if !stream.CanReplay(p.Src) {
		return nil, fmt.Errorf("dynnet: cannot re-replay shard: %w", stream.ErrNotReplayable)
	}
	shard := &stream.Shard{Base: p.Src, Index: s, Count: W}
	assign := EncodeAssign(Assign{Kind: p.Kind, Local: false, Seq: p.Seq, N: p.N, Blob: p.Blob})
	redialed := make(map[*workerConn]bool)
	pick := func() *workerConn {
		if owner != nil && c.opts.Redial && owner.addr != "" &&
			!owner.alive.Load() && !redialed[owner] {
			redialed[owner] = true
			if c.redial(ctx, owner) == nil {
				return owner
			}
		}
		for _, cand := range c.workers {
			if cand.alive.Load() {
				return cand
			}
		}
		if c.opts.Redial {
			for _, cand := range c.workers {
				if cand.addr != "" && !redialed[cand] {
					redialed[cand] = true
					if c.redial(ctx, cand) == nil {
						return cand
					}
				}
			}
		}
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := pick()
		if w == nil {
			return nil, ErrNoWorkers
		}
		// Cancel out updates already reported for this shard (the
		// partial stream to the dead worker, or an earlier failed
		// recovery attempt), so the full re-replay leaves the
		// cumulative progress count exact.
		if p.Progress != nil && already != 0 {
			p.Progress(int(-already))
		}
		already = 0
		blob, err := c.replayShardTo(ctx, w, shard, assign, p, &already)
		if err == nil {
			return blob, nil
		}
		var re *remoteError
		if errors.As(err, &re) {
			return nil, err
		}
		c.markDead(w) // this worker died too; try the next one
	}
}

// replayShardTo runs one complete ASSIGN/UPDATES/FLUSH/SKETCH exchange
// of a single shard with a single worker.
func (c *Coordinator) replayShardTo(ctx context.Context, w *workerConn, shard stream.Source, assign []byte, p Pass, counted *int64) ([]byte, error) {
	if err := c.write(w, FrameAssign, assign); err != nil {
		return nil, err
	}
	var payload []byte
	err := stream.ReplayBatches(shard, p.Batch, func(b []stream.Update) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		payload = AppendUpdates(payload[:0], b)
		if err := c.write(w, FrameUpdates, payload); err != nil {
			return err
		}
		*counted += int64(len(b))
		if p.Progress != nil {
			p.Progress(len(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.write(w, FrameFlush, nil); err != nil {
		return nil, err
	}
	return c.collectSketch(w, p)
}
