package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynstream"
)

// ErrDraining is returned to updates arriving after a graceful drain
// began: the daemon stops admitting state changes but keeps serving
// queries until the HTTP listener shuts down.
var ErrDraining = errors.New("serve: draining, updates no longer admitted")

// Server owns the daemon's live backends and serves the HTTP API over
// them. One ingest mutex totally orders update batches across all
// backends, so every target observes the same update sequence and every
// query labels itself with an applied-update count that is a true
// prefix of that sequence.
type Server struct {
	backends map[string]Backend
	order    []string // sorted target names
	metrics  *Metrics
	logf     func(format string, a ...any)

	ready    atomic.Bool
	draining atomic.Bool

	// ingestMu orders update batches across backends and guards the
	// auto-checkpoint schedule. Queries do NOT take it — they serialize
	// per backend on the handle's own mutex, which is exactly the
	// consistency the protocol needs (batch-boundary snapshots).
	ingestMu  sync.Mutex
	sinceCkpt int

	ckptPath  string
	every     int
	slowQuery time.Duration

	// Request limits. NewServer sets the exported constants below; they
	// are fields only so that limits_test.go can shrink them — a test
	// seam, not configuration, and not meant to grow into ServerConfig.
	maxBody           int64
	readHeaderTimeout time.Duration
	idleTimeout       time.Duration
}

// Limits on what one client can hold of the daemon: the largest
// /v1/update body it reads (about a million updates in either format),
// how long a connection may take to deliver its request headers, and
// how long an idle keep-alive connection is kept open.
const (
	MaxUpdateBodyBytes = 32 << 20
	ReadHeaderTimeout  = 10 * time.Second
	IdleTimeout        = 2 * time.Minute
)

// ServerConfig configures NewServer.
type ServerConfig struct {
	// Checkpoint is the snapshot path ("" disables checkpointing). With
	// more than one backend each target writes Checkpoint.<target>.
	Checkpoint string
	// Every auto-snapshots after this many admitted updates (0 = only
	// explicit /v1/checkpoint and the final drain snapshot).
	Every int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, a ...any)
	// SlowQuery logs any query slower than this threshold through Logf
	// (0 disables the slow-query log).
	SlowQuery time.Duration
}

// NewServer wraps the given backends (at least one) in a server.
func NewServer(backends []Backend, cfg ServerConfig) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: no backends")
	}
	s := &Server{
		backends:  map[string]Backend{},
		metrics:   NewMetrics(),
		ckptPath:  cfg.Checkpoint,
		every:     cfg.Every,
		logf:      cfg.Logf,
		slowQuery: cfg.SlowQuery,

		maxBody:           MaxUpdateBodyBytes,
		readHeaderTimeout: ReadHeaderTimeout,
		idleTimeout:       IdleTimeout,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	n := backends[0].N()
	for _, b := range backends {
		if b.N() != n {
			return nil, fmt.Errorf("serve: backends disagree on vertex count (%d vs %d)", n, b.N())
		}
		if _, dup := s.backends[b.Target()]; dup {
			return nil, fmt.Errorf("serve: duplicate target %q", b.Target())
		}
		s.backends[b.Target()] = b
		s.order = append(s.order, b.Target())
	}
	sort.Strings(s.order)
	s.ready.Store(true)
	return s, nil
}

// N returns the vertex count shared by every backend.
func (s *Server) N() int { return s.backends[s.order[0]].N() }

// Metrics returns the server's metric registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// CheckpointPathFor returns the snapshot path of one target under the
// server's path scheme: the bare path for a single backend, path.target
// when several targets share the daemon.
func (s *Server) CheckpointPathFor(target string) string {
	if s.ckptPath == "" {
		return ""
	}
	if len(s.order) == 1 {
		return s.ckptPath
	}
	return s.ckptPath + "." + target
}

// CheckpointPathsFor computes the per-target snapshot path scheme for a
// daemon configured with path and the given targets — the same scheme a
// Server with that configuration uses, callable before backends exist
// (the daemon resolves restore paths with it at startup).
func CheckpointPathsFor(path string, targets []string) map[string]string {
	out := map[string]string{}
	if path == "" {
		return out
	}
	for _, t := range targets {
		if len(targets) == 1 {
			out[t] = path
		} else {
			out[t] = path + "." + t
		}
	}
	return out
}

// ApplyBatch admits one update batch: it folds the batch into every
// backend (in sorted target order, under the ingest mutex) and runs the
// auto-checkpoint schedule. A draining server rejects the batch with
// ErrDraining.
func (s *Server) ApplyBatch(updates []dynstream.Update) error {
	if len(updates) == 0 {
		return nil
	}
	if s.draining.Load() {
		return ErrDraining
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	for _, name := range s.order {
		if err := s.backends[name].Apply(updates); err != nil {
			return err
		}
	}
	s.metrics.AddUpdates(len(updates))
	s.sinceCkpt += len(updates)
	if s.every > 0 && s.ckptPath != "" && s.sinceCkpt >= s.every {
		s.sinceCkpt = 0
		if _, err := s.checkpointLocked(); err != nil {
			return fmt.Errorf("serve: auto-checkpoint: %w", err)
		}
	}
	return nil
}

// checkpointLocked snapshots every backend; the caller holds ingestMu,
// so the snapshot set is a consistent cut across targets.
func (s *Server) checkpointLocked() ([]string, error) {
	if s.ckptPath == "" {
		return nil, fmt.Errorf("no -checkpoint path configured")
	}
	var paths []string
	for _, name := range s.order {
		p := s.CheckpointPathFor(name)
		if err := s.backends[name].CheckpointTo(p); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	s.metrics.AddCheckpoint()
	s.logf("checkpoint saved to %s (%d updates applied)", strings.Join(paths, ", "), s.backends[s.order[0]].Applied())
	return paths, nil
}

// Checkpoint forces a snapshot of every backend now.
func (s *Server) Checkpoint() ([]string, int64, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	paths, err := s.checkpointLocked()
	if err != nil {
		return nil, 0, err
	}
	s.sinceCkpt = 0
	return paths, s.backends[s.order[0]].Applied(), nil
}

// Drain begins the graceful shutdown: updates are rejected from this
// point (readyz turns 503), in-flight batches finish under the ingest
// mutex, and a final checkpoint is written if a path is configured.
// Queries keep working; the daemon shuts the HTTP listener down after
// Drain returns.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // second signal: drain already underway
	}
	s.ready.Store(false)
	// Taking the ingest mutex waits out any in-flight batch, so the
	// final snapshot contains every update whose Apply succeeded.
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.ckptPath != "" {
		if _, err := s.checkpointLocked(); err != nil {
			return fmt.Errorf("serve: final checkpoint: %w", err)
		}
	}
	return nil
}

// Draining reports whether a graceful drain is underway.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	return mux
}

// HTTPServer returns the http.Server to serve Handler on, with the
// header and idle timeouts set: a bare http.Server lets a client that
// never finishes its headers, or never closes, hold a connection and
// its goroutine forever. Request bodies are bounded by the handlers
// themselves; query responses can take as long as a decode does, so
// there is no write timeout.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.readHeaderTimeout,
		IdleTimeout:       s.idleTimeout,
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, a ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, a...)})
}

// handleUpdate admits one batch: a JSON UpdateRequest body, or a
// text/plain body of update lines (the feed format).
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Either format is read to the end before anything is applied, so
	// the body bound is also the bound on what one request can allocate.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	tooLarge := func(err error) bool {
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) {
			return false
		}
		writeError(w, http.StatusRequestEntityTooLarge, "update body exceeds %d bytes; split the batch", mbe.Limit)
		return true
	}
	var updates []dynstream.Update
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "text/plain") {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			u, ok, err := ParseLine(sc.Text(), s.N())
			if err != nil {
				// The scanner hands over a line cut short by the body
				// limit as its last token, before it reports the limit.
				if sc.Scan() || !tooLarge(sc.Err()) {
					s.metrics.AddFeedError()
					writeError(w, http.StatusBadRequest, "bad update line: %v", err)
				}
				return
			}
			if ok {
				updates = append(updates, u)
			}
		}
		if err := sc.Err(); err != nil {
			if !tooLarge(err) {
				writeError(w, http.StatusBadRequest, "read body: %v", err)
			}
			return
		}
	} else {
		var req UpdateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			if !tooLarge(err) {
				writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			}
			return
		}
		updates = make([]dynstream.Update, 0, len(req.Updates))
		for _, u := range req.Updates {
			w := u.W
			if w == 0 {
				w = 1
			}
			updates = append(updates, dynstream.Update{U: u.U, V: u.V, Delta: u.Delta, W: w})
		}
	}
	if err := s.ApplyBatch(updates); err != nil {
		if errors.Is(err, ErrDraining) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.metrics.AddFeedError()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{
		Count:   len(updates),
		Applied: s.backends[s.order[0]].Applied(),
	})
}

// resolveTarget picks the backend for a request's ?target= parameter
// (optional when the daemon serves exactly one).
func (s *Server) resolveTarget(r *http.Request) (Backend, error) {
	name := r.URL.Query().Get("target")
	if name == "" {
		if len(s.order) == 1 {
			return s.backends[s.order[0]], nil
		}
		return nil, fmt.Errorf("this daemon serves %s; pick one with ?target=", strings.Join(s.order, ", "))
	}
	b, ok := s.backends[name]
	if !ok {
		return nil, fmt.Errorf("no %q target here (serving %s)", name, strings.Join(s.order, ", "))
	}
	return b, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	b, err := s.resolveTarget(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res, err := b.Query(r.Context())
	elapsed := time.Since(start)
	s.metrics.ObserveQuery(b.Target(), elapsed, err)
	if s.slowQuery > 0 && elapsed >= s.slowQuery {
		s.logf("slow query: target=%s elapsed=%s applied=%d err=%v", b.Target(), elapsed.Round(time.Microsecond), b.Applied(), err)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "query %s: %v", b.Target(), err)
		return
	}
	// Query bodies run to one object per result edge: they are appended
	// into a pooled buffer, not reflected over.
	buf := queryBodies.Get().(*[]byte)
	defer queryBodies.Put(buf)
	body, ok := appendQueryResponse((*buf)[:0], res)
	if !ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	*buf = body
	// The body is whole before the header goes out: its length is sent,
	// so an answer past net/http's buffer is not chunked.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) // a failed write means the client has gone
}

var queryBodies = sync.Pool{New: func() any { return new([]byte) }}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := StatusResponse{
		Ready:         s.ready.Load(),
		Draining:      s.draining.Load(),
		UptimeSeconds: s.metrics.Uptime().Seconds(),
		UpdatesTotal:  s.metrics.UpdatesTotal(),
		QueriesTotal:  s.metrics.QueriesTotal(),
		Checkpoints:   s.metrics.Checkpoints(),
	}
	if last := s.metrics.LastCheckpoint(); !last.IsZero() {
		st.LastCheckpoint = last.UTC().Format(time.RFC3339Nano)
	}
	for _, name := range s.order {
		b := s.backends[name]
		cs := b.CacheStats()
		st.Targets = append(st.Targets, TargetStatus{
			Target:      name,
			N:           b.N(),
			Applied:     b.Applied(),
			CacheHits:   cs.Hits,
			CacheMisses: cs.Misses,
		})
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	paths, applied, err := s.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Paths: paths, Applied: applied})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	targets := make([]targetCacheStats, 0, len(s.order))
	for _, name := range s.order {
		b := s.backends[name]
		cs := b.CacheStats()
		targets = append(targets, targetCacheStats{
			target: name, applied: b.Applied(), hits: cs.Hits, misses: cs.Misses,
		})
	}
	s.metrics.WritePrometheus(w, s.ready.Load(), s.draining.Load(), targets)
}

// IngestFeed consumes update lines from r — the daemon's continuous
// feed — batching them into ApplyBatch calls: a batch is admitted when
// it reaches batchSize or the reader blocks long enough that the
// scanner returns (EOF for files and closed pipes). Malformed lines are
// counted and logged but do NOT kill the feed (a long-running daemon
// survives a garbled producer). The feed ends at EOF, on a canceled
// ctx, or when the server starts draining.
func (s *Server) IngestFeed(ctx context.Context, r io.Reader, batchSize int) error {
	if batchSize < 1 {
		batchSize = 256
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	batch := make([]dynstream.Update, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := s.ApplyBatch(batch)
		batch = batch[:0]
		return err
	}
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.draining.Load() {
			return nil
		}
		u, ok, err := ParseLine(sc.Text(), s.N())
		if err != nil {
			s.metrics.AddFeedError()
			s.logf("feed: %v", err)
			continue
		}
		if !ok {
			continue
		}
		batch = append(batch, u)
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				if errors.Is(err, ErrDraining) {
					return nil
				}
				return err
			}
		}
	}
	if err := flush(); err != nil && !errors.Is(err, ErrDraining) {
		return err
	}
	return sc.Err()
}
