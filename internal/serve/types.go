package serve

// The daemon's wire vocabulary. Every request/response body on the
// /v1/* endpoints is one of these types, and the client subcommand
// decodes into the same structs — kpod-style: the thin client shares
// the daemon's types instead of duplicating them.

// UpdateJSON is one stream update in a JSON update batch. Delta is +1
// (insert) or -1 (delete); W defaults to 1.
type UpdateJSON struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Delta int     `json:"delta"`
	W     float64 `json:"w,omitempty"`
}

// UpdateRequest is the JSON body of POST /v1/update. The endpoint also
// accepts a text/plain body of "+ u v [w]" / "- u v [w]" lines — the
// same format the feed and the repl speak.
type UpdateRequest struct {
	Updates []UpdateJSON `json:"updates"`
}

// UpdateResponse acknowledges an update batch: Count updates applied,
// Applied the daemon's total afterwards (identical across targets — a
// batch is folded into every backend before the next is admitted).
type UpdateResponse struct {
	Count   int   `json:"count"`
	Applied int64 `json:"applied"`
}

// EdgeJSON is one result edge.
type EdgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// QueryResponse is the body of GET /v1/query: the target's freshly
// extracted result as of exactly Applied updates. Result and count are
// read — and the result rendered — under one hold of the handle's mutex
// (Handle.QueryView), so the pair is a consistent batch-boundary
// snapshot — an offline Build over the first Applied updates of the
// same stream reproduces Edges bit for bit.
type QueryResponse struct {
	Target     string     `json:"target"`
	Applied    int64      `json:"applied"`
	Summary    string     `json:"summary"`
	Edges      []EdgeJSON `json:"edges,omitempty"`
	Connected  *bool      `json:"connected,omitempty"`
	Components int        `json:"components,omitempty"`
	Bipartite  *bool      `json:"bipartite,omitempty"`
}

// TargetStatus is one backend's slice of GET /v1/status.
type TargetStatus struct {
	Target      string `json:"target"`
	N           int    `json:"n"`
	Applied     int64  `json:"applied"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// StatusResponse is the body of GET /v1/status.
type StatusResponse struct {
	Ready          bool           `json:"ready"`
	Draining       bool           `json:"draining"`
	UptimeSeconds  float64        `json:"uptime_seconds"`
	UpdatesTotal   uint64         `json:"updates_total"`
	QueriesTotal   uint64         `json:"queries_total"`
	Checkpoints    uint64         `json:"checkpoints"`
	LastCheckpoint string         `json:"last_checkpoint,omitempty"`
	Targets        []TargetStatus `json:"targets"`
}

// CheckpointResponse is the body of POST /v1/checkpoint.
type CheckpointResponse struct {
	Paths   []string `json:"paths"`
	Applied int64    `json:"applied"`
}

// ErrorResponse is the JSON body of every non-2xx /v1/* response.
type ErrorResponse struct {
	Error string `json:"error"`
}
