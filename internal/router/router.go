// Package router is the cluster-serving front end (DESIGN.md §14): an
// HTTP reverse proxy that spreads /v1 and /v2 traffic across N
// replica cmd/serve processes, lifting "one Registry per process" to
// "one logical model across a fleet".
//
// The pieces:
//
//   - a replica table with health probing over each replica's
//     /healthz JSON (serve.HealthResponse). A replica is Ready,
//     Degraded (serving but impaired — old version draining, partial
//     readiness) or Down (unreachable, refusing, or draining for
//     shutdown); failed probes re-probe on exponential backoff.
//   - routing policy: least-loaded (router-side in-flight count, ties
//     broken by table order) for predict and everything else;
//     consistent hash by session key (rendezvous hashing) for rollout,
//     so a streaming rollout pins to one replica for its whole life.
//   - retry-once on connect failure: a request that dies before any
//     response byte reaches the client is replayed once on a different
//     replica, and the failed replica is marked Down immediately. The
//     error surface reuses the /v2 envelope shape
//     ({"error":{code,message,model}}) with codes "no_replicas" (503)
//     and "replica_unreachable" (502), and X-Request-ID is assigned at
//     the router and propagated to the replica, so one failed request
//     names both request and replica.
//   - rolling hot-swap: POST /v2/admin/swap drives each replica's own
//     zero-downtime swap in sequence, waiting for the replica's
//     /healthz to report the new version before touching the next —
//     a deploy never has two replicas mid-swap, so fleet capacity
//     never drops below N−1 (router.go tracks the minimum routable
//     count across the swap and exports it on /metrics).
//   - warm standbys: replicas registered but unrouted (pre-loaded
//     from an artifact dir by the operator) until POST
//     /v2/admin/promote moves them into the routed set. Rolling swaps
//     include standbys (after the routed replicas), so a promoted
//     standby always serves the fleet's current version.
//
// Everything is testable in-process with httptest replicas; cmd/router
// is a thin flag shell around Router.
package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// maxBodyBytes bounds buffered request and response bodies (matches
// internal/serve's request bound).
const maxBodyBytes = 256 << 20

// State is a replica's router-side health classification.
type State int32

const (
	// Down: unreachable, refusing connections, reporting
	// draining/empty, or failed mid-request. Not routable.
	Down State = iota
	// Degraded: serving but impaired (replica healthz "degraded").
	// Routable only when no replica is Ready.
	Degraded
	// Ready: replica healthz "ok". Preferred routing target.
	Ready
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Degraded:
		return "degraded"
	}
	return "down"
}

// ReplicaSpec names one replica: a stable ID (what healthz, logs and
// metrics attribute to) and its base URL.
type ReplicaSpec struct {
	ID  string
	URL string
}

// replica is one table entry: spec, typed probe client, and the
// router-side view of its health and load.
type replica struct {
	id     string
	url    string
	client *serve.Client

	standby  atomic.Bool
	inflight atomic.Int64 // proxied requests currently on this replica
	requests atomic.Int64 // proxied attempts ever sent here

	mu        sync.Mutex
	state     State
	version   string // default model's version, from the last probe
	lastErr   string
	failures  int       // consecutive probe failures
	nextProbe time.Time // zero = probe at the next tick
}

// snapshot returns the mutex-guarded fields consistently.
func (rep *replica) snapshot() (State, string, string) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.state, rep.version, rep.lastErr
}

// markDown records a mid-request transport failure: the replica stops
// being routable right now, and the prober re-probes it at its next
// tick (resurrecting it as soon as it answers again).
func (rep *replica) markDown(err error) {
	rep.mu.Lock()
	rep.state = Down
	rep.lastErr = err.Error()
	rep.nextProbe = time.Time{}
	rep.mu.Unlock()
}

// Config tunes a Router.
type Config struct {
	// Replicas is the routed set, in table order (ties in least-loaded
	// routing break toward the earlier entry).
	Replicas []ReplicaSpec
	// Standbys are registered but unrouted until promoted.
	Standbys []ReplicaSpec
	// ProbeInterval is the healthy re-probe period (default 250ms);
	// failed probes back off exponentially from it up to
	// ProbeBackoffMax (default 5s).
	ProbeInterval   time.Duration
	ProbeBackoffMax time.Duration
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
	// SwapTimeout bounds how long a rolling swap waits for ONE
	// replica's healthz to converge on the new version before aborting
	// the deploy (default 60s); SwapPoll is the convergence poll
	// period (default 25ms).
	SwapTimeout time.Duration
	SwapPoll    time.Duration
	// HTTPClient is the proxy transport (default http.DefaultClient).
	HTTPClient *http.Client
	// AccessLog, when set, receives one line per routed request
	// (method, path, status, replica, retries, duration, request ID).
	AccessLog *log.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 250 * time.Millisecond
	}
	if out.ProbeBackoffMax <= 0 {
		out.ProbeBackoffMax = 5 * time.Second
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = 2 * time.Second
	}
	if out.SwapTimeout <= 0 {
		out.SwapTimeout = 60 * time.Second
	}
	if out.SwapPoll <= 0 {
		out.SwapPoll = 25 * time.Millisecond
	}
	if out.HTTPClient == nil {
		out.HTTPClient = http.DefaultClient
	}
	return out
}

// Router is the http.Handler front end over a replica fleet. Build it
// with New (which probes the table once and starts the background
// prober) and stop it with Close.
type Router struct {
	cfg       Config
	client    *http.Client
	mux       *http.ServeMux
	accessLog *log.Logger

	mu       sync.Mutex // guards table membership (promote)
	replicas []*replica // routed, table order
	standbys []*replica

	stop      chan struct{}
	stopOnce  sync.Once
	probeDone chan struct{}

	swapMu sync.Mutex // serializes rolling swaps

	requests        atomic.Int64 // proxied client requests
	retries         atomic.Int64 // second attempts after a dead first pick
	failed          atomic.Int64 // proxied requests answered 502/503 by the router itself
	swaps           atomic.Int64 // completed rolling swaps
	swapMinRoutable atomic.Int64 // min routable replicas during the last rolling swap
}

// New builds a router over the given fleet, probes every replica once
// (so routing decisions are informed from the first request), and
// starts the background health prober. Close reaps the prober.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		cfg:       cfg,
		client:    cfg.HTTPClient,
		mux:       http.NewServeMux(),
		accessLog: cfg.AccessLog,
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	seen := map[string]bool{}
	build := func(spec ReplicaSpec, standby bool) (*replica, error) {
		if spec.ID == "" || spec.URL == "" {
			return nil, fmt.Errorf("router: replica needs both id and url, got %q=%q", spec.ID, spec.URL)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("router: duplicate replica id %q", spec.ID)
		}
		seen[spec.ID] = true
		c := serve.NewClient(spec.URL)
		c.HTTPClient = cfg.HTTPClient
		rep := &replica{id: spec.ID, url: strings.TrimRight(spec.URL, "/"), client: c}
		rep.standby.Store(standby)
		return rep, nil
	}
	for _, spec := range cfg.Replicas {
		rep, err := build(spec, false)
		if err != nil {
			return nil, err
		}
		rt.replicas = append(rt.replicas, rep)
	}
	for _, spec := range cfg.Standbys {
		rep, err := build(spec, true)
		if err != nil {
			return nil, err
		}
		rt.standbys = append(rt.standbys, rep)
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("POST /v2/admin/swap", rt.handleSwap)
	rt.mux.HandleFunc("POST /v2/admin/promote", rt.handlePromote)
	rt.mux.HandleFunc("POST /v2/admin/load", rt.handleUnsupportedAdmin)
	rt.mux.HandleFunc("POST /v2/admin/unload", rt.handleUnsupportedAdmin)
	rt.mux.HandleFunc("/", rt.handleProxy)
	rt.probeAll(true) // informed table before the first request
	go rt.probeLoop()
	return rt, nil
}

// Close stops the background prober and waits for it to exit. The
// router stays usable as a handler (requests just run on the last
// probed view); call it when the HTTP server is done.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.probeDone
}

// Stats is a point-in-time read of the router counters (what
// /metrics exports), for shutdown summaries and tests.
type Stats struct {
	Requests int64 // proxied client requests
	Retries  int64 // second attempts after a dead first pick
	Failed   int64 // requests the client saw fail (router 5xx or truncation)
	Swaps    int64 // completed rolling swaps
}

// Stats returns the current counter values.
func (rt *Router) Stats() Stats {
	return Stats{
		Requests: rt.requests.Load(),
		Retries:  rt.retries.Load(),
		Failed:   rt.failed.Load(),
		Swaps:    rt.swaps.Load(),
	}
}

// routed returns a snapshot of the routed replica slice.
func (rt *Router) routed() []*replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*replica(nil), rt.replicas...)
}

// standbyList returns a snapshot of the standby slice.
func (rt *Router) standbyList() []*replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*replica(nil), rt.standbys...)
}

// routableCount counts routed replicas currently accepting traffic
// (Ready or Degraded).
func (rt *Router) routableCount() int {
	n := 0
	for _, rep := range rt.routed() {
		if st, _, _ := rep.snapshot(); st != Down {
			n++
		}
	}
	return n
}

// ServeHTTP assigns the request ID at the fleet edge, echoes it, and
// dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := serve.EnsureRequestID(r)
	w.Header().Set(serve.RequestIDHeader, id)
	r.Header.Set(serve.RequestIDHeader, id) // one ID end to end
	rt.mux.ServeHTTP(w, r)
}

// isRollout reports whether path is a streaming rollout route (the
// session-pinned, flush-per-frame surface).
func isRollout(path string) bool {
	return strings.HasSuffix(path, "/rollout")
}

// sessionKey extracts the rollout pinning key: the session query
// parameter, else the X-Session-ID header, else the request ID (which
// still pins all frames of ONE streamed rollout to one replica, since
// a rollout is a single HTTP request).
func sessionKey(r *http.Request) string {
	if s := r.URL.Query().Get("session"); s != "" {
		return s
	}
	if s := r.Header.Get("X-Session-ID"); s != "" {
		return s
	}
	return r.Header.Get(serve.RequestIDHeader)
}

// pick chooses the replica for one attempt: rendezvous-hash by
// session key for rollouts, least-loaded otherwise; Ready replicas
// are preferred, Degraded ones are the fallback tier, Down and
// excluded ones never picked. Returns nil when nothing is routable.
func (rt *Router) pick(r *http.Request, exclude *replica) *replica {
	var ready, degraded []*replica
	for _, rep := range rt.routed() {
		if rep == exclude {
			continue
		}
		switch st, _, _ := rep.snapshot(); st {
		case Ready:
			ready = append(ready, rep)
		case Degraded:
			degraded = append(degraded, rep)
		}
	}
	pool := ready
	if len(pool) == 0 {
		pool = degraded
	}
	if len(pool) == 0 {
		return nil
	}
	if isRollout(r.URL.Path) {
		return rendezvous(pool, sessionKey(r))
	}
	return leastLoaded(pool)
}

// leastLoaded returns the pool entry with the fewest router-side
// in-flight requests, ties broken by table order (pool preserves it).
func leastLoaded(pool []*replica) *replica {
	best := pool[0]
	bestLoad := best.inflight.Load()
	for _, rep := range pool[1:] {
		if l := rep.inflight.Load(); l < bestLoad {
			best, bestLoad = rep, l
		}
	}
	return best
}

// rendezvous implements highest-random-weight (rendezvous) hashing:
// every (session, replica) pair gets a stable score and the highest
// score wins. The same session always maps to the same replica while
// that replica is in the pool, and losing a replica only remaps the
// sessions that were pinned to it.
func rendezvous(pool []*replica, session string) *replica {
	best := pool[0]
	bestScore := rendezvousScore(session, best.id)
	for _, rep := range pool[1:] {
		if s := rendezvousScore(session, rep.id); s > bestScore ||
			(s == bestScore && rep.id < best.id) {
			best, bestScore = rep, s
		}
	}
	return best
}

func rendezvousScore(session, replicaID string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, session)
	io.WriteString(h, "\x00")
	io.WriteString(h, replicaID)
	return h.Sum64()
}

// routerErr reports a router-originated failure in the /v2 envelope
// shape, and counts it as a failed request.
func (rt *Router) routerErr(w http.ResponseWriter, r *http.Request, err error, status int) {
	rt.failed.Add(1)
	writeEnvelope(w, r, err, status)
}

// writeEnvelope writes the /v2-shaped error envelope with the
// router's own codes (503 → "no_replicas", 502 →
// "replica_unreachable", else mapped by status).
func writeEnvelope(w http.ResponseWriter, r *http.Request, err error, status int) {
	code := "internal"
	switch status {
	case http.StatusServiceUnavailable:
		code = "no_replicas"
	case http.StatusBadGateway:
		code = "replica_unreachable"
	case http.StatusBadRequest:
		code = "bad_request"
	case http.StatusNotFound:
		code = "not_found"
	case http.StatusNotImplemented:
		code = "unsupported"
	case http.StatusGatewayTimeout:
		code = "swap_aborted"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"message":%q,"request_id":%q}}`+"\n",
		code, err.Error(), r.Header.Get(serve.RequestIDHeader))
}

// handleProxy forwards one client request to a replica, retrying once
// on a different replica if the first attempt dies before any
// response byte has been committed to the client.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rid := r.Header.Get(serve.RequestIDHeader)
	start := time.Now()
	// The request body is buffered once, in a pooled slab sized from
	// Content-Length, so it can be replayed; the slab is held until the
	// last attempt has returned (and, by its reference count, until the
	// transport has let go of every attempt's reader).
	body, err := serve.ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		rt.routerErr(w, r, fmt.Errorf("router: reading request body: %w", err), http.StatusBadRequest)
		return
	}
	defer body.Release()
	var lastErr error
	var exclude *replica
	for attempt := 0; attempt < 2; attempt++ {
		rep := rt.pick(r, exclude)
		if rep == nil {
			if lastErr == nil {
				rt.routerErr(w, r, fmt.Errorf("router: no routable replicas"), http.StatusServiceUnavailable)
			} else {
				rt.routerErr(w, r, fmt.Errorf("router: replica %s unreachable and no other routable replica: %w",
					exclude.id, lastErr), http.StatusBadGateway)
			}
			return
		}
		if attempt > 0 {
			rt.retries.Add(1)
		}
		status, err := rt.forward(w, r, rep, body)
		if err == nil {
			rt.logf("%s %s status=%d replica=%s retries=%d dur=%s request=%s",
				r.Method, r.URL.Path, status, rep.id, attempt,
				time.Since(start).Round(time.Microsecond), rid)
			return
		}
		if status != 0 {
			// The response line already reached the client; replaying
			// would corrupt the stream. The client sees the truncation.
			rt.failed.Add(1)
			rt.logf("%s %s status=%d replica=%s TRUNCATED err=%q request=%s",
				r.Method, r.URL.Path, status, rep.id, err, rid)
			return
		}
		rep.markDown(err)
		rt.logf("%s %s replica=%s connect failure, retrying once: %v request=%s",
			r.Method, r.URL.Path, rep.id, err, rid)
		lastErr, exclude = err, rep
	}
	rt.routerErr(w, r, fmt.Errorf("router: both replica attempts failed, last (%s): %w",
		exclude.id, lastErr), http.StatusBadGateway)
}

// forward sends one attempt to rep. It returns (0, err) when the
// attempt is retryable — nothing has been written to the client — and
// (status, nil/err) once the response has been committed. Rollout
// responses stream with a flush per write; everything else is
// buffered fully before committing, so a replica dying mid-response
// stays retryable.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, rep *replica, body *serve.Body) (int, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	rep.requests.Add(1)
	out, err := body.NewRequest(r.Context(), r.Method, rep.url+r.URL.RequestURI())
	if err != nil {
		return 0, err
	}
	copyHeader(out.Header, r.Header, "Content-Type", "Accept", serve.RequestIDHeader)
	// The router is the trust edge: OVERWRITE X-Forwarded-For with the
	// connection's own peer address (never append to the inbound value,
	// which a client could seed) so a replica running admission with
	// -policy-xff applies its CIDR and rate policy to the real client,
	// not to the router's address.
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		out.Header.Set("X-Forwarded-For", host)
	}
	resp, err := rt.client.Do(out)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()

	if isRollout(r.URL.Path) && resp.StatusCode == http.StatusOK {
		// Streaming: commit immediately and flush every chunk so the
		// client sees frames as the replica produces them.
		copyHeader(w.Header(), resp.Header, "Content-Type")
		w.Header().Set("X-Served-By", rep.id)
		w.WriteHeader(resp.StatusCode)
		flusher, _ := w.(http.Flusher)
		const chunk = 32 << 10
		slab := serve.NewBody(chunk)
		defer slab.Release()
		buf := slab.B[:chunk]
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return resp.StatusCode, werr
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if errors.Is(rerr, io.EOF) {
				return resp.StatusCode, nil
			}
			if rerr != nil {
				return resp.StatusCode, rerr
			}
		}
	}

	// Buffered: only commit a complete response. The proxied surface
	// (predict, models, v1) is idempotent, so a replica dying mid-body
	// is safe to replay on another replica.
	respBody, err := serve.ReadBody(io.LimitReader(resp.Body, maxBodyBytes), resp.ContentLength)
	if err != nil {
		return 0, fmt.Errorf("router: replica %s died mid-response: %w", rep.id, err)
	}
	defer respBody.Release()
	copyHeader(w.Header(), resp.Header, "Content-Type")
	w.Header().Set("X-Served-By", rep.id)
	w.Header().Set("Content-Length", strconv.Itoa(len(respBody.B)))
	w.WriteHeader(resp.StatusCode)
	_, werr := w.Write(respBody.B)
	return resp.StatusCode, werr
}

// copyHeader copies the named header keys from src to dst.
func copyHeader(dst, src http.Header, keys ...string) {
	for _, k := range keys {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

// handleUnsupportedAdmin rejects per-model load/unload at the router:
// they are per-replica operations (which replica should own the new
// model?); address the replica directly.
func (rt *Router) handleUnsupportedAdmin(w http.ResponseWriter, r *http.Request) {
	writeEnvelope(w, r, fmt.Errorf("router: %s is a per-replica operation; address the replica directly (the router supports /v2/admin/swap and /v2/admin/promote)",
		r.URL.Path), http.StatusNotImplemented)
}

// handlePromote moves a warm standby into the routed set.
func (rt *Router) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req serve.AdminRequest
	if err := readJSON(r, &req); err != nil {
		writeEnvelope(w, r, err, http.StatusBadRequest)
		return
	}
	if req.Name == "" {
		writeEnvelope(w, r, fmt.Errorf("router: promote needs the standby replica id (\"name\")"), http.StatusBadRequest)
		return
	}
	rt.mu.Lock()
	var promoted *replica
	for i, rep := range rt.standbys {
		if rep.id == req.Name {
			promoted = rep
			rt.standbys = append(rt.standbys[:i], rt.standbys[i+1:]...)
			rt.replicas = append(rt.replicas, rep)
			break
		}
	}
	rt.mu.Unlock()
	if promoted == nil {
		writeEnvelope(w, r, fmt.Errorf("router: no standby replica %q", req.Name), http.StatusNotFound)
		return
	}
	promoted.standby.Store(false)
	rt.probeOne(promoted, true) // route on fresh state, not the stale standby view
	rt.logf("promoted standby %s into the routed set", promoted.id)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"op":"promote","name":%q}`+"\n", promoted.id)
}

// readJSON decodes a small JSON admin body.
func readJSON(r *http.Request, v any) error {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("router: reading admin body: %w", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("router: admin body: %w", err)
	}
	return nil
}

// logf writes one access-log line when Config.AccessLog is set.
func (rt *Router) logf(format string, args ...any) {
	if rt.accessLog != nil {
		rt.accessLog.Printf(format, args...)
	}
}
