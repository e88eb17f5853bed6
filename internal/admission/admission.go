// Package admission is the edge admission-control layer (DESIGN.md
// §15): a policy gate wrapped around the HTTP front door of both
// internal/serve (replica-side) and internal/router (fleet-edge),
// ahead of the engine, so overload degrades deliberately instead of
// collapsing the tail. Three stages run per request:
//
//  1. CIDR policy — a longest-prefix-match radix trie over the
//     client's IPv4/IPv6 address decides allow / deny / class-assign
//     (deny → 403 "denied"). cmd/policyc compiles and summarizes the
//     same rule table offline, to check a policy before a deploy.
//  2. Per-client token buckets — keyed by the policy's identity
//     header, else the client IP; configurable rate/burst, lazily
//     GC'd. Empty bucket → 429 "rate_limited" with a Retry-After
//     computed from the refill rate.
//  3. Priority classes with deadline-aware queueing — a bounded
//     per-class queue ahead of the engine. When the concurrency
//     budget is exceeded the lowest class sheds first (503
//     "overloaded" + Retry-After); queue time of shed requests lands
//     in a histogram on /metrics.
//
// Rejections reuse the /v2 error-envelope shape
// ({"error":{"code","message","request_id"}}), the policy hot-reloads
// atomically (POST /v2/admin/policy, or SIGHUP in the cmds) without
// dropping in-flight requests, and every stage exports
// repro_admission_* counters. /healthz, /metrics and /v2/admin/* are
// exempt from the stages so health probes, scrapes and operator
// actions — including the reload that un-wedges a bad policy — keep
// working under full shed.
//
// The package sits under the detpath analyzer: it never reads the
// wall clock itself. Config.Now injects the clock (time.Now in the
// cmds, a scripted clock in tests), which is what makes token-bucket
// refill and Retry-After arithmetic deterministically testable.
package admission

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// Config is the Gate's process-lifetime wiring. Everything a reload
// may change lives in the Policy instead.
type Config struct {
	// Now is the clock (required by tests, defaulted to time.Now by
	// New). The Gate never calls time.Now directly — see the package
	// comment.
	Now func() time.Time
	// TrustForwardedFor resolves the client address from the first
	// X-Forwarded-For entry when present. Enable it ONLY behind a
	// proxy that overwrites the header (cmd/router does); trusting it
	// from the open internet lets clients spoof their way past CIDR
	// rules and rate limits.
	TrustForwardedFor bool
	// AccessLog, when set, receives one line per rejected request.
	AccessLog *log.Logger
}

// classStats is one class's monotonic counters. Classes are keyed by
// name so counters survive policy reloads that reorder the class
// list.
type classStats struct {
	name string
	shed atomic.Int64
}

// Gate is the admission middleware: an http.Handler wrapping the
// serving front door. Build it with New, swap policies with
// SetPolicy.
type Gate struct {
	inner http.Handler
	cfg   Config
	now   func() time.Time

	tab atomic.Pointer[Table]

	buckets *buckets

	schedMu sync.Mutex
	sched   scheduler

	// Counters (exported as repro_admission_* on /metrics).
	allowed     atomic.Int64
	denied      atomic.Int64
	rateLimited atomic.Int64
	reloads     atomic.Int64
	shedWait    stats.Histogram

	// classStats by name, insertion-ordered for export (the map is
	// only indexed, never iterated — the package is detpath-scoped).
	classMu    sync.Mutex
	classByID  []*classStats // index = priority level seen so far
	classOrder []*classStats
	classNames map[string]*classStats
}

// New builds a Gate around inner enforcing pol.
func New(inner http.Handler, pol *Policy, cfg Config) (*Gate, error) {
	tab, err := pol.Compile()
	if err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	g := &Gate{
		inner:      inner,
		cfg:        cfg,
		now:        cfg.Now,
		buckets:    newBuckets(),
		classNames: make(map[string]*classStats),
	}
	g.tab.Store(tab)
	g.syncClassStats(tab)
	return g, nil
}

// table returns the current compiled policy.
func (g *Gate) table() *Table { return g.tab.Load() }

// Policy returns a copy of the currently enforced policy document.
func (g *Gate) Policy() Policy { return g.table().Source() }

// Classes returns the enforced class names in priority order.
func (g *Gate) Classes() []string { return g.table().Classes() }

// Reloads reports how many times the policy has been swapped.
func (g *Gate) Reloads() int64 { return g.reloads.Load() }

// SetPolicy compiles and atomically installs a new policy. In-flight
// requests are never dropped: running requests keep their slots,
// queued waiters keep their place (their class priority was fixed at
// enqueue), and buckets keep their balances (rate/burst apply from
// the next refill). If the new policy disables the queue stage, every
// queued waiter is granted immediately — nothing may wait on a stage
// that no longer exists.
func (g *Gate) SetPolicy(pol *Policy) error {
	tab, err := pol.Compile()
	if err != nil {
		return err
	}
	g.tab.Store(tab)
	g.syncClassStats(tab)
	g.reloads.Add(1)
	if tab.maxConcurrent == 0 {
		var flushed []*waiter
		g.schedMu.Lock()
		for qi := range g.sched.queues {
			for _, w := range g.sched.queues[qi] {
				w.done = true
				g.sched.running++
				flushed = append(flushed, w)
			}
			g.sched.queues[qi] = nil
		}
		g.schedMu.Unlock()
		for _, w := range flushed {
			w.ch <- admitGranted
		}
	}
	return nil
}

// syncClassStats makes sure every class of tab has a counter bundle,
// keyed by name (so a reload that reorders classes keeps counting
// into the same series) and mirrored by priority index for the shed
// path.
func (g *Gate) syncClassStats(tab *Table) {
	g.classMu.Lock()
	defer g.classMu.Unlock()
	for len(g.classByID) < len(tab.classes) {
		g.classByID = append(g.classByID, nil)
	}
	for i, c := range tab.classes {
		cs := g.classNames[c.name]
		if cs == nil {
			cs = &classStats{name: c.name}
			g.classNames[c.name] = cs
			g.classOrder = append(g.classOrder, cs)
		}
		g.classByID[i] = cs
	}
}

// classStatsFor resolves the counter bundle for a priority index. A
// waiter enqueued under an older, longer class list may carry an
// index past the current table; it still has a bundle from when it
// was enqueued.
func (g *Gate) classStatsFor(class int) *classStats {
	g.classMu.Lock()
	defer g.classMu.Unlock()
	if class >= 0 && class < len(g.classByID) && g.classByID[class] != nil {
		return g.classByID[class]
	}
	cs := g.classNames[defaultClassName]
	if cs == nil {
		cs = &classStats{name: defaultClassName}
		g.classNames[defaultClassName] = cs
		g.classOrder = append(g.classOrder, cs)
	}
	return cs
}

// PolicyAdminPath is the hot-reload route the Gate serves itself.
const PolicyAdminPath = "/v2/admin/policy"

// ServeHTTP runs the three stages, then hands the request to the
// wrapped handler. Health, metrics and admin routes are exempt (see
// the package comment); /metrics passes through and gains the
// repro_admission_* families appended to the inner exposition.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == PolicyAdminPath:
		g.handlePolicyAdmin(w, r)
		return
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		g.inner.ServeHTTP(w, r)
		g.writeMetrics(w)
		return
	case r.URL.Path == "/healthz" || strings.HasPrefix(r.URL.Path, "/v2/admin/"):
		g.inner.ServeHTTP(w, r)
		return
	}

	tab := g.table()
	rid := serve.EnsureRequestID(r)
	r.Header.Set(serve.RequestIDHeader, rid)

	// Stage 1: CIDR policy.
	addr, haveAddr := g.clientAddr(r)
	action, class := tab.defaultAction, tab.defaultClass
	ruleClass := -1
	if haveAddr {
		if v, ok := tab.trie.lookup(addr); ok {
			action = v.action
			ruleClass = v.class
		}
	}
	if action == ActionDeny {
		g.denied.Add(1)
		g.reject(w, r, http.StatusForbidden, "denied",
			fmt.Sprintf("admission: client %s is denied by traffic policy", addrLabel(addr, haveAddr)), 0)
		return
	}
	switch {
	case ruleClass >= 0:
		class = ruleClass // the network policy's assignment wins
	case tab.classHeader != "":
		if name := r.Header.Get(tab.classHeader); name != "" {
			if idx, ok := tab.classIndex[name]; ok {
				class = idx
			}
		}
	}

	// Stage 2: per-client token bucket.
	if tab.rate > 0 {
		key := g.identity(r, tab, addr, haveAddr)
		ok, wait := g.buckets.take(key, tab.rate, tab.burst, g.now())
		if !ok {
			g.rateLimited.Add(1)
			g.reject(w, r, http.StatusTooManyRequests, "rate_limited",
				fmt.Sprintf("admission: rate limit exceeded for %s (%g req/s, burst %g)", key, tab.rate, tab.burst), wait)
			return
		}
	}

	// Stage 3: priority queue against the concurrency budget.
	if tab.maxConcurrent > 0 {
		outcome, waited := g.admit(r.Context(), class, tab.classes[class].queue, tab.maxConcurrent)
		if outcome == admitShed {
			g.reject(w, r, http.StatusServiceUnavailable, "overloaded",
				fmt.Sprintf("admission: overloaded, class %q shed after %s queued",
					g.classStatsFor(class).name, waited.Round(time.Millisecond)), tab.retryAfter)
			return
		}
		defer g.release()
	}

	g.allowed.Add(1)
	g.inner.ServeHTTP(w, r)
}

// clientAddr resolves the client IP: the first X-Forwarded-For entry
// when the Gate trusts its proxy, else the connection's remote
// address.
func (g *Gate) clientAddr(r *http.Request) (netip.Addr, bool) {
	if g.cfg.TrustForwardedFor {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first, _, _ := strings.Cut(xff, ",")
			if a, err := netip.ParseAddr(strings.TrimSpace(first)); err == nil {
				return a.Unmap(), true
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	a, err := netip.ParseAddr(host)
	if err != nil {
		return netip.Addr{}, false
	}
	return a.Unmap(), true
}

func addrLabel(a netip.Addr, ok bool) string {
	if !ok {
		return "(unknown address)"
	}
	return a.String()
}

// maxIdentityLen bounds header-supplied bucket keys so a hostile
// client cannot inflate the bucket table with megabyte identities.
const maxIdentityLen = 128

// identity resolves the token-bucket key: the identity header when
// the policy names one and the request carries it, else the client
// IP.
func (g *Gate) identity(r *http.Request, tab *Table, addr netip.Addr, haveAddr bool) string {
	if tab.identityHeader != "" {
		if v := r.Header.Get(tab.identityHeader); v != "" {
			if len(v) > maxIdentityLen {
				v = v[:maxIdentityLen]
			}
			return "id:" + v
		}
	}
	if haveAddr {
		return "ip:" + addr.String()
	}
	return "ip:unknown"
}

// errorEnvelope mirrors the /v2 error wire shape.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// reject writes one typed refusal: the /v2-shaped envelope, the
// request ID echoed, and Retry-After (whole seconds, rounded up,
// floor 1) when retryAfter > 0.
func (g *Gate) reject(w http.ResponseWriter, r *http.Request, status int, code, msg string, retryAfter time.Duration) {
	rid := r.Header.Get(serve.RequestIDHeader)
	w.Header().Set(serve.RequestIDHeader, rid)
	if retryAfter > 0 {
		secs := int64(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{
		Code:      code,
		Message:   msg,
		RequestID: rid,
	}})
	if g.cfg.AccessLog != nil {
		g.cfg.AccessLog.Printf("%s %s status=%d code=%s request=%s", r.Method, r.URL.Path, status, code, rid)
	}
}

// handlePolicyAdmin serves the hot-reload route: POST installs the
// body as the new policy (the whole policy JSON document), GET
// returns the currently enforced one.
func (g *Gate) handlePolicyAdmin(w http.ResponseWriter, r *http.Request) {
	rid := serve.EnsureRequestID(r)
	r.Header.Set(serve.RequestIDHeader, rid)
	w.Header().Set(serve.RequestIDHeader, rid)
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(g.Policy())
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			status, code := http.StatusBadRequest, "bad_policy"
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status, code = http.StatusRequestEntityTooLarge, "too_large"
			}
			g.reject(w, r, status, code, fmt.Sprintf("admission: policy body: %v", err), 0)
			return
		}
		pol, err := ParsePolicy(body)
		if err != nil {
			g.reject(w, r, http.StatusBadRequest, "bad_policy", err.Error(), 0)
			return
		}
		if err := g.SetPolicy(pol); err != nil {
			g.reject(w, r, http.StatusBadRequest, "bad_policy", err.Error(), 0)
			return
		}
		tab := g.table()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"op":"policy","rules":%d,"classes":%d,"reloads":%d}`+"\n",
			tab.Rules(), len(tab.classes), g.reloads.Load())
	default:
		g.reject(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
			"admission: GET or POST only", 0)
	}
}

// writeMetrics appends the repro_admission_* families to an inner
// /metrics exposition.
func (g *Gate) writeMetrics(w http.ResponseWriter) {
	tab := g.table()
	fmt.Fprintf(w, "# TYPE repro_admission_allowed_total counter\nrepro_admission_allowed_total %d\n", g.allowed.Load())
	fmt.Fprintf(w, "# TYPE repro_admission_denied_total counter\nrepro_admission_denied_total %d\n", g.denied.Load())
	fmt.Fprintf(w, "# TYPE repro_admission_rate_limited_total counter\nrepro_admission_rate_limited_total %d\n", g.rateLimited.Load())
	fmt.Fprintf(w, "# TYPE repro_admission_shed_total counter\n")
	g.classMu.Lock()
	order := append([]*classStats(nil), g.classOrder...)
	g.classMu.Unlock()
	for _, cs := range order {
		fmt.Fprintf(w, "repro_admission_shed_total{class=%q} %d\n", cs.name, cs.shed.Load())
	}
	fmt.Fprintf(w, "# TYPE repro_admission_policy_reloads_total counter\nrepro_admission_policy_reloads_total %d\n", g.reloads.Load())
	fmt.Fprintf(w, "# TYPE repro_admission_rules gauge\nrepro_admission_rules %d\n", tab.Rules())
	fmt.Fprintf(w, "# TYPE repro_admission_buckets gauge\nrepro_admission_buckets %d\n", g.buckets.len())
	g.schedMu.Lock()
	queued := g.sched.queuedLocked()
	running := g.sched.running
	g.schedMu.Unlock()
	fmt.Fprintf(w, "# TYPE repro_admission_queued gauge\nrepro_admission_queued %d\n", queued)
	fmt.Fprintf(w, "# TYPE repro_admission_running gauge\nrepro_admission_running %d\n", running)
	snap := g.shedWait.Snapshot()
	fmt.Fprintf(w, "# HELP repro_admission_shed_wait_seconds time shed requests spent queued before refusal\n")
	fmt.Fprintf(w, "# TYPE repro_admission_shed_wait_seconds histogram\n")
	for i, bound := range snap.Bounds {
		fmt.Fprintf(w, "repro_admission_shed_wait_seconds_bucket{le=%q} %d\n",
			strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), snap.CumulativeCounts[i])
	}
	fmt.Fprintf(w, "repro_admission_shed_wait_seconds_bucket{le=\"+Inf\"} %d\n", snap.Count)
	fmt.Fprintf(w, "repro_admission_shed_wait_seconds_sum %g\n", snap.Sum.Seconds())
	fmt.Fprintf(w, "repro_admission_shed_wait_seconds_count %d\n", snap.Count)
}
