package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeReplica is an httptest stand-in for a cmd/serve process: a
// scriptable /healthz, a recording /v2/admin/swap, and predict/rollout
// routes that answer with the replica's identity so tests can see
// where the router sent each request.
type fakeReplica struct {
	id  string
	srv *httptest.Server

	mu          sync.Mutex
	status      string // what /healthz reports
	version     string
	holdVersion bool          // accept swaps but never report the new version
	gate        chan struct{} // when non-nil, predict blocks until closed

	swapCalls atomic.Int64
	gauge     *swapGauge // shared across the fleet; nil = untracked
	swapDelay time.Duration
}

// swapGauge tracks how many replicas are inside their swap handler at
// once — the rolling-swap tests assert its high-water mark stays 1.
type swapGauge struct {
	cur, max atomic.Int32
}

func (g *swapGauge) enter() {
	c := g.cur.Add(1)
	for {
		m := g.max.Load()
		if c <= m || g.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (g *swapGauge) exit() { g.cur.Add(-1) }

func newFakeReplica(id string) *fakeReplica {
	f := &fakeReplica{id: id, status: "ok", version: "v1"}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		h := serve.HealthResponse{Status: f.status, Default: "demo", DefaultVersion: f.version, Replica: f.id}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("POST /v2/admin/swap", func(w http.ResponseWriter, r *http.Request) {
		f.swapCalls.Add(1)
		if f.gauge != nil {
			f.gauge.enter()
			defer f.gauge.exit()
		}
		if f.swapDelay > 0 {
			time.Sleep(f.swapDelay)
		}
		var req serve.AdminRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		if !f.holdVersion {
			f.version = req.Version
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.AdminResponse{Op: "swap", Name: req.Name, Version: req.Version})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		gate := f.gate
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if isRollout(r.URL.Path) {
			flusher, _ := w.(http.Flusher)
			for i := 0; i < 3; i++ {
				fmt.Fprintf(w, "frame %d from %s\n", i, f.id)
				if flusher != nil {
					flusher.Flush()
				}
			}
			return
		}
		// Report what arrived, so a test can tell a replayed body from
		// the one the client sent.
		sum := sha256.New()
		n, _ := io.Copy(sum, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q,"body_bytes":%d,"body_sha256":"%x"}`+"\n", f.id, n, sum.Sum(nil))
	})
	f.srv = httptest.NewServer(mux)
	return f
}

func (f *fakeReplica) setStatus(s string) {
	f.mu.Lock()
	f.status = s
	f.mu.Unlock()
}

func (f *fakeReplica) currentVersion() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

// newFleet spins up n fake replicas and a router over them. The
// background prober is effectively disabled (huge ProbeInterval) so
// tests drive probing explicitly with ProbeNow and see deterministic
// state transitions.
func newFleet(t *testing.T, n int, mutate func(*Config, []*fakeReplica)) ([]*fakeReplica, *Router, *httptest.Server) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	cfg := Config{ProbeInterval: time.Hour, SwapTimeout: 5 * time.Second, SwapPoll: time.Millisecond}
	for i := range fakes {
		fakes[i] = newFakeReplica(fmt.Sprintf("r%d", i+1))
		t.Cleanup(fakes[i].srv.Close)
		cfg.Replicas = append(cfg.Replicas, ReplicaSpec{ID: fakes[i].id, URL: fakes[i].srv.URL})
	}
	if mutate != nil {
		mutate(&cfg, fakes)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return fakes, rt, front
}

func servedBy(t *testing.T, resp *http.Response) string {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	return resp.Header.Get("X-Served-By")
}

// TestRolloutSessionPinning: the same session key maps to the same
// replica on every request, and distinct sessions spread across the
// fleet (rendezvous hashing).
func TestRolloutSessionPinning(t *testing.T) {
	_, _, front := newFleet(t, 3, nil)
	distinct := map[string]bool{}
	for _, session := range []string{"alice", "bob", "carol", "dave", "erin"} {
		var pinned string
		for i := 0; i < 5; i++ {
			resp, err := http.Post(front.URL+"/v2/models/demo/rollout?steps=3&session="+session, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			rep := servedBy(t, resp)
			if pinned == "" {
				pinned = rep
			} else if rep != pinned {
				t.Fatalf("session %q moved from %s to %s on request %d", session, pinned, rep, i)
			}
		}
		distinct[pinned] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("five sessions all pinned to one replica %v; rendezvous should spread them", distinct)
	}
	// The X-Session-ID header is an equivalent pinning key.
	var viaHeader string
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/rollout?steps=3", strings.NewReader("{}"))
		req.Header.Set("X-Session-ID", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		rep := servedBy(t, resp)
		if viaHeader == "" {
			viaHeader = rep
		} else if rep != viaHeader {
			t.Fatalf("header-keyed session moved from %s to %s", viaHeader, rep)
		}
	}
}

// TestLeastLoadedRouting: an idle fleet ties toward the first table
// entry; a replica with an in-flight request loses the next pick.
func TestLeastLoadedRouting(t *testing.T) {
	fakes, rt, front := newFleet(t, 3, nil)
	resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if rep := servedBy(t, resp); rep != "r1" {
		t.Fatalf("idle fleet routed to %s, want the first table entry r1", rep)
	}

	// Park one request on r1, then the next pick must move to r2.
	gate := make(chan struct{})
	fakes[0].mu.Lock()
	fakes[0].gate = gate
	fakes[0].mu.Unlock()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var parked bool
		for _, rep := range rt.Fleet().Replicas {
			if rep.ID == "r1" && rep.Inflight == 1 {
				parked = true
			}
		}
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked request never showed up as in-flight on r1")
		}
		time.Sleep(time.Millisecond)
	}
	fakes[0].mu.Lock()
	fakes[0].gate = nil
	fakes[0].mu.Unlock()
	resp, err = http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if rep := servedBy(t, resp); rep != "r2" {
		t.Fatalf("with r1 loaded, routed to %s, want r2", rep)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHealthTransitions walks one replica through every probe-visible
// state: ok→ready, degraded→degraded (still routable), draining→down,
// ok again→ready, unreachable→down with an error.
func TestHealthTransitions(t *testing.T) {
	fakes, rt, front := newFleet(t, 1, nil)
	stateOf := func() ReplicaStatus {
		t.Helper()
		return rt.Fleet().Replicas[0]
	}
	if st := stateOf(); st.State != "ready" || st.Version != "v1" {
		t.Fatalf("after boot probe: state %s version %q, want ready v1", st.State, st.Version)
	}

	fakes[0].setStatus("degraded")
	rt.ProbeNow()
	if st := stateOf(); st.State != "degraded" {
		t.Fatalf("replica reporting degraded probed as %s", st.State)
	}
	// Degraded is still routable: a lone degraded replica serves.
	resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if rep := servedBy(t, resp); rep != "r1" {
		t.Fatalf("degraded fallback routed to %q", rep)
	}

	fakes[0].setStatus("draining")
	rt.ProbeNow()
	if st := stateOf(); st.State != "down" {
		t.Fatalf("replica reporting draining probed as %s, want down", st.State)
	}
	if fleet := rt.Fleet(); fleet.Status != "down" || fleet.Routable != 0 {
		t.Fatalf("fleet rollup = %s routable %d, want down/0", fleet.Status, fleet.Routable)
	}

	fakes[0].setStatus("ok")
	rt.ProbeNow()
	if st := stateOf(); st.State != "ready" {
		t.Fatalf("recovered replica probed as %s, want ready", st.State)
	}

	fakes[0].srv.Close()
	rt.ProbeNow()
	if st := stateOf(); st.State != "down" || st.Error == "" {
		t.Fatalf("unreachable replica probed as %s (error %q), want down with an error", st.State, st.Error)
	}
}

// TestRetryOnceOnConnectFailure: the first pick is dead but the router
// still believes it Ready; the request must succeed on the other
// replica, count one retry and zero failures, and the dead replica
// must be marked down immediately.
func TestRetryOnceOnConnectFailure(t *testing.T) {
	fakes, rt, front := newFleet(t, 2, nil)
	fakes[0].srv.Close() // probe already ran in New; the table still says Ready
	if got := postEcho(t, front.URL, []byte(`{"states":[]}`)); got.Replica != "r2" {
		t.Fatalf("retried request served by %q, want r2", got.Replica)
	}
	st := rt.Stats()
	if st.Retries != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want exactly one retry and zero failures", st)
	}
	for _, rep := range rt.Fleet().Replicas {
		if rep.ID == "r1" && rep.State != "down" {
			t.Fatalf("dead first pick is %s, want down", rep.State)
		}
	}
	// Second request: r1 is already down, so no second retry is needed.
	postEcho(t, front.URL, []byte(`{"states":[]}`))
	if st := rt.Stats(); st.Retries != 1 {
		t.Fatalf("marked-down replica was picked again: %+v", st)
	}
}

// echo is what a fakeReplica's predict route reports back.
type echo struct {
	Replica string `json:"replica"`
	Bytes   int    `json:"body_bytes"`
	Sum     string `json:"body_sha256"`
}

// postEcho posts body through the front and checks that the answering
// replica received exactly those bytes.
func postEcho(t *testing.T, frontURL string, body []byte) echo {
	t.Helper()
	resp, err := http.Post(frontURL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got echo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	if want := fmt.Sprintf("%x", sha256.Sum256(body)); got.Bytes != len(body) || got.Sum != want {
		t.Fatalf("replica %s received %d bytes with hash %s, want %d bytes with hash %s",
			got.Replica, got.Bytes, got.Sum, len(body), want)
	}
	return got
}

// lingeringTransport fails every request with a body to deadHost at
// once but keeps the body, as net/http's transport may: its write loop
// can still be reading a request body after RoundTrip has returned.
type lingeringTransport struct {
	deadHost string
	held     chan io.ReadCloser
}

func (lt *lingeringTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host != lt.deadHost {
		return http.DefaultTransport.RoundTrip(req)
	}
	if req.Body != nil {
		lt.held <- req.Body
	}
	return nil, fmt.Errorf("dial %s: connection refused", lt.deadHost)
}

// TestRetryReplaysBodyIntact: the request slab is pooled, so it must
// outlive both attempts and whatever the transport still holds of the
// failed one. The retried request delivers the original bytes; the
// first attempt's reader, read only after the request is over and
// later requests have been through the pool, still yields them too.
func TestRetryReplaysBodyIntact(t *testing.T) {
	lt := &lingeringTransport{deadHost: "dead.invalid", held: make(chan io.ReadCloser, 1)}
	fakes, rt, front := newFleet(t, 1, func(cfg *Config, _ []*fakeReplica) {
		cfg.HTTPClient = &http.Client{Transport: lt}
		cfg.Replicas = append([]ReplicaSpec{{ID: "r0", URL: "http://" + lt.deadHost}}, cfg.Replicas...)
	})
	// r0 failed its first probe; call it Ready so it is the first pick.
	r0 := rt.routed()[0]
	r0.mu.Lock()
	r0.state, r0.version, r0.lastErr = Ready, "v1", ""
	r0.mu.Unlock()
	first := bytes.Repeat([]byte("first request "), 1<<16)
	if got := postEcho(t, front.URL, first); got.Replica != fakes[0].id {
		t.Fatalf("served by %q, want the retry on %s", got.Replica, fakes[0].id)
	}
	if st := rt.Stats(); st.Retries != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want exactly one retry and zero failures", st)
	}
	for i := 0; i < 8; i++ {
		postEcho(t, front.URL, bytes.Repeat([]byte{byte('a' + i)}, len(first)))
	}
	lingering := <-lt.held
	defer lingering.Close()
	if got, err := io.ReadAll(lingering); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("the failed attempt's body no longer reads as the request (%d bytes, %v): slab recycled under the transport", len(got), err)
	}
}

// TestErrorEnvelopePassThrough: a replica's own /v2 error envelope
// (here a 404) reaches the client byte-for-byte; replica-side
// application errors are not router failures.
func TestErrorEnvelopePassThrough(t *testing.T) {
	envelope := `{"error":{"code":"model_not_found","message":"serve: no model \"nope\"","model":"nope"}}` + "\n"
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(serve.HealthResponse{Status: "ok", Default: "demo", DefaultVersion: "v1"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, envelope)
	})
	errSrv := httptest.NewServer(mux)
	t.Cleanup(errSrv.Close)
	rt, err := New(Config{Replicas: []ReplicaSpec{{ID: "e1", URL: errSrv.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	resp, err := http.Post(front.URL+"/v2/models/nope/predict", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want the replica's 404", resp.StatusCode)
	}
	if string(body) != envelope {
		t.Fatalf("envelope rewritten:\n got %q\nwant %q", body, envelope)
	}
	if st := rt.Stats(); st.Failed != 0 || st.Retries != 0 {
		t.Fatalf("replica-side 404 counted against the router: %+v", st)
	}
}

// TestNoRoutableReplicas: when nothing is routable the router answers
// 503 with its own envelope and a request ID.
func TestNoRoutableReplicas(t *testing.T) {
	fakes, rt, front := newFleet(t, 1, nil)
	fakes[0].setStatus("draining")
	rt.ProbeNow()
	resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("envelope not JSON: %v (%q)", err, body)
	}
	if env.Error.Code != "no_replicas" || env.Error.RequestID == "" {
		t.Fatalf("envelope = %q, want code no_replicas with a request ID", body)
	}
	if st := rt.Stats(); st.Failed != 1 {
		t.Fatalf("failed counter = %d, want 1", st.Failed)
	}
}

// TestStandbyPromotion: standbys take no traffic and are excluded from
// the fleet capacity counts until POST /v2/admin/promote routes them.
func TestStandbyPromotion(t *testing.T) {
	standby := newFakeReplica("warm")
	t.Cleanup(standby.srv.Close)
	_, rt, front := newFleet(t, 2, func(cfg *Config, _ []*fakeReplica) {
		cfg.Standbys = []ReplicaSpec{{ID: "warm", URL: standby.srv.URL}}
	})
	fleet := rt.Fleet()
	if fleet.Total != 2 || fleet.Ready != 2 {
		t.Fatalf("fleet counts %d/%d, want 2 routed ready (standby excluded)", fleet.Ready, fleet.Total)
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Post(front.URL+fmt.Sprintf("/v1/rollout?steps=1&session=s%d", i), "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if rep := servedBy(t, resp); rep == "warm" {
			t.Fatal("standby received traffic before promotion")
		}
	}

	resp, err := http.Post(front.URL+"/v2/admin/promote", "application/json", strings.NewReader(`{"name":"warm"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status = %d", resp.StatusCode)
	}
	fleet = rt.Fleet()
	if fleet.Total != 3 || fleet.Ready != 3 {
		t.Fatalf("after promote fleet counts %d/%d, want 3/3", fleet.Ready, fleet.Total)
	}

	resp, err = http.Post(front.URL+"/v2/admin/promote", "application/json", strings.NewReader(`{"name":"ghost"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("promoting an unknown standby gave %d, want 404", resp.StatusCode)
	}
}

// TestAdminLoadUnloadUnsupported: per-model load/unload are
// per-replica operations; the router refuses them with a typed 501.
func TestAdminLoadUnloadUnsupported(t *testing.T) {
	_, _, front := newFleet(t, 1, nil)
	for _, op := range []string{"load", "unload"} {
		resp, err := http.Post(front.URL+"/v2/admin/"+op, "application/json", strings.NewReader(`{"name":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(body), `"unsupported"`) {
			t.Fatalf("%s: status %d body %q, want 501 with code unsupported", op, resp.StatusCode, body)
		}
	}
}

// TestProbeBackoff: failed probes back off exponentially from the
// probe interval and cap at the configured maximum.
func TestProbeBackoff(t *testing.T) {
	base, max := 250*time.Millisecond, 5*time.Second
	for _, tc := range []struct {
		failures int
		want     time.Duration
	}{
		{0, 250 * time.Millisecond},
		{1, 250 * time.Millisecond},
		{2, 500 * time.Millisecond},
		{3, time.Second},
		{4, 2 * time.Second},
		{5, 4 * time.Second},
		{6, 5 * time.Second},
		{50, 5 * time.Second},
	} {
		if got := probeBackoff(base, max, tc.failures); got != tc.want {
			t.Errorf("probeBackoff(%v, %v, %d) = %v, want %v", base, max, tc.failures, got, tc.want)
		}
	}
}

// TestRequestIDAssignedAtEdge: the router assigns X-Request-ID when
// the client sends none and echoes a client-provided one, end to end.
func TestRequestIDAssignedAtEdge(t *testing.T) {
	_, _, front := newFleet(t, 1, nil)
	resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(serve.RequestIDHeader) == "" {
		t.Fatal("router did not assign a request ID")
	}

	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/predict", strings.NewReader("{}"))
	req.Header.Set(serve.RequestIDHeader, "req-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(serve.RequestIDHeader); got != "req-42" {
		t.Fatalf("client-provided request ID rewritten to %q", got)
	}
}
