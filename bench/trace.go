package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or rollout step, or rank-epoch) share ID; Parent names the span of
// the same ID that caused this one.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. All spans are
// recorded by the benchmark's own code around its calls into the
// repository's packages; the packages themselves are not instrumented.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active reports whether spans are being recorded; a nil tracer is off.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) record(name, id, parent string, start, end time.Time) {
	if !t.active() {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wrap returns next timed as a span named name, keyed by the request's
// X-Request-ID. With tracing off it returns next itself, so the
// untraced run carries no wrapper at all.
func (t *tracer) wrap(name, parent string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The load generator names every request; health probes and
		// scrapes carry no ID and belong to no request's trace.
		id := r.Header.Get(serve.RequestIDHeader)
		if id == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(name, id, parent, start, time.Now())
	})
}

// Span names of the HTTP request path, outermost first.
const (
	spanClient  = "client"  // the load generator: send, wait, read and hash the body
	spanEdge    = "edge"    // the edge listener's handler: admission gate and all below
	spanRouter  = "router"  // the gate's inner handler: router and all below
	spanReplica = "replica" // the replica listener's handler: serve.Server
)

// stageBudget turns the spans of the HTTP path into per-stage self
// times: a stage's self time for one request is its span minus its
// child's span, and the stage's figure is the median over requests.
// engineMS, measured by calling the engine directly, splits the
// replica span into serving (decode, batcher wait, encode) and compute.
// It fails if a span's parent does not resolve.
func stageBudget(spans []span, engineMS float64) (map[string]float64, error) {
	type key struct{ name, id string }
	dur := map[key]float64{}
	for _, s := range spans {
		dur[key{s.Name, s.ID}] = float64(s.EndNS-s.StartNS) / 1e6
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		if _, ok := dur[key{s.Parent, s.ID}]; !ok {
			return nil, fmt.Errorf("span %s of %s: parent %s not recorded", s.Name, s.ID, s.Parent)
		}
	}
	var client, adm, rout, repl, total []float64
	for _, s := range spans {
		if s.Name != spanClient {
			continue
		}
		c := dur[key{spanClient, s.ID}]
		e, ok1 := dur[key{spanEdge, s.ID}]
		r, ok2 := dur[key{spanRouter, s.ID}]
		p, ok3 := dur[key{spanReplica, s.ID}]
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("request %s: incomplete span chain", s.ID)
		}
		total = append(total, c)
		client = append(client, c-e)
		adm = append(adm, e-r)
		rout = append(rout, r-p)
		repl = append(repl, p)
	}
	if len(total) == 0 {
		return nil, fmt.Errorf("no %s spans recorded", spanClient)
	}
	out := map[string]float64{
		"stage.client_ms":    median(client),
		"stage.admission_ms": median(adm),
		"stage.router_ms":    median(rout),
		"stage.serve_ms":     median(repl) - engineMS,
		"stage.engine_ms":    engineMS,
	}
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	out["stage.closure"] = sum / median(total)
	return out, nil
}
