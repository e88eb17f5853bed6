// Package serve is the HTTP serving front end over core.Engine and
// core.Registry (DESIGN.md §9–§10): one-step prediction straight on
// each model's core.Engine (concurrent predicts run on pooled clone
// sets), streaming rollout sessions over chunked responses, and a /v2
// multi-model surface with zero-downtime hot swap — named, versioned
// models that can be listed, loaded, atomically swapped and unloaded
// under load while in-flight requests drain on the old version. The
// package splits handler from process concerns so the whole surface is
// testable in-process (httptest) — cmd/serve is a thin flag-parsing
// shell around Server, and Client is the typed Go client the examples
// and load tests drive it with.
//
// Routes:
//
//	GET  /healthz                        per-model readiness + registry state (JSON)
//	GET  /metrics                        per-model request counters, swap count
//	POST /v1/predict                     one-step prediction on the default model
//	GET|POST /v1/rollout                 streaming rollout on the default model
//	GET  /v2/models                      list models (name, version, readiness, stats)
//	POST /v2/models/{name}/predict       per-model predict (same wire format as v1)
//	GET|POST /v2/models/{name}/rollout   per-model rollout (same wire format as v1)
//	POST /v2/admin/load                  publish a model artifact directory
//	POST /v2/admin/swap                  hot-swap a published model (zero downtime)
//	POST /v2/admin/unload                retire a published model
//
// The /v1 routes are thin delegates to the default model, so every
// pre-registry client keeps working unchanged. /v1 reports errors as
// plain text; /v2 wraps them in a structured JSON envelope
// ({"error":{"code","message","model"}}) mapped from the named core
// errors.
//
// Wire formats. Tensors travel either as JSON
// ({"shape":[c,h,w],"data":[...]}; float64 values round-trip
// bit-exactly through Go's shortest-form encoding) or as gob
// (Content-Type application/x-gob), the same encoding the checkpoint
// format uses. A predict request carries the temporal history
// ({"states":[...]}, oldest first, at least Window states); the
// response mirrors the request's content type. The JSON tensor bodies
// are written and read by the package's own codec (codec.go), byte for
// byte what encoding/json produces and with encoding/json as the
// fallback for anything but the plain layout; bodies live in pooled,
// length-sized slabs (body.go) that the router shares.
package serve

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// ContentTypeGob selects the binary (encoding/gob) wire format; any
// other request content type is treated as JSON.
const ContentTypeGob = "application/x-gob"

// DefaultModelName is the registry name /v1 delegates to when Config
// does not override it.
const DefaultModelName = "default"

// maxBodyBytes bounds request bodies (a 1024×1024 4-channel float64
// state is 32 MiB; the bound leaves generous headroom without letting
// a bad client exhaust memory).
const maxBodyBytes = 256 << 20

// TensorJSON is the JSON wire form of a tensor.
type TensorJSON struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// NewTensorJSON converts a tensor to its wire form (sharing the data
// slice; do not mutate either afterwards).
func NewTensorJSON(t *tensor.Tensor) TensorJSON {
	return TensorJSON{Shape: t.Shape(), Data: t.Data()}
}

// size is the number of values the shape calls for. The product is
// overflow-checked: a shape such as [1<<62, 4] wraps to 0 and would
// otherwise agree with an empty data array.
func (w TensorJSON) size() (int, error) {
	if len(w.Shape) == 0 {
		return 0, fmt.Errorf("serve: tensor without shape")
	}
	n := 1
	for _, d := range w.Shape {
		if d <= 0 {
			return 0, fmt.Errorf("serve: non-positive dimension in shape %v", w.Shape)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("serve: shape %v overflows", w.Shape)
		}
		n *= d
	}
	return n, nil
}

// Tensor validates the wire form and converts it back.
func (w TensorJSON) Tensor() (*tensor.Tensor, error) {
	n, err := w.size()
	if err != nil {
		return nil, err
	}
	if n != len(w.Data) {
		return nil, fmt.Errorf("serve: shape %v needs %d values, body carries %d", w.Shape, n, len(w.Data))
	}
	return tensor.FromSlice(w.Data, w.Shape...), nil
}

// PredictRequest is the body of the predict and POST-rollout routes:
// the temporal history, oldest first (a single-frame model takes one
// state). The gob format encodes the same struct.
type PredictRequest struct {
	States []TensorJSON `json:"states"`
}

// RolloutFrame is one line of the streamed rollout response (JSON
// lines; the gob stream encodes the same struct per frame). A frame
// with a non-empty Error terminates the stream. Every record carries
// the rollout's request ID, so a stream teed to disk stays attributable
// after the connection is gone.
type RolloutFrame struct {
	Step      int         `json:"step"`
	RequestID string      `json:"request_id,omitempty"`
	Frame     *TensorJSON `json:"frame,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// Config tunes a Server.
type Config struct {
	// Initials, when set, is the history GET rollout routes start from
	// (oldest first, at least the ensemble's Window states). POST
	// rollouts carry their own history and work without it.
	Initials []*tensor.Tensor
	// MaxRolloutSteps caps the steps query parameter (default 10000).
	MaxRolloutSteps int
	// DefaultModel is the registry name the /v1 routes delegate to
	// (default "default").
	DefaultModel string
	// EngineOptions are applied to engines the admin load/swap routes
	// build from artifact directories (cmd/serve passes its -precision
	// setting here).
	EngineOptions []core.EngineOption
	// AccessLog, when set, receives one line per request (method, path,
	// status, duration, request ID) plus a per-rollout summary with the
	// session's communication stats — so a request ID can be traced
	// from client, through the envelope or stream record, to the ranks
	// it exercised.
	AccessLog *log.Logger
	// Replica, when set, is this process's fleet identity: /healthz
	// reports it so cmd/router (DESIGN.md §14) can attribute a probe
	// to a replica without trusting its own table (cmd/serve's
	// -replica flag).
	Replica string
}

// servedModel is the per-published-version serving state: the
// registry handle (the server's own reference, held until the version
// is retired AND its last request finishes) and its counters. A swap
// installs a fresh servedModel, so a request runs wholly on the
// version it acquired.
type servedModel struct {
	h        *core.Handle
	inflight sync.WaitGroup // HTTP requests currently using this version
	requests atomic.Int64   // predict + rollout requests routed here
	predicts atomic.Int64   // predicts served
}

// modelTally is the retired-version remainder of one model name's
// counters (folded in when a version finishes draining).
type modelTally struct {
	requests int64 // servedModel.requests of retired versions
	predicts int64 // servedModel.predicts of retired versions
}

// Server is the http.Handler serving a model registry. Build it with
// New (single engine) or NewMulti (registry), close it with Close
// (after http.Server.Shutdown, so in-flight handlers drain first).
type Server struct {
	cfg      Config
	reg      *core.Registry
	deflt    string
	replica  string
	initials []*tensor.Tensor
	maxSteps int
	mux      *http.ServeMux

	accessLog *log.Logger

	// inflight counts predict/rollout requests currently being served
	// (acquired, not yet released) across all models; /healthz reports
	// it so the router can see a replica's live load.
	inflight atomic.Int64
	// drainsPending counts displaced versions still draining in the
	// background: while non-zero the replica is serving but impaired
	// (two versions alive), which /healthz reports as "degraded".
	drainsPending atomic.Int64
	// draining flips once shutdown has begun (SetDraining or Close):
	// /healthz reports "draining" so a router stops routing here before
	// the listener goes away.
	draining atomic.Bool

	mu     sync.RWMutex
	models map[string]*servedModel
	// totals accumulates the counters of retired versions per model
	// name, so /metrics and the exit stats survive hot swaps instead
	// of resetting with each fresh version.
	totals map[string]*modelTally
	// hists holds the per-model-NAME request-latency histograms,
	// surviving hot swaps like totals.
	hists  map[string]*stats.Histogram
	closed bool

	adminMu sync.Mutex     // serializes load/swap/unload/close
	drains  sync.WaitGroup // background old-version drains
}

// New wraps a single engine for HTTP serving, published under
// cfg.DefaultModel with version "unversioned": the one-model setup
// every pre-registry caller used, now running on the registry path.
func New(eng *core.Engine, cfg Config) (*Server, error) {
	s, err := NewMulti(core.NewRegistry(), cfg)
	if err != nil {
		return nil, err
	}
	if err := s.LoadEngine(s.deflt, "unversioned", eng); err != nil {
		return nil, err
	}
	return s, nil
}

// NewMulti wraps a model registry for HTTP serving. Models already
// published in the registry are adopted; more can be added at runtime
// with LoadEngine/LoadDir or the /v2/admin routes. The server owns
// the registry from here on: Close retires and drains every model.
func NewMulti(reg *core.Registry, cfg Config) (*Server, error) {
	if reg == nil {
		reg = core.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		deflt:     cfg.DefaultModel,
		replica:   cfg.Replica,
		initials:  cfg.Initials,
		maxSteps:  cfg.MaxRolloutSteps,
		mux:       http.NewServeMux(),
		models:    make(map[string]*servedModel),
		totals:    make(map[string]*modelTally),
		hists:     make(map[string]*stats.Histogram),
		accessLog: cfg.AccessLog,
	}
	if s.deflt == "" {
		s.deflt = DefaultModelName
	}
	if s.maxSteps <= 0 {
		s.maxSteps = 10000
	}
	// Adopt models that were published before the server existed.
	for _, info := range reg.List() {
		h, err := reg.Get(info.Name)
		if err != nil {
			continue // unloaded between List and Get
		}
		s.models[info.Name] = &servedModel{h: h}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/predict", s.handlePredictV1)
	s.mux.HandleFunc("/v1/rollout", s.handleRolloutV1)
	s.mux.HandleFunc("GET /v2/models", s.handleModels)
	s.mux.HandleFunc("/v2/models/{name}/predict", s.handlePredictV2)
	s.mux.HandleFunc("/v2/models/{name}/rollout", s.handleRolloutV2)
	s.mux.HandleFunc("POST /v2/admin/load", s.handleAdmin)
	s.mux.HandleFunc("POST /v2/admin/swap", s.handleAdmin)
	s.mux.HandleFunc("POST /v2/admin/unload", s.handleAdmin)
	return s, nil
}

// ServeHTTP implements http.Handler: assign the request its ID (honor
// a client X-Request-ID, mint otherwise), echo it on the response,
// thread it through the context into core, and write the access-log
// line once the handler returns.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := EnsureRequestID(r)
	w.Header().Set(RequestIDHeader, id)
	r = r.WithContext(core.ContextWithRequestID(r.Context(), id))
	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	status := rec.status
	if status == 0 {
		status = http.StatusOK // handler wrote nothing; net/http sends 200
	}
	s.logf("%s %s status=%d dur=%s request=%s",
		r.Method, r.URL.Path, status, time.Since(start).Round(time.Microsecond), id)
}

// Registry exposes the underlying model registry (read-mostly; use
// the server's Load/Swap/Unload methods for mutations so the served
// versions stay in sync).
func (s *Server) Registry() *core.Registry { return s.reg }

// acquire pins the current version of a model for one HTTP request:
// the returned release must be called when the request (including any
// session it opened) is done. A version stays fully alive — engine
// and handle — until every acquire has been released, which is what
// makes swaps invisible to in-flight traffic.
func (s *Server) acquire(name string) (*servedModel, func(), error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, nil, fmt.Errorf("serve: server closed: %w", core.ErrRegistryClosed)
	}
	sm, ok := s.models[name]
	if !ok {
		return nil, nil, fmt.Errorf("serve: model %q: %w", name, core.ErrModelNotFound)
	}
	sm.inflight.Add(1)
	sm.requests.Add(1)
	s.inflight.Add(1)
	return sm, func() { sm.inflight.Done(); s.inflight.Add(-1) }, nil
}

// SetDraining flips /healthz to "draining" without refusing traffic:
// cmd/serve calls it on SIGTERM before http.Server.Shutdown, so a
// router probing this replica stops sending new requests while the
// in-flight ones finish. Close sets it too.
func (s *Server) SetDraining() { s.draining.Store(true) }

// LoadEngine publishes an already-built engine under (name, version).
func (s *Server) LoadEngine(name, version string, eng *core.Engine) error {
	if err := validateModelName(name); err != nil {
		return err
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if _, err := s.reg.Load(name, version, eng); err != nil {
		return err
	}
	return s.install(name)
}

// SwapEngine atomically replaces the model published under name with
// a new engine: requests that arrive after the swap run on the new
// version, in-flight requests and open sessions finish on the old one,
// and the old version's registry handle is released in the background
// once its last request drains. Swapping a fresh name publishes it.
func (s *Server) SwapEngine(name, version string, eng *core.Engine) error {
	if err := validateModelName(name); err != nil {
		return err
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if _, err := s.reg.Swap(name, version, eng); err != nil {
		return err
	}
	return s.install(name)
}

// install points s.models[name] at the registry's current version and
// schedules the background drain of the displaced one (if any). Called
// under adminMu.
func (s *Server) install(name string) error {
	h, err := s.reg.Get(name) // the server's own reference to the new version
	if err != nil {
		return err
	}
	s.mu.Lock()
	old := s.models[name]
	s.models[name] = &servedModel{h: h}
	s.mu.Unlock()
	if old != nil {
		s.drainInBackground(name, old)
	}
	return nil
}

// UnloadModel retires a published model: new requests 404, in-flight
// ones finish, then the version's handle is released.
func (s *Server) UnloadModel(name string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if _, err := s.reg.Unload(name); err != nil {
		return err
	}
	s.mu.Lock()
	old := s.models[name]
	delete(s.models, name)
	s.mu.Unlock()
	if old != nil {
		s.drainInBackground(name, old)
	}
	return nil
}

// retire drains one displaced version synchronously: wait out its
// in-flight requests, fold its counters into the name's running
// totals, release the server's handle reference. The handle's own
// Drained channel closes once every other reference (open sessions)
// is gone.
func (s *Server) retire(name string, old *servedModel) {
	old.inflight.Wait()
	s.mu.Lock()
	t := s.totals[name]
	if t == nil {
		t = &modelTally{}
		s.totals[name] = t
	}
	t.requests += old.requests.Load()
	t.predicts += old.predicts.Load()
	s.mu.Unlock()
	old.h.Release()
}

// drainInBackground retires one displaced version without blocking
// the admin caller.
func (s *Server) drainInBackground(name string, old *servedModel) {
	s.drains.Add(1)
	s.drainsPending.Add(1)
	go func() {
		defer s.drains.Done()
		s.retire(name, old)
		s.drainsPending.Add(-1)
	}()
}

// ArtifactIdentity resolves the (name, version) a model loaded from
// an artifact directory is published under: explicit values win, then
// the manifest's (nil for legacy dirs), then fallbackName and
// "unversioned". Shared by LoadDir and cmd/serve's boot path so the
// defaulting rules cannot diverge.
func ArtifactIdentity(man *model.Manifest, fallbackName, name, version string) (string, string) {
	if name == "" {
		if man != nil {
			name = man.Name
		} else {
			name = fallbackName
		}
	}
	if version == "" {
		if man != nil {
			version = man.Version
		} else {
			version = "unversioned"
		}
	}
	return name, version
}

// LoadDir opens a model artifact (or legacy checkpoint) directory,
// builds an engine with the server's EngineOptions, and publishes it.
// Empty name/version default to the artifact manifest's (falling back
// to the directory base name and "unversioned" for legacy dirs).
// swap=true replaces a live model; swap=false requires a fresh name.
func (s *Server) LoadDir(dir, name, version string, swap bool) (string, string, error) {
	ens, man, err := core.OpenModel(dir)
	if err != nil {
		return "", "", err
	}
	name, version = ArtifactIdentity(man, filepath.Base(filepath.Clean(dir)), name, version)
	eng, err := core.NewEngine(ens, s.cfg.EngineOptions...)
	if err != nil {
		return "", "", err
	}
	if swap {
		err = s.SwapEngine(name, version, eng)
	} else {
		err = s.LoadEngine(name, version, eng)
	}
	return name, version, err
}

// validateModelName keeps names routable as a single /v2 path segment.
// "." and ".." are refused: http.ServeMux redirects a path holding
// either segment to its cleaned form, so such a model could never be
// reached.
func validateModelName(name string) error {
	switch name {
	case "":
		return fmt.Errorf("serve: empty model name")
	case ".", "..":
		return fmt.Errorf("serve: model name %q cannot be routed as a path segment", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("serve: model name %q: only letters, digits, '-', '_' and '.' are allowed", name)
		}
	}
	return nil
}

// ModelStatus is one /v2/models (and healthz) entry.
type ModelStatus struct {
	Name     string `json:"name"`
	Version  string `json:"version"`
	Ready    bool   `json:"ready"`
	Refs     int    `json:"refs"`
	Requests int64  `json:"requests"`
}

// Models returns a snapshot of every published model with its serving
// counters, sorted by name.
func (s *Server) Models() []ModelStatus {
	infos := s.reg.List()
	out := make([]ModelStatus, 0, len(infos))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, info := range infos {
		st := ModelStatus{Name: info.Name, Version: info.Version, Ready: info.Ready, Refs: info.Refs}
		if t := s.totals[info.Name]; t != nil {
			st.Requests += t.requests
		}
		if sm := s.models[info.Name]; sm != nil {
			st.Requests += sm.requests.Load()
		}
		out = append(out, st)
	}
	return out
}

// Stats counts the predicts served across every model ever served,
// retired versions included (what cmd/serve prints on exit). Each
// predict is its own batch, so Requests = Batches.
func (s *Server) Stats() core.BatcherStats {
	var n int64
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sm := range s.models {
		n += sm.predicts.Load()
	}
	for _, t := range s.totals {
		n += t.predicts
	}
	return core.BatcherStats{Requests: n, Batches: n}
}

// Close drains the whole server: new requests are refused (503 for
// predicts, as before), every model's in-flight requests finish,
// background swap drains complete, and the registry closes once every
// handle has drained. Call it after http.Server.Shutdown has drained
// in-flight handlers. Closing twice is a no-op.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	models := s.models
	s.models = map[string]*servedModel{}
	s.mu.Unlock()
	for name, sm := range models {
		s.retire(name, sm)
	}
	s.drains.Wait()
	return s.reg.Close()
}

// NewHTTPServer is the http.Server cmd/serve and cmd/router listen
// with: a peer gets 10 s to send its request headers and an idle
// keep-alive connection is dropped after 2 min, so stalled or abandoned
// connections cannot accumulate. ReadTimeout and WriteTimeout stay
// unset: /rollout streams are unbounded by design.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// decodeStates reads a predict/rollout body in either wire format. A
// JSON body is read once into a pooled slab sized from Content-Length
// and handed to the codec. MaxBytesReader (rather than a plain
// LimitReader) makes an oversized body fail loudly and forces the
// connection closed instead of draining the remainder; a declared
// length over the bound is refused before a byte of it is read.
func decodeStates(w http.ResponseWriter, r *http.Request) ([]*tensor.Tensor, bool, error) {
	binary := r.Header.Get("Content-Type") == ContentTypeGob
	if r.ContentLength > maxBodyBytes {
		return nil, binary, fmt.Errorf("serve: request body: %w", &http.MaxBytesError{Limit: maxBodyBytes})
	}
	limited := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req PredictRequest
	if binary {
		if err := gob.NewDecoder(limited).Decode(&req); err != nil {
			return nil, binary, fmt.Errorf("serve: gob body: %w", err)
		}
	} else {
		body, err := ReadBody(limited, r.ContentLength)
		if err != nil {
			return nil, binary, fmt.Errorf("serve: json body: %w", err)
		}
		req, err = DecodePredictRequest(body.B)
		body.Release()
		if err != nil {
			return nil, binary, fmt.Errorf("serve: json body: %w", err)
		}
	}
	states := make([]*tensor.Tensor, len(req.States))
	for i, ws := range req.States {
		t, err := ws.Tensor()
		if err != nil {
			return nil, binary, err
		}
		states[i] = t
	}
	return states, binary, nil
}

// bodyErrStatus distinguishes an oversized body (413) from a
// malformed one (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps serving errors to HTTP statuses: validation failures
// are the client's fault, an unknown model is 404, a closed server or
// registry means the server (or that model) is draining.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadWindow), errors.Is(err, core.ErrShapeMismatch):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrRegistryClosed), errors.Is(err, core.ErrWorldBusy):
		// Draining for shutdown/swap, or a bound-world engine already
		// serving its one live session: retryable capacity conditions.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

// errorMode selects how a handler reports errors: v1 plain text, v2
// structured JSON envelope.
type errorMode int

const (
	errorsV1 errorMode = iota
	errorsV2
)

func (s *Server) httpErr(w http.ResponseWriter, r *http.Request, mode errorMode, model string, err error, status int) {
	if mode == errorsV1 {
		http.Error(w, err.Error(), status)
		return
	}
	writeErrorEnvelope(w, model, core.RequestID(r.Context()), err, status)
}

func (s *Server) handlePredictV1(w http.ResponseWriter, r *http.Request) {
	s.handlePredict(w, r, s.deflt, errorsV1)
}

func (s *Server) handlePredictV2(w http.ResponseWriter, r *http.Request) {
	s.handlePredict(w, r, r.PathValue("name"), errorsV2)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, name string, mode errorMode) {
	start := time.Now()
	defer func() { s.histFor(name).Observe(time.Since(start)) }()
	if r.Method != http.MethodPost {
		s.httpErr(w, r, mode, name, fmt.Errorf("serve: POST only"), http.StatusMethodNotAllowed)
		return
	}
	sm, release, err := s.acquire(name)
	if err != nil {
		s.httpErr(w, r, mode, name, err, statusFor(err))
		return
	}
	defer release()
	states, binary, err := decodeStates(w, r)
	if err != nil {
		s.httpErr(w, r, mode, name, err, bodyErrStatus(err))
		return
	}
	frame, err := sm.h.Engine().Predict(r.Context(), states...)
	if err != nil {
		s.httpErr(w, r, mode, name, err, statusFor(err))
		return
	}
	sm.predicts.Add(1)
	if binary {
		w.Header().Set("Content-Type", ContentTypeGob)
		if err := gob.NewEncoder(w).Encode(frame); err != nil {
			return // mid-body; the client sees the truncation
		}
		return
	}
	// Encode before the status line is committed, so a frame JSON cannot
	// carry is still a typed error; then one sized write.
	out := NewBody(jsonSizeHint(frame.Size()))
	defer out.Release()
	if out.B, err = AppendTensorJSON(out.B, NewTensorJSON(frame)); err != nil {
		s.httpErr(w, r, mode, name, err, statusFor(err))
		return
	}
	out.B = append(out.B, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out.B)))
	_, _ = w.Write(out.B) // a failed write is the client's disconnect
}

func (s *Server) handleRolloutV1(w http.ResponseWriter, r *http.Request) {
	s.handleRollout(w, r, s.deflt, errorsV1)
}

func (s *Server) handleRolloutV2(w http.ResponseWriter, r *http.Request) {
	s.handleRollout(w, r, r.PathValue("name"), errorsV2)
}

func (s *Server) handleRollout(w http.ResponseWriter, r *http.Request, name string, mode errorMode) {
	start := time.Now()
	defer func() { s.histFor(name).Observe(time.Since(start)) }()
	steps := 1
	if v := r.URL.Query().Get("steps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.httpErr(w, r, mode, name, fmt.Errorf("serve: bad steps %q", v), http.StatusBadRequest)
			return
		}
		steps = n
	}
	if steps > s.maxSteps {
		s.httpErr(w, r, mode, name, fmt.Errorf("serve: steps %d exceeds cap %d", steps, s.maxSteps), http.StatusBadRequest)
		return
	}
	sm, release, err := s.acquire(name)
	if err != nil {
		s.httpErr(w, r, mode, name, err, statusFor(err))
		return
	}
	defer release()
	var states []*tensor.Tensor
	binary := false
	switch r.Method {
	case http.MethodGet:
		if len(s.initials) == 0 {
			s.httpErr(w, r, mode, name, fmt.Errorf("serve: GET rollout needs a server-side initial state (-init); POST a history instead"), http.StatusBadRequest)
			return
		}
		states = s.initials
		binary = r.Header.Get("Accept") == ContentTypeGob
	case http.MethodPost:
		states, binary, err = decodeStates(w, r)
		if err != nil {
			s.httpErr(w, r, mode, name, err, bodyErrStatus(err))
			return
		}
	default:
		s.httpErr(w, r, mode, name, fmt.Errorf("serve: GET or POST only"), http.StatusMethodNotAllowed)
		return
	}

	ctx := r.Context()
	rid := core.RequestID(ctx)
	ses, err := sm.h.Engine().NewSession(ctx, states...)
	if err != nil {
		s.httpErr(w, r, mode, name, err, statusFor(err))
		return
	}
	defer func() {
		// The per-request trace ends at the ranks: log the session's
		// communication totals under the request ID, so a request can be
		// followed from client header to the traffic it generated.
		cs := ses.CommStats()
		s.logf("rollout request=%s model=%s steps=%d comm_msgs=%d comm_bytes=%d",
			rid, name, ses.Steps(), cs.MessagesSent, cs.BytesSent)
		ses.Close()
	}()

	// From here on the status line is committed: stream one frame per
	// chunk, flushing each so slow consumers see frames as they are
	// produced, and report any mid-rollout failure as a final
	// in-stream record.
	flusher, _ := w.(http.Flusher)
	var writeFrame func(f RolloutFrame) error
	if binary {
		w.Header().Set("Content-Type", ContentTypeGob)
		enc := gob.NewEncoder(w)
		writeFrame = func(f RolloutFrame) error { return enc.Encode(f) }
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		line := NewBody(0) // sized by the first frame, reused by the rest
		defer line.Release()
		writeFrame = func(f RolloutFrame) (err error) {
			if line.B, err = appendRolloutFrame(line.B[:0], f); err != nil {
				return err
			}
			_, err = w.Write(line.B)
			return err
		}
	}
	err = ses.Run(ctx, steps, func(k int, frame *tensor.Tensor) error {
		fj := NewTensorJSON(frame)
		if err := writeFrame(RolloutFrame{Step: k, RequestID: rid, Frame: &fj}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		_ = writeFrame(RolloutFrame{Step: -1, RequestID: rid, Error: err.Error()})
	}
}
