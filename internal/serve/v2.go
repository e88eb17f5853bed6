package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// ErrorBody is the structured error the /v2 routes return.
type ErrorBody struct {
	// Code is a stable, machine-branchable error class.
	Code string `json:"code"`
	// Message is the human-readable wrapped error chain.
	Message string `json:"message"`
	// Model names the model the request addressed, when known.
	Model string `json:"model,omitempty"`
	// RequestID is the request's trace ID (also on the X-Request-ID
	// response header), correlating the envelope with access-log lines
	// and any rank/link attribution inside Message.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope is the /v2 error wire format:
// {"error":{"code":...,"message":...,"model":...}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// errorCode maps an error (via the named core errors) and its HTTP
// status to a stable envelope code.
func errorCode(err error, status int) string {
	switch {
	case errors.Is(err, core.ErrModelNotFound):
		return "model_not_found"
	case errors.Is(err, core.ErrModelExists):
		return "model_exists"
	case errors.Is(err, core.ErrBadWindow):
		return "bad_window"
	case errors.Is(err, core.ErrShapeMismatch):
		return "shape_mismatch"
	case errors.Is(err, core.ErrBatcherClosed), errors.Is(err, core.ErrRegistryClosed):
		return "draining"
	case errors.Is(err, core.ErrWorldBusy):
		return "busy"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, ErrNonFiniteOutput):
		return "non_finite_output"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusRequestTimeout:
		return "timeout"
	}
	return "internal"
}

// writeErrorEnvelope reports err as the /v2 structured JSON envelope.
func writeErrorEnvelope(w http.ResponseWriter, model, requestID string, err error, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{
		Code:      errorCode(err, status),
		Message:   err.Error(),
		Model:     model,
		RequestID: requestID,
	}})
}

// ModelsResponse is the body of GET /v2/models.
type ModelsResponse struct {
	Default string        `json:"default"`
	Models  []ModelStatus `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ModelsResponse{Default: s.deflt, Models: s.Models()})
}

// AdminRequest is the body of the /v2/admin routes. Load and swap
// take a model artifact (or legacy checkpoint) directory plus
// optional name/version overrides (the manifest's are used when
// omitted); unload takes just the name.
type AdminRequest struct {
	Name    string `json:"name,omitempty"`
	Version string `json:"version,omitempty"`
	Dir     string `json:"dir,omitempty"`
}

// AdminResponse echoes the resolved model identity of a successful
// admin operation.
type AdminResponse struct {
	Op      string `json:"op"`
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// handleAdmin serves POST /v2/admin/{load,swap,unload}. These mutate
// the registry, so cmd/serve's process-level access control (bind
// address) is the trust boundary — same as the rest of the surface.
func (s *Server) handleAdmin(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/v2/admin/")
	rid := core.RequestID(r.Context())
	var req AdminRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErrorEnvelope(w, req.Name, rid, fmt.Errorf("serve: admin body: %w", err), bodyErrStatus(err))
		return
	}
	resp := AdminResponse{Op: op, Name: req.Name, Version: req.Version}
	var err error
	switch op {
	case "load", "swap":
		if req.Dir == "" {
			writeErrorEnvelope(w, req.Name, rid, fmt.Errorf("serve: admin %s needs a model directory (\"dir\")", op), http.StatusBadRequest)
			return
		}
		resp.Name, resp.Version, err = s.LoadDir(req.Dir, req.Name, req.Version, op == "swap")
	case "unload":
		if req.Name == "" {
			writeErrorEnvelope(w, "", rid, fmt.Errorf("serve: admin unload needs a model name"), http.StatusBadRequest)
			return
		}
		resp.Version = ""
		err = s.UnloadModel(req.Name)
	default:
		writeErrorEnvelope(w, req.Name, rid, fmt.Errorf("serve: unknown admin operation %q", op), http.StatusNotFound)
		return
	}
	if err != nil {
		status := statusFor(err)
		if errors.Is(err, core.ErrModelExists) {
			status = http.StatusConflict
		} else if status == http.StatusInternalServerError {
			// Load failures (bad path, digest mismatch, future format)
			// are operator input problems, not server faults.
			status = http.StatusBadRequest
		}
		writeErrorEnvelope(w, resp.Name, rid, err, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// HealthResponse is the body of GET /healthz: overall status plus
// per-model readiness and registry state, so a probe (or an operator)
// sees what is actually being served rather than a bare OK. The
// status, version and inflight fields are the contract cmd/router's
// health prober consumes (DESIGN.md §14):
//
//	"ok"       every published model is ready, nothing draining
//	"degraded" serving, but impaired — a model not ready, or a
//	           displaced version still draining after a swap
//	"draining" shutdown has begun; stop routing here
//	"empty"    no models published
type HealthResponse struct {
	Status  string `json:"status"`
	Default string `json:"default"`
	// DefaultVersion is the published version of the default model —
	// what a rolling swap waits on to declare this replica converged.
	DefaultVersion string `json:"default_version,omitempty"`
	// Replica is the process's fleet identity (cmd/serve -replica).
	Replica string `json:"replica,omitempty"`
	// Inflight is the number of predict/rollout requests currently in
	// flight across all models.
	Inflight int64         `json:"inflight"`
	Swaps    int64         `json:"swaps"`
	Models   []ModelStatus `json:"models"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Default:  s.deflt,
		Replica:  s.replica,
		Inflight: s.inflight.Load(),
		Swaps:    s.reg.Swaps(),
		Models:   s.Models(),
	}
	allReady := true
	for _, m := range resp.Models {
		if m.Name == resp.Default {
			resp.DefaultVersion = m.Version
		}
		allReady = allReady && m.Ready
	}
	switch {
	case s.draining.Load():
		resp.Status = "draining"
	case len(resp.Models) == 0:
		resp.Status = "empty"
	case !allReady || s.drainsPending.Load() > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "ok"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleMetrics serves GET /metrics in the Prometheus text format:
// per-model request/batch counters and fill, plus registry-level
// model and swap counts.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	models := s.Models()
	fmt.Fprintf(w, "# TYPE repro_registry_models gauge\nrepro_registry_models %d\n", len(models))
	fmt.Fprintf(w, "# TYPE repro_registry_swaps_total counter\nrepro_registry_swaps_total %d\n", s.reg.Swaps())
	fmt.Fprintf(w, "# TYPE repro_model_requests_total counter\n")
	for _, m := range models {
		fmt.Fprintf(w, "repro_model_requests_total{model=%q,version=%q} %d\n", m.Name, m.Version, m.Requests)
	}
	fmt.Fprintf(w, "# TYPE repro_model_batches_total counter\n")
	for _, m := range models {
		fmt.Fprintf(w, "repro_model_batches_total{model=%q,version=%q} %d\n", m.Name, m.Version, m.Batches)
	}
	fmt.Fprintf(w, "# TYPE repro_model_batch_fill_mean gauge\n")
	for _, m := range models {
		fmt.Fprintf(w, "repro_model_batch_fill_mean{model=%q,version=%q} %g\n", m.Name, m.Version, m.MeanFill)
	}
	fmt.Fprintf(w, "# TYPE repro_model_ready gauge\n")
	for _, m := range models {
		ready := 0
		if m.Ready {
			ready = 1
		}
		fmt.Fprintf(w, "repro_model_ready{model=%q,version=%q} %d\n", m.Name, m.Version, ready)
	}
	// Latency histograms (DESIGN.md §11): per model NAME so series
	// survive hot swaps; the fixed log-spaced buckets come from
	// stats.Histogram.
	hists := s.histSnapshots()
	writeHistogram(w, "repro_model_request_latency_seconds",
		"predict/rollout whole-request latency", hists,
		func(h histExport) statshist { return h.Latency })
	writeHistogram(w, "repro_model_batch_fill_delay_seconds",
		"micro-batch fill delay (oldest request enqueue to dispatch)", hists,
		func(h histExport) statshist { return h.Fill })
}

// statshist aliases the snapshot type to keep writeHistogram readable.
type statshist = stats.HistogramSnapshot

// writeHistogram emits one metric family in the Prometheus histogram
// exposition format: cumulative {le=...} buckets per model, then _sum
// and _count.
func writeHistogram(w io.Writer, name, help string, hists []histExport, pick func(histExport) statshist) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, h := range hists {
		snap := pick(h)
		for i, bound := range snap.Bounds {
			fmt.Fprintf(w, "%s_bucket{model=%q,le=%q} %d\n",
				name, h.Name, strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), snap.CumulativeCounts[i])
		}
		fmt.Fprintf(w, "%s_bucket{model=%q,le=\"+Inf\"} %d\n", name, h.Name, snap.Count)
		fmt.Fprintf(w, "%s_sum{model=%q} %g\n", name, h.Name, snap.Sum.Seconds())
		fmt.Fprintf(w, "%s_count{model=%q} %d\n", name, h.Name, snap.Count)
	}
}
