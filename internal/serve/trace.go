package serve

import (
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Per-request tracing (DESIGN.md §11). Every request gets an ID —
// honored from the client's X-Request-ID header when present (so a
// caller can correlate its own logs, and pin the ID to make two runs'
// responses byte-comparable), minted
// otherwise — echoed on the X-Request-ID response header, threaded
// through the handler context into core (Predict and Session step
// errors), and surfaced in /v2 error envelopes, streamed rollout
// records and the access log.

// RequestIDHeader is the request/response header carrying the ID.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds honored client IDs.
const maxRequestIDLen = 64

// reqSeq numbers minted request IDs within this process.
var reqSeq atomic.Int64

// reqEpoch distinguishes processes (restart = new epoch), set once at
// startup.
var reqEpoch = time.Now().UnixNano()

// mintRequestID builds a fresh process-unique request ID.
func mintRequestID() string {
	return strconv.FormatInt(reqEpoch, 36) + "-" + strconv.FormatInt(reqSeq.Add(1), 36)
}

// sanitizeRequestID keeps a client-supplied ID safe for logs and error
// strings: letters, digits, '-', '_' and '.', truncated to
// maxRequestIDLen. Anything else is dropped; an ID that sanitizes to
// "" is treated as absent.
func sanitizeRequestID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(out) < maxRequestIDLen; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		}
	}
	return string(out)
}

// EnsureRequestID returns the request's ID: the sanitized client
// X-Request-ID header if usable, a freshly minted process-unique one
// otherwise. Exported for cmd/router, which assigns the ID at the
// fleet edge and propagates it to the replica it picks.
func EnsureRequestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get(RequestIDHeader)); id != "" {
		return id
	}
	return mintRequestID()
}

// statusRecorder captures the response status for the access log while
// passing Flush through — the rollout routes stream chunked frames and
// must keep flushing per frame.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// histFor returns (creating on first use) a model name's
// whole-request latency histogram for predict and rollout. It is keyed
// by NAME, not version, so the series survive hot swaps the way the
// retired counter tallies do.
func (s *Server) histFor(name string) *stats.Histogram {
	s.mu.RLock()
	h := s.hists[name]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.hists[name]; h == nil {
		h = &stats.Histogram{}
		s.hists[name] = h
	}
	return h
}

// histExport is one model's latency snapshot for /metrics.
type histExport struct {
	Name     string
	Snapshot stats.HistogramSnapshot
}

// histSnapshots returns a name-sorted copy of every model's latency
// histogram for /metrics.
func (s *Server) histSnapshots() []histExport {
	s.mu.RLock()
	out := make([]histExport, 0, len(s.hists))
	for name, h := range s.hists {
		out = append(out, histExport{name, h.Snapshot()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// logf writes one access-log line when Config.AccessLog is set.
func (s *Server) logf(format string, args ...any) {
	if s.accessLog != nil {
		s.accessLog.Printf(format, args...)
	}
}
