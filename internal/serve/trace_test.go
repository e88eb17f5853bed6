package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postJSON sends a JSON body with optional request ID and returns the
// response.
func postJSON(t *testing.T, url, id string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func predictBody(t *testing.T) PredictRequest {
	t.Helper()
	ds, _ := fixture(t)
	return PredictRequest{States: []TensorJSON{NewTensorJSON(ds.Snapshots[0])}}
}

// TestRequestIDMinted asserts every response carries a non-empty
// X-Request-ID even when the client sent none, and that two requests
// get distinct IDs.
func TestRequestIDMinted(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ids := make(map[string]bool)
	for i := 0; i < 2; i++ {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(RequestIDHeader)
		if id == "" {
			t.Fatal("response without X-Request-ID")
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Fatalf("minted IDs not unique: %v", ids)
	}
}

// TestRequestIDHonoredAndSanitized asserts a client-supplied ID is
// echoed verbatim when clean and stripped of unsafe bytes otherwise.
func TestRequestIDHonoredAndSanitized(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp := postJSON(t, hs.URL+"/v1/predict", "trace-42.a_b", predictBody(t))
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "trace-42.a_b" {
		t.Fatalf("clean ID not honored: %q", got)
	}

	resp = postJSON(t, hs.URL+"/v1/predict", "ok<script>&;", predictBody(t))
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "okscript" {
		t.Fatalf("unsafe ID not sanitized: %q", got)
	}
}

// TestRequestIDInErrorEnvelope asserts a failing /v2 request reports
// its ID both in the envelope field and stamped into the error chain
// by the batcher.
func TestRequestIDInErrorEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// An empty history fails window validation inside the batch path.
	resp := postJSON(t, hs.URL+"/v2/models/default/predict", "bad-req-7", PredictRequest{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RequestID != "bad-req-7" {
		t.Fatalf("envelope request_id %q, want bad-req-7", env.Error.RequestID)
	}
	if !strings.Contains(env.Error.Message, "request=bad-req-7") {
		t.Fatalf("error message not stamped with the request ID: %q", env.Error.Message)
	}
	if env.Error.Code != "bad_window" {
		t.Fatalf("wrapping broke the error class: code %q", env.Error.Code)
	}
}

// TestRequestIDInRolloutStream asserts every streamed rollout record
// carries the request ID.
func TestRequestIDInRolloutStream(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp := postJSON(t, hs.URL+"/v1/rollout?steps=3", "roll-1", predictBody(t))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var rec RolloutFrame
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Error != "" {
			t.Fatalf("rollout failed: %s", rec.Error)
		}
		if rec.RequestID != "roll-1" {
			t.Fatalf("record %d request_id %q, want roll-1", n, rec.RequestID)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d records, want 3", n)
	}
}

// TestAccessLog asserts the access log names method, path, status and
// request ID, and that rollouts add a comm-stats summary line under
// the same ID.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := newTestServer(t, Config{AccessLog: log.New(&buf, "", 0)})
	hs := httptest.NewServer(srv)
	resp := postJSON(t, hs.URL+"/v1/rollout?steps=2", "logged-1", predictBody(t))
	resp.Body.Close()
	// The access-log line is written after the response body; Close
	// blocks until the handler has returned, so the buffer is complete
	// and no longer shared with the handler goroutine.
	hs.Close()
	logged := buf.String()
	if !strings.Contains(logged, "POST /v1/rollout status=200") || !strings.Contains(logged, "request=logged-1") {
		t.Fatalf("request line missing from access log:\n%s", logged)
	}
	if !strings.Contains(logged, "rollout request=logged-1") || !strings.Contains(logged, "comm_msgs=") {
		t.Fatalf("rollout comm summary missing from access log:\n%s", logged)
	}
}

// TestMetricsHistograms asserts /metrics exports the request-latency
// histogram for a served model after traffic.
func TestMetricsHistograms(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ds, _ := fixture(t)
	traffic := httptest.NewServer(srv)
	if _, err := NewClient(traffic.URL).Predict(context.Background(), ds.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	// The latency observation is deferred past the response body; Close
	// blocks until the handler has returned, so the scrape sees it.
	traffic.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		`# TYPE repro_model_request_latency_seconds histogram`,
		`repro_model_request_latency_seconds_bucket{model="default",le="0.0001"}`,
		`repro_model_request_latency_seconds_bucket{model="default",le="+Inf"} 1`,
		`repro_model_request_latency_seconds_count{model="default"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
