package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// postRaw posts body to a server URL and returns the response with its
// body read.
func postRaw(t *testing.T, url, requestID string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(RequestIDHeader, requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// pythonDump renders a predict request the way Python's json.dump does.
func pythonDump(state *tensor.Tensor) string {
	var b strings.Builder
	b.WriteString(`{"states": [{"shape": [`)
	for i, d := range state.Shape() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(d))
	}
	b.WriteString(`], "data": [`)
	for i, x := range state.Data() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64)) // repr(): 1e-05, not 1e-5
	}
	b.WriteString(`]}]}`)
	return b.String()
}

// TestPredictWireContract: on both surfaces the predict response is
// byte for byte what json.NewEncoder writes for the engine's frame,
// carries its Content-Length, and does not depend on the request's
// layout or on whether its length was declared.
func TestPredictWireContract(t *testing.T) {
	ds, eng := fixture(t)
	_, client := newTestServer(t, Config{})
	frame, err := eng.Predict(context.Background(), ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	want := stdEncode(t, NewTensorJSON(frame))
	goLayout := stdEncode(t, PredictRequest{States: []TensorJSON{NewTensorJSON(ds.Snapshots[0])}})
	for _, path := range []string{"/v1/predict", "/v2/models/default/predict"} {
		for name, body := range map[string]io.Reader{
			"go layout":     bytes.NewReader(goLayout),
			"python layout": strings.NewReader(pythonDump(ds.Snapshots[0])),
			// No length known up front: net/http sends it chunked.
			"chunked upload": io.MultiReader(bytes.NewReader(goLayout)),
		} {
			resp, got := postRaw(t, client.BaseURL+path, "", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s, %s: status %d: %s", path, name, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: response differs from json.NewEncoder's bytes", path, name)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Errorf("%s, %s: Content-Length %q, want %d", path, name, cl, len(want))
			}
		}
	}
}

// TestRolloutWireContract: every NDJSON line of a rollout is byte for
// byte json.NewEncoder's rendering of the same RolloutFrame, request ID
// included, on both surfaces.
func TestRolloutWireContract(t *testing.T) {
	ds, eng := fixture(t)
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	const steps = 3
	ses, err := eng.NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	var want [][]byte
	if err := ses.Run(ctx, steps, func(k int, f *tensor.Tensor) error {
		fj := NewTensorJSON(f)
		want = append(want, stdEncode(t, RolloutFrame{Step: k, RequestID: "wire-7", Frame: &fj}))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	body := stdEncode(t, PredictRequest{States: []TensorJSON{NewTensorJSON(ds.Snapshots[0])}})
	for _, path := range []string{"/v1/rollout", "/v2/models/default/rollout"} {
		resp, got := postRaw(t, client.BaseURL+path+"?steps="+strconv.Itoa(steps), "wire-7", bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, got)
		}
		if !bytes.Equal(got, bytes.Join(want, nil)) {
			t.Errorf("%s: stream differs from json.NewEncoder's lines", path)
		}
	}
}

// TestOversizedBodyIs413: a declared length over the bound is refused
// with 413 on both surfaces (v2 in the envelope), without the server
// reading or buffering the body.
func TestOversizedBodyIs413(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for _, path := range []string{"/v1/predict", "/v2/models/default/predict", "/v1/rollout"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"states":[]}`))
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", path, rec.Code, rec.Body)
		}
		if strings.HasPrefix(path, "/v2") && !strings.Contains(rec.Body.String(), `"code":"too_large"`) {
			t.Errorf("%s: envelope %s, want code too_large", path, rec.Body)
		}
	}
}

// TestHostileShapesAre400: shapes whose product wraps, or is far beyond
// the data sent, are the client's error on both surfaces, never a
// wire-valid tensor (nor a giant allocation).
func TestHostileShapesAre400(t *testing.T) {
	_, client := newTestServer(t, Config{})
	for _, tj := range []string{
		`{"shape":[4611686018427387904,4],"data":[]}`,
		`{"shape":[274177,67280421310721],"data":[5]}`,
		`{"shape":[6148914691236517206,3],"data":[1,2]}`,
		`{"shape":[999999999,999999999],"data":[1,2,3]}`,
	} {
		for _, path := range []string{"/v1/predict", "/v2/models/default/predict", "/v1/rollout"} {
			resp, got := postRaw(t, client.BaseURL+path, "", strings.NewReader(`{"states":[`+tj+`]}`))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400: %s", path, tj, resp.StatusCode, got)
			}
		}
	}
}

// TestNonFiniteOutput: a frame JSON cannot carry used to be a 200 with
// an empty body. Predict answers a typed 500 before the status line is
// committed; rollout, whose status is committed with the first frame,
// ends the stream with its in-band error record.
func TestNonFiniteOutput(t *testing.T) {
	ds, eng := fixture(t)
	_, client := newTestServer(t, Config{})
	// Finite on the wire, but large enough to overflow inside the net.
	huge := tensor.New(ds.Snapshots[0].Shape()...)
	for i := range huge.Data() {
		huge.Data()[i] = 1e308
	}
	frame, err := eng.Predict(context.Background(), huge)
	if err != nil {
		t.Fatal(err)
	}
	finite := true
	for _, x := range frame.Data() {
		finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	if finite {
		t.Fatal("fixture: a 1e308 input no longer drives the output non-finite")
	}
	body := stdEncode(t, PredictRequest{States: []TensorJSON{NewTensorJSON(huge)}})

	resp, got := postRaw(t, client.BaseURL+"/v1/predict", "nan-1", bytes.NewReader(body))
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(got), ErrNonFiniteOutput.Error()) {
		t.Errorf("v1: status %d, body %q, want 500 naming the non-finite value", resp.StatusCode, got)
	}
	resp, got = postRaw(t, client.BaseURL+"/v2/models/default/predict", "nan-2", bytes.NewReader(body))
	var env ErrorEnvelope
	if err := json.Unmarshal(got, &env); err != nil {
		t.Fatalf("v2: body %q is not an envelope: %v", got, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "non_finite_output" ||
		env.Error.RequestID != "nan-2" || env.Error.Model != "default" {
		t.Errorf("v2: status %d, envelope %+v", resp.StatusCode, env)
	}

	resp, got = postRaw(t, client.BaseURL+"/v1/rollout?steps=2", "nan-3", bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout: status %d: %s", resp.StatusCode, got)
	}
	var last RolloutFrame
	sc := bufio.NewScanner(bytes.NewReader(got))
	for sc.Scan() {
		last = RolloutFrame{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("rollout: line %q: %v", sc.Bytes(), err)
		}
	}
	if last.Step != -1 || last.RequestID != "nan-3" || !strings.Contains(last.Error, ErrNonFiniteOutput.Error()) {
		t.Errorf("rollout: last record %+v, want the terminal error record", last)
	}
}
