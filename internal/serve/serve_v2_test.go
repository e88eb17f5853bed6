package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/euler"
	"repro/internal/tensor"
)

// The /v2 half of Client: only these tests drive the per-model and
// admin endpoints through it (the binaries use /v1 and AdminSwap).

// PredictModel is Predict against a named model on the /v2 surface.
func (c *Client) PredictModel(ctx context.Context, model string, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	return c.predictPath(ctx, "/v2/models/"+model+"/predict", states)
}

// RolloutModel is Rollout against a named model on the /v2 surface.
func (c *Client) RolloutModel(ctx context.Context, model string, steps int, states []*tensor.Tensor, fn func(step int, frame *tensor.Tensor) error) error {
	return c.rolloutPath(ctx, "/v2/models/"+model+"/rollout", steps, states, fn)
}

// Models lists the server's published models (GET /v2/models).
func (c *Client) Models(ctx context.Context) (*ModelsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/models", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var out ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding models list: %w", err)
	}
	return &out, nil
}

// AdminLoad publishes the model artifact at dir under name (empty =
// the manifest's name).
func (c *Client) AdminLoad(ctx context.Context, name, version, dir string) (*AdminResponse, error) {
	return c.admin(ctx, "load", AdminRequest{Name: name, Version: version, Dir: dir})
}

// AdminUnload retires the model published under name.
func (c *Client) AdminUnload(ctx context.Context, name string) (*AdminResponse, error) {
	return c.admin(ctx, "unload", AdminRequest{Name: name})
}

// AdminPromote asks a cmd/router front end to move the named warm
// standby replica into the routed set (POST /v2/admin/promote). It is
// a router-only operation; a plain cmd/serve answers 404.
func (c *Client) AdminPromote(ctx context.Context, replica string) (*AdminResponse, error) {
	return c.admin(ctx, "promote", AdminRequest{Name: replica})
}

// v2Fixture trains two deliberately different tiny models (different
// seeds) once and caches them — the two versions every hot-swap test
// flips between.
var v2Fixture struct {
	sync.Once
	ds         *dataset.Dataset
	ensA, ensB *core.Ensemble
	engA, engB *core.Engine
}

func fixture2(t *testing.T) (*dataset.Dataset, *core.Engine, *core.Engine) {
	t.Helper()
	v2Fixture.Do(func() {
		raw, err := dataset.Generate(dataset.GenConfig{Euler: euler.DefaultConfig(16), NumSnapshots: 8})
		if err != nil {
			t.Fatal(err)
		}
		norm, err := dataset.FitMinMax(raw, 0.1, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		ds := dataset.NormalizeDataset(raw, norm)
		build := func(seed int64) (*core.Ensemble, *core.Engine) {
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.Seed = seed
			cfg.Model.Seed = seed
			tr, err := core.NewTrainer(cfg, core.WithTopology(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tr.Train(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(rep.Ensemble())
			if err != nil {
				t.Fatal(err)
			}
			return rep.Ensemble(), eng
		}
		v2Fixture.ds = ds
		v2Fixture.ensA, v2Fixture.engA = build(1)
		v2Fixture.ensB, v2Fixture.engB = build(2)
	})
	if v2Fixture.engA == nil {
		t.Fatal("fixture failed in an earlier test")
	}
	return v2Fixture.ds, v2Fixture.engA, v2Fixture.engB
}

func newMultiServer(t *testing.T, cfg Config) (*Server, *Client, string) {
	t.Helper()
	srv, err := NewMulti(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, NewClient(hs.URL), hs.URL
}

// TestV2ModelsListAndPerModelPredict covers the multi-model routes:
// two models served side by side, each answering with its own weights,
// plus the list route.
func TestV2ModelsListAndPerModelPredict(t *testing.T) {
	ds, engA, engB := fixture2(t)
	ctx := context.Background()
	srv, client, _ := newMultiServer(t, Config{DefaultModel: "alpha"})
	if err := srv.LoadEngine("alpha", "v1", engA); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadEngine("beta", "v2", engB); err != nil {
		t.Fatal(err)
	}
	wantA, err := engA.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := engB.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if wantA.Equal(wantB) {
		t.Fatal("fixture engines predict identically; the test would prove nothing")
	}

	list, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.Default != "alpha" || len(list.Models) != 2 {
		t.Fatalf("models list wrong: %+v", list)
	}
	if list.Models[0].Name != "alpha" || list.Models[0].Version != "v1" || !list.Models[0].Ready {
		t.Fatalf("alpha entry wrong: %+v", list.Models[0])
	}

	gotA, err := client.PredictModel(ctx, "alpha", ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := client.PredictModel(ctx, "beta", ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !gotA.Equal(wantA) || !gotB.Equal(wantB) {
		t.Fatal("per-model predicts not routed to the right engines")
	}
	// /v1 delegates to the default model.
	gotV1, err := client.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !gotV1.Equal(wantA) {
		t.Fatal("/v1/predict did not delegate to the default model")
	}
	// Per-model rollout streams the right model's frames.
	var frame0 *tensor.Tensor
	if err := client.RolloutModel(ctx, "beta", 1, []*tensor.Tensor{ds.Snapshots[0]}, func(_ int, f *tensor.Tensor) error {
		frame0 = f
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !frame0.Equal(wantB) {
		t.Fatal("per-model rollout not routed to the right engine")
	}
}

// TestV2ErrorEnvelope pins the structured /v2 error wire format and
// its code mapping from the named errors.
func TestV2ErrorEnvelope(t *testing.T) {
	ds, engA, _ := fixture2(t)
	srv, _, base := newMultiServer(t, Config{})
	if err := srv.LoadEngine("default", "v1", engA); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, ErrorEnvelope) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: response is not a JSON envelope: %v", path, err)
		}
		return resp.StatusCode, env
	}
	// Unknown model → 404 model_not_found, naming the model.
	status, env := post("/v2/models/ghost/predict", `{"states":[]}`)
	if status != http.StatusNotFound || env.Error.Code != "model_not_found" || env.Error.Model != "ghost" {
		t.Fatalf("unknown model: status %d, envelope %+v", status, env)
	}
	// Bad window (empty history) → 400 bad_window.
	status, env = post("/v2/models/default/predict", `{"states":[]}`)
	if status != http.StatusBadRequest || env.Error.Code != "bad_window" {
		t.Fatalf("empty history: status %d, envelope %+v", status, env)
	}
	// Shape mismatch → 400 shape_mismatch.
	bad := PredictRequest{States: []TensorJSON{NewTensorJSON(tensor.New(4, 3, 3))}}
	raw, _ := json.Marshal(bad)
	status, env = post("/v2/models/default/predict", string(raw))
	if status != http.StatusBadRequest || env.Error.Code != "shape_mismatch" {
		t.Fatalf("bad shape: status %d, envelope %+v", status, env)
	}
	_ = ds
}

// TestV2AdminLoadSwapUnload drives the admin routes end to end over
// real artifact directories.
func TestV2AdminLoadSwapUnload(t *testing.T) {
	ds, engA, engB := fixture2(t)
	ctx := context.Background()
	dirA := t.TempDir() + "/a"
	dirB := t.TempDir() + "/b"
	if err := core.SaveModel(v2Fixture.ensA, dirA, "prod", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(v2Fixture.ensB, dirB, "prod", "v2"); err != nil {
		t.Fatal(err)
	}
	wantA, _ := engA.Predict(ctx, ds.Snapshots[0])
	wantB, _ := engB.Predict(ctx, ds.Snapshots[0])

	srv, client, _ := newMultiServer(t, Config{DefaultModel: "prod"})
	// Load v1 from its artifact; name/version come from the manifest.
	resp, err := client.AdminLoad(ctx, "", "", dirA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "prod" || resp.Version != "v1" {
		t.Fatalf("admin load resolved %s@%s, want prod@v1", resp.Name, resp.Version)
	}
	got, err := client.PredictModel(ctx, "prod", ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantA) {
		t.Fatal("loaded model does not serve v1 weights")
	}
	// Loading the same name again must 409.
	if _, err := client.AdminLoad(ctx, "", "", dirA); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("double load: got %v, want 409", err)
	}
	// Hot swap to v2.
	resp, err = client.AdminSwap(ctx, "", "", dirB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != "v2" {
		t.Fatalf("admin swap resolved version %s, want v2", resp.Version)
	}
	got, err = client.PredictModel(ctx, "prod", ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantB) {
		t.Fatal("post-swap predict still serves old weights")
	}
	if srv.Registry().Swaps() != 1 {
		t.Fatalf("swap counter = %d", srv.Registry().Swaps())
	}
	// Unload; further predicts 404.
	if _, err := client.AdminUnload(ctx, "prod"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PredictModel(ctx, "prod", ds.Snapshots[0]); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("post-unload predict: got %v, want 404", err)
	}
}

// TestV2SwapUnderLoadHTTP is the HTTP-level acceptance test: sustained
// concurrent predict load across repeated hot swaps must see zero
// failed requests and only ever whole-version responses; once the
// swaps settle the traffic serves the final version.
func TestV2SwapUnderLoadHTTP(t *testing.T) {
	ds, engA, engB := fixture2(t)
	ctx := context.Background()
	wantA, _ := engA.Predict(ctx, ds.Snapshots[0])
	wantB, _ := engB.Predict(ctx, ds.Snapshots[0])

	srv, client, _ := newMultiServer(t, Config{MaxBatch: 4, MaxDelay: time.Millisecond, DefaultModel: "m"})
	if err := srv.LoadEngine("m", "vA", engA); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const perWork = 20
	errs := make(chan error, workers*perWork)
	mixed := make(chan string, workers*perWork)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				got, err := client.PredictModel(ctx, "m", ds.Snapshots[0])
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(wantA) && !got.Equal(wantB) {
					mixed <- "response matches neither version"
				}
			}
		}()
	}
	engines := []*core.Engine{engB, engA, engB}
	versions := []string{"vB", "vA", "vB"}
	for i := range engines {
		time.Sleep(5 * time.Millisecond) // let some load hit the current version
		if err := srv.SwapEngine("m", versions[i], engines[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	close(mixed)
	for err := range errs {
		t.Errorf("request failed during swap: %v", err)
	}
	for m := range mixed {
		t.Error(m)
	}
	// Settled: the final version answers.
	got, err := client.PredictModel(ctx, "m", ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantB) {
		t.Fatal("post-swap traffic does not serve the final version")
	}
	if n := srv.Registry().Swaps(); n != 3 {
		t.Fatalf("swap counter = %d, want 3", n)
	}
}

// TestHealthzReportsModels pins the extended health probe: overall
// status plus per-model readiness and registry state.
func TestHealthzReportsModels(t *testing.T) {
	_, engA, _ := fixture2(t)
	srv, _, base := newMultiServer(t, Config{DefaultModel: "m"})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "empty" || len(h.Models) != 0 {
		t.Fatalf("empty server healthz: %+v", h)
	}
	if err := srv.LoadEngine("m", "v1", engA); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Default != "m" || len(h.Models) != 1 ||
		h.Models[0].Name != "m" || h.Models[0].Version != "v1" || !h.Models[0].Ready {
		t.Fatalf("healthz after load: %+v", h)
	}
}

// TestMetricsEndpoint pins the /metrics counters: per-model requests,
// batches and fill, plus registry swap/model gauges.
func TestMetricsEndpoint(t *testing.T) {
	ds, engA, engB := fixture2(t)
	ctx := context.Background()
	srv, client, base := newMultiServer(t, Config{DefaultModel: "m"})
	if err := srv.LoadEngine("m", "v1", engA); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PredictModel(ctx, "m", ds.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.SwapEngine("m", "v2", engB); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	wants := []string{
		"repro_registry_models 1",
		"repro_registry_swaps_total 1",
		// The pre-swap request survives the swap: counters are
		// cumulative per model name, not per version instance. The old
		// version's tally folds in on its background drain, so poll.
		`repro_model_requests_total{model="m",version="v2"} 1`,
		`repro_model_ready{model="m",version="v2"} 1`,
	}
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		body = scrape()
		ok := true
		for _, want := range wants {
			ok = ok && strings.Contains(body, want)
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}
