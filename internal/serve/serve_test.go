package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/euler"
	"repro/internal/model"
	"repro/internal/tensor"
)

// testFixture builds a small trained engine plus its dataset once.
var testFixture struct {
	sync.Once
	ds  *dataset.Dataset
	eng *core.Engine
}

func fixture(t *testing.T) (*dataset.Dataset, *core.Engine) {
	t.Helper()
	testFixture.Do(func() {
		raw, err := dataset.Generate(dataset.GenConfig{Euler: euler.DefaultConfig(16), NumSnapshots: 8})
		if err != nil {
			t.Fatal(err)
		}
		norm, err := dataset.FitMinMax(raw, 0.1, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		ds := dataset.NormalizeDataset(raw, norm)
		cfg := core.DefaultTrainConfig()
		cfg.Epochs = 1
		cfg.Model.Strategy = model.NeighborPad
		trainer, err := core.NewTrainer(cfg, core.WithTopology(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := trainer.Train(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(rep.Parallel.Ensemble())
		if err != nil {
			t.Fatal(err)
		}
		testFixture.ds, testFixture.eng = ds, eng
	})
	if testFixture.eng == nil {
		t.Fatal("fixture failed in an earlier test")
	}
	return testFixture.ds, testFixture.eng
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	_, eng := fixture(t)
	srv, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, NewClient(hs.URL)
}

// TestPredictEndToEnd asserts both wire formats reproduce a local
// Engine.Predict bit for bit — JSON float64 round-tripping included.
func TestPredictEndToEnd(t *testing.T) {
	ds, eng := fixture(t)
	_, client := newTestServer(t, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	ctx := context.Background()
	want, err := eng.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		client.Binary = binary
		got, err := client.Predict(ctx, ds.Snapshots[0])
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if !got.Equal(want) {
			t.Fatalf("binary=%v: served prediction differs from local Engine.Predict", binary)
		}
	}
}

// TestPredictConcurrentCoalesced drives concurrent clients through
// the HTTP path and checks bit-identity with sequential local calls
// under concurrency, with every request served by the batcher. Over
// HTTP whether requests share a batch depends on the scheduler, so
// coalescing itself is asserted in core
// (TestBatcherAnnouncedArrivalsCoalesce).
func TestPredictConcurrentCoalesced(t *testing.T) {
	ds, eng := fixture(t)
	srv, client := newTestServer(t, Config{MaxBatch: 4, MaxDelay: 5 * time.Millisecond})
	ctx := context.Background()
	const N = 12
	want := make([]*tensor.Tensor, N)
	for i := range want {
		w, err := eng.Predict(ctx, ds.Snapshots[i%4])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	errs := make([]error, N)
	got := make([]*tensor.Tensor, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = client.Predict(ctx, ds.Snapshots[i%4])
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !got[i].Equal(want[i]) {
			t.Fatalf("request %d differs from local Predict", i)
		}
	}
	if s := srv.Stats(); s.Requests != N {
		t.Fatalf("batcher served %d of %d requests", s.Requests, N)
	}
}

// TestRolloutStreaming asserts the chunked rollout stream matches a
// local Session frame for frame, for POSTed histories and for the
// server-side GET initial state, in both formats.
func TestRolloutStreaming(t *testing.T) {
	ds, eng := fixture(t)
	_, client := newTestServer(t, Config{Initials: []*tensor.Tensor{ds.Snapshots[0]}})
	ctx := context.Background()
	const steps = 3
	ses, err := eng.NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tensor.Tensor, 0, steps)
	if err := ses.Run(ctx, steps, func(k int, f *tensor.Tensor) error {
		want = append(want, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ses.Close()

	for _, tc := range []struct {
		name   string
		states []*tensor.Tensor
		binary bool
	}{
		{"post/json", []*tensor.Tensor{ds.Snapshots[0]}, false},
		{"post/gob", []*tensor.Tensor{ds.Snapshots[0]}, true},
		{"get/json", nil, false},
		{"get/gob", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client.Binary = tc.binary
			k := 0
			err := client.Rollout(ctx, steps, tc.states, func(step int, frame *tensor.Tensor) error {
				if step != k {
					t.Fatalf("frame order: got step %d, want %d", step, k)
				}
				if !frame.Equal(want[k]) {
					t.Fatalf("streamed frame %d differs from local session", k)
				}
				k++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if k != steps {
				t.Fatalf("received %d of %d frames", k, steps)
			}
		})
	}
}

// TestPredictRejectsBadRequests maps validation failures to 400s.
func TestPredictRejectsBadRequests(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := client.Predict(ctx, tensor.New(4, 3, 3)); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad shape: got %v, want 400", err)
	}
	if _, err := client.Predict(ctx); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty history: got %v, want 400", err)
	}
	if err := client.Rollout(ctx, 0, nil, nil); err == nil {
		t.Fatal("steps=0 accepted")
	}
}

// TestServerDrain asserts the Close drain path: after Close, predict
// requests are refused with 503 (the batcher is draining/closed).
func TestServerDrain(t *testing.T) {
	ds, eng := fixture(t)
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := NewClient(hs.URL)
	ctx := context.Background()
	if _, err := client.Predict(ctx, ds.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Predict(ctx, ds.Snapshots[0]); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("post-drain predict: got %v, want 503", err)
	}
}
