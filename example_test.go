package repro_test

// Runnable examples for the serving surface (doc.go): one-step
// prediction on an Engine, concurrent predictions on one Engine, and
// the HTTP client against an in-process server. Each
// builds a small untrained-but-deterministic ensemble — serving
// behaviour does not depend on the weights — so the examples run in
// milliseconds under `go test`.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// untrainedEnsemble builds a deterministic Table-I ensemble without
// training — serving behaviour (and cost) is weight-independent, so
// the examples and throughput benchmarks share this recipe.
func untrainedEnsemble(n, px, py int) (*core.Ensemble, error) {
	part, err := decomp.NewPartition(n, n, px, py)
	if err != nil {
		return nil, err
	}
	cfg := model.PaperConfig()
	models := make([]*nn.Sequential, part.Ranks())
	for r := range models {
		mc := cfg
		mc.Seed = int64(r + 1)
		m, err := model.Build(mc)
		if err != nil {
			return nil, err
		}
		models[r] = m
	}
	return &core.Ensemble{Partition: part, ModelCfg: cfg, Models: models}, nil
}

// exampleEnsemble builds the 2×2-rank, 16×16-grid ensemble the
// examples run on.
func exampleEnsemble() *core.Ensemble {
	ens, err := untrainedEnsemble(16, 2, 2)
	if err != nil {
		panic(err)
	}
	return ens
}

// Example_enginePredict serves a one-step prediction from a known
// full-domain state: the §IV-B evaluation path, callable from any
// number of goroutines at once.
func Example_enginePredict() {
	eng, err := core.NewEngine(exampleEnsemble())
	if err != nil {
		panic(err)
	}
	state := tensor.Normal(tensor.NewRNG(1), 0, 1, grid.NumChannels, 16, 16)
	frame, err := eng.Predict(context.Background(), state)
	if err != nil {
		panic(err)
	}
	fmt.Println("predicted shape:", frame.Shape(), "finite:", !frame.HasNaN())
	// Output:
	// predicted shape: [4 16 16] finite: true
}

// Example_concurrentPredict calls Predict from several goroutines at
// once on one Engine. Each call runs on its own pooled clone set, so
// the calls compute in parallel and every result is bit-identical to
// the same call made alone.
func Example_concurrentPredict() {
	eng, err := core.NewEngine(exampleEnsemble())
	if err != nil {
		panic(err)
	}

	ctx := context.Background()
	g := tensor.NewRNG(2)
	states := make([]*tensor.Tensor, 4)
	for i := range states {
		states[i] = tensor.Normal(g, 0, 1, grid.NumChannels, 16, 16)
	}
	var wg sync.WaitGroup
	frames := make([]*tensor.Tensor, len(states))
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := eng.Predict(ctx, states[i])
			if err != nil {
				panic(err)
			}
			frames[i] = f
		}(i)
	}
	wg.Wait()
	identical := true
	for i, f := range frames {
		want, err := eng.Predict(ctx, states[i])
		if err != nil {
			panic(err)
		}
		identical = identical && f.Equal(want)
	}
	fmt.Println("concurrent results bit-identical to sequential:", identical)
	// Output:
	// concurrent results bit-identical to sequential: true
}

// Example_httpClient drives the HTTP front end: POST /v1/predict and a
// streamed /v1/rollout, via the typed client cmd/serve shares.
func Example_httpClient() {
	eng, err := core.NewEngine(exampleEnsemble())
	if err != nil {
		panic(err)
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		panic(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	ctx := context.Background()
	client := serve.NewClient(hs.URL)
	state := tensor.Normal(tensor.NewRNG(3), 0, 1, grid.NumChannels, 16, 16)

	frame, err := client.Predict(ctx, state)
	if err != nil {
		panic(err)
	}
	fmt.Println("predict:", frame.Shape())

	steps := 0
	err = client.Rollout(ctx, 2, []*tensor.Tensor{state}, func(step int, frame *tensor.Tensor) error {
		steps++
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("rollout frames streamed:", steps)
	// Output:
	// predict: [4 16 16]
	// rollout frames streamed: 2
}

// Example_registryHotSwap publishes a model in a core.Registry,
// hot-swaps it for a new version while an old-version session is
// still open, and shows the zero-downtime contract: new requests see
// the new version immediately, the in-flight session finishes on the
// old weights, and the old version drains only after its last
// reference is released (DESIGN.md §10).
func Example_registryHotSwap() {
	build := func() *core.Engine {
		ens, err := untrainedEnsemble(16, 2, 2)
		if err != nil {
			panic(err)
		}
		eng, err := core.NewEngine(ens)
		if err != nil {
			panic(err)
		}
		return eng
	}
	reg := core.NewRegistry()
	if _, err := reg.Load("surrogate", "v1", build()); err != nil {
		panic(err)
	}

	ctx := context.Background()
	state := tensor.Normal(tensor.NewRNG(4), 0, 1, grid.NumChannels, 16, 16)

	// A long-lived session pins v1 across the swap.
	h1, err := reg.Get("surrogate")
	if err != nil {
		panic(err)
	}
	ses, err := h1.Engine().NewSession(ctx, state)
	if err != nil {
		panic(err)
	}

	// Publish v2: new Gets route to it immediately.
	if _, err := reg.Swap("surrogate", "v2", build()); err != nil {
		panic(err)
	}
	h2, err := reg.Get("surrogate")
	if err != nil {
		panic(err)
	}
	fmt.Println("new requests see:", h2.Version())
	h2.Release()

	// The old session still runs on its own version, undisturbed.
	if _, err := ses.Step(ctx); err != nil {
		panic(err)
	}
	fmt.Println("in-flight session still on:", h1.Version())
	drained := func() bool {
		select {
		case <-h1.Drained():
			return true
		default:
			return false
		}
	}
	fmt.Println("v1 drained while referenced:", drained())
	ses.Close()
	h1.Release()
	fmt.Println("v1 drained after release:", drained())
	reg.Close()
	// Output:
	// new requests see: v2
	// in-flight session still on: v1
	// v1 drained while referenced: false
	// v1 drained after release: true
}
