package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tensor"
)

// registryFixture trains two deliberately different tiny models (same
// partition, different seeds) and wraps them as engines — the old and
// new version of a hot swap.
func registryFixture(t *testing.T) (ds *dataset.Dataset, engA, engB *Engine) {
	t.Helper()
	ds = tinyDataset(t, 16, 6)
	build := func(seed int64) *Engine {
		cfg := tinyCfg()
		cfg.Epochs = 1
		cfg.Seed = seed
		cfg.Model.Seed = seed
		res, err := trainParallel(ds, 2, 2, cfg, CriticalPath)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(res.Ensemble())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	return ds, build(1), build(2)
}

func TestRegistryLifecycle(t *testing.T) {
	_, engA, engB := registryFixture(t)
	reg := NewRegistry()
	if _, err := reg.Get("m"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("get on empty registry: got %v, want ErrModelNotFound", err)
	}
	if _, err := reg.Load("m", "v1", engA); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("m", "v2", engB); !errors.Is(err, ErrModelExists) {
		t.Fatalf("double load: got %v, want ErrModelExists", err)
	}
	h, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "m" || h.Version() != "v1" || h.Engine() != engA {
		t.Fatalf("handle identity wrong: %s@%s", h.Name(), h.Version())
	}
	infos := reg.List()
	if len(infos) != 1 || infos[0].Refs != 1 || !infos[0].Ready {
		t.Fatalf("list wrong: %+v", infos)
	}
	h.Release()
	if _, err := reg.Unload("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Unload("m"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("double unload: got %v, want ErrModelNotFound", err)
	}
	select {
	case <-h.Drained():
	default:
		t.Fatal("unloaded handle with no refs did not drain")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("m"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("get after close: got %v, want ErrRegistryClosed", err)
	}
}

func TestRegistrySwapRoutesNewGetsAndDrainsOld(t *testing.T) {
	ds, engA, engB := registryFixture(t)
	ctx := context.Background()
	wantA, err := engA.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := engB.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if wantA.Equal(wantB) {
		t.Fatal("fixture models are identical; the swap test would prove nothing")
	}

	reg := NewRegistry()
	if _, err := reg.Load("m", "vA", engA); err != nil {
		t.Fatal(err)
	}
	hOld, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	// Open a session on the old version, then swap underneath it.
	ses, err := hOld.Engine().NewSession(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}

	old, err := reg.Swap("m", "vB", engB)
	if err != nil {
		t.Fatal(err)
	}
	if old != hOld {
		t.Fatal("Swap did not return the displaced handle")
	}
	// New Gets see the new version immediately.
	hNew, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if hNew.Version() != "vB" || hNew.Engine() != engB {
		t.Fatalf("post-swap Get returned %s@%s", hNew.Name(), hNew.Version())
	}
	got, err := hNew.Engine().Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantB) {
		t.Fatal("post-swap request did not run on the new model")
	}
	// The old session keeps serving the OLD weights, and the old
	// handle must not drain while it is referenced.
	frame, err := ses.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.Equal(wantA) {
		t.Fatal("in-flight session switched models mid-swap")
	}
	select {
	case <-hOld.Drained():
		t.Fatal("old handle drained while a session still references it")
	default:
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	hOld.Release()
	select {
	case <-hOld.Drained():
	default:
		t.Fatal("old handle did not drain after its last reference was released")
	}
	if reg.Swaps() != 1 {
		t.Fatalf("swap counter = %d, want 1", reg.Swaps())
	}
	hNew.Release() // Close blocks until every handle drains
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrySwapUnderLoad hammers Get/Predict/Session traffic from
// many goroutines while the main goroutine swaps back and forth
// between two versions. Under -race this is the acceptance gate for
// the swap design: zero failed requests, zero mixed-version results
// (every response bit-matches the version its handle named), and
// every retired handle drains.
func TestRegistrySwapUnderLoad(t *testing.T) {
	ds, engA, engB := registryFixture(t)
	ctx := context.Background()
	want := map[string]*tensor.Tensor{}
	for v, eng := range map[string]*Engine{"vA": engA, "vB": engB} {
		w, err := eng.Predict(ctx, ds.Snapshots[0])
		if err != nil {
			t.Fatal(err)
		}
		want[v] = w
	}

	reg := NewRegistry()
	if _, err := reg.Load("m", "vA", engA); err != nil {
		t.Fatal(err)
	}

	const (
		workers  = 8
		perWork  = 30
		swaps    = 40
		sessions = 2 // workers that hold a Session across steps instead of Predict
	)
	errs := make(chan error, workers*perWork+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				h, err := reg.Get("m")
				if err != nil {
					errs <- err
					return
				}
				v := h.Version()
				if w < sessions {
					ses, err := h.Engine().NewSession(ctx, ds.Snapshots[0])
					if err != nil {
						h.Release()
						errs <- err
						return
					}
					frame, err := ses.Step(ctx)
					if cerr := ses.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						h.Release()
						errs <- err
						return
					}
					if !frame.Equal(want[v]) {
						errs <- errors.New("session frame does not match its handle's version " + v)
					}
				} else {
					got, err := h.Engine().Predict(ctx, ds.Snapshots[0])
					if err != nil {
						h.Release()
						errs <- err
						return
					}
					if !got.Equal(want[v]) {
						errs <- errors.New("predict does not match its handle's version " + v)
					}
				}
				h.Release()
			}
		}(w)
	}

	retired := make([]*Handle, 0, swaps)
	versions := [2]string{"vB", "vA"}
	engines := [2]*Engine{engB, engA}
	for i := 0; i < swaps; i++ {
		old, err := reg.Swap("m", versions[i%2], engines[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if old != nil {
			retired = append(retired, old)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every retired version must drain now that all requests finished.
	for i, h := range retired {
		select {
		case <-h.Drained():
		default:
			t.Fatalf("retired handle %d (%s) never drained", i, h.Version())
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrySwapRejectsBadArgs pins the argument validation.
func TestRegistrySwapRejectsBadArgs(t *testing.T) {
	_, engA, _ := registryFixture(t)
	reg := NewRegistry()
	if _, err := reg.Load("", "v1", engA); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := reg.Load("m", "v1", nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := reg.Swap("m", "v1", nil); err == nil {
		t.Fatal("nil engine accepted by Swap")
	}
	// Swap on a fresh name is an upsert.
	if _, err := reg.Swap("m", "v1", engA); err != nil {
		t.Fatal(err)
	}
	if h, err := reg.Get("m"); err != nil || h.Version() != "v1" {
		t.Fatalf("upsert swap did not publish: %v", err)
	} else {
		h.Release()
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveModelRoundTrip pins the artifact path end to end at the
// ensemble level: SaveModel → manifest on disk → OpenModel returns
// the manifest and a bit-identical ensemble.
func TestSaveModelRoundTrip(t *testing.T) {
	ds, engA, _ := registryFixture(t)
	dir := t.TempDir() + "/prod"
	if err := SaveModel(engA.ens, dir, "prod", "v7"); err != nil {
		t.Fatal(err)
	}
	e2, man, err := OpenModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Name != "prod" || man.Version != "v7" {
		t.Fatalf("manifest identity wrong: %+v", man)
	}
	eng2, err := NewEngine(e2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := engA.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng2.Predict(ctx, ds.Snapshots[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("artifact round trip changed predictions")
	}
	// Digest verification is actually exercised on this path.
	if man.Verify(dir) != nil {
		t.Fatal("fresh artifact fails digest verification")
	}
	_ = model.ArtifactFormatVersion // the format constant is part of the public contract
}
