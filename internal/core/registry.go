package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe map of model name → refcounted
// *Engine handle: the serving layer's unit of multi-model and
// zero-downtime rollout (DESIGN.md §10). Load publishes a model under
// a name, Get hands out a refcounted handle to the current version,
// and Swap atomically replaces the published version — new Gets see
// the new engine immediately, while callers still holding the old
// handle (in-flight Predict calls, open rollout Sessions) finish
// on the old engine undisturbed. The old handle's Drained channel
// closes only when the last reference is released, so nothing is torn
// down under an active request.
//
// A Registry never mutates the engines themselves; it only governs
// their visibility and lifetime. All methods are safe for concurrent
// use.
type Registry struct {
	mu     sync.Mutex
	models map[string]*Handle
	closed bool
	swaps  atomic.Int64
}

// Handle is one published (name, version, engine) triple with a
// reference count. The registry itself holds one reference for as
// long as the handle is the published version of its name; Get adds
// one per caller, Release removes it. When the handle has been
// retired (swapped out, unloaded, or the registry closed) and the
// count reaches zero, Drained closes.
type Handle struct {
	name    string
	version string
	eng     *Engine

	mu      sync.Mutex
	refs    int
	retired bool
	drained chan struct{}
}

// Name returns the registry name the handle was published under.
func (h *Handle) Name() string { return h.name }

// Version returns the model version string the handle was published
// with.
//
//repolint:allow reach -- Example_registryHotSwap prints it to show which version a held handle pins across a swap
func (h *Handle) Version() string { return h.version }

// Engine returns the engine. Use it only between Get and Release.
func (h *Handle) Engine() *Engine { return h.eng }

// Drained returns a channel closed once the handle has been retired
// AND every reference released — the point at which the old version
// of a swap is provably out of service.
func (h *Handle) Drained() <-chan struct{} { return h.drained }

// Retain adds a reference to the handle. It is valid only while the
// caller already holds a reference (or inside the registry's lock,
// which guarantees the registry's own reference is still live).
func (h *Handle) Retain() {
	h.mu.Lock()
	h.refs++
	h.mu.Unlock()
}

// Release drops one reference; the last release of a retired handle
// closes Drained. Releasing more times than
// retained panics — that is a refcounting bug, not a runtime
// condition.
func (h *Handle) Release() {
	h.mu.Lock()
	h.refs--
	if h.refs < 0 {
		h.mu.Unlock()
		panic(fmt.Sprintf("core: model handle %s@%s released more times than retained", h.name, h.version))
	}
	drain := h.retired && h.refs == 0
	h.mu.Unlock()
	if drain {
		close(h.drained)
	}
}

// retire drops the registry's reference: once every caller reference
// is also released, the handle drains.
func (h *Handle) retire() {
	h.mu.Lock()
	already := h.retired
	h.retired = true
	h.mu.Unlock()
	if !already {
		h.Release()
	}
}

// NewRegistry returns an empty model registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Handle)}
}

// newHandle builds a published handle holding the registry's own
// reference.
func newHandle(name, version string, eng *Engine) *Handle {
	return &Handle{name: name, version: version, eng: eng, refs: 1, drained: make(chan struct{})}
}

// Load publishes an engine under a name that must not already be
// taken (ErrModelExists otherwise; use Swap to replace a live model).
// The returned handle is the published one — the caller does NOT own
// a reference to it; call Get for one.
func (r *Registry) Load(name, version string, eng *Engine) (*Handle, error) {
	if name == "" {
		return nil, fmt.Errorf("core: load model: empty name")
	}
	if eng == nil {
		return nil, fmt.Errorf("core: load model %q: nil engine", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("core: load model %q: %w", name, ErrRegistryClosed)
	}
	if _, ok := r.models[name]; ok {
		return nil, fmt.Errorf("core: load model %q: %w", name, ErrModelExists)
	}
	h := newHandle(name, version, eng)
	r.models[name] = h
	return h, nil
}

// Swap atomically replaces the model published under name: requests
// that Get the name from this point on see the new engine, while
// references already handed out keep the old engine alive until they
// are released (the old handle's Drained closes at that point — no
// dropped and no mixed-version requests). Swapping a name with no
// live model publishes the new one (an upsert), so rollout scripts
// need not special-case first deployment. Returns the retired handle
// (nil if the name was fresh).
func (r *Registry) Swap(name, version string, eng *Engine) (*Handle, error) {
	if name == "" {
		return nil, fmt.Errorf("core: swap model: empty name")
	}
	if eng == nil {
		return nil, fmt.Errorf("core: swap model %q: nil engine", name)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: swap model %q: %w", name, ErrRegistryClosed)
	}
	old := r.models[name]
	r.models[name] = newHandle(name, version, eng)
	r.swaps.Add(1)
	r.mu.Unlock()
	if old != nil {
		old.retire()
	}
	return old, nil
}

// Get returns a refcounted handle to the model currently published
// under name; the caller must Release it when done (after closing any
// Session built on its engine). Fails with ErrModelNotFound for
// unknown names.
func (r *Registry) Get(name string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("core: get model %q: %w", name, ErrRegistryClosed)
	}
	h, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("core: get model %q: %w", name, ErrModelNotFound)
	}
	// The registry's own reference is live while the handle sits in the
	// map, so retaining under r.mu cannot race the drain.
	h.Retain()
	return h, nil
}

// Unload removes the model published under name; its handle drains
// once outstanding references are released. Returns the retired
// handle.
func (r *Registry) Unload(name string) (*Handle, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: unload model %q: %w", name, ErrRegistryClosed)
	}
	h, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: unload model %q: %w", name, ErrModelNotFound)
	}
	delete(r.models, name)
	r.mu.Unlock()
	h.retire()
	return h, nil
}

// ModelInfo is one List entry.
type ModelInfo struct {
	Name    string
	Version string
	// Ready reports whether the model is published and serving (always
	// true for a listed model today; reserved for async loads).
	Ready bool
	// Refs is the number of outstanding caller references (Get minus
	// Release), excluding the registry's own.
	Refs int
}

// List returns a snapshot of the published models, sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	infos := make([]ModelInfo, 0, len(r.models))
	for _, h := range r.models {
		h.mu.Lock()
		refs := h.refs - 1 // exclude the registry's own reference
		h.mu.Unlock()
		infos = append(infos, ModelInfo{Name: h.name, Version: h.version, Ready: true, Refs: refs})
	}
	r.mu.Unlock()
	for i := 1; i < len(infos); i++ { // insertion sort; the list is small
		for j := i; j > 0 && infos[j].Name < infos[j-1].Name; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	return infos
}

// Swaps returns how many Swap operations have been performed.
func (r *Registry) Swaps() int64 { return r.swaps.Load() }

// Close retires every published model, refuses further operations
// (ErrRegistryClosed), and blocks until every handle has drained —
// i.e. until the last in-flight reference anywhere is released.
// Closing twice is a no-op.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	handles := make([]*Handle, 0, len(r.models))
	for _, h := range r.models {
		handles = append(handles, h)
	}
	r.models = map[string]*Handle{}
	r.mu.Unlock()
	for _, h := range handles {
		h.retire()
	}
	for _, h := range handles {
		<-h.Drained()
	}
	return nil
}
