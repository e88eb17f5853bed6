package core

import "errors"

// Named serving errors. The Engine/Session/Batcher entrypoints wrap
// these with call-site context (fmt.Errorf + %w), so callers branch
// with errors.Is instead of matching message strings — the HTTP front
// end in internal/serve maps them to status codes this way.
var (
	// ErrBadWindow reports a Predict/NewSession call with fewer history
	// states than the ensemble's temporal window requires.
	ErrBadWindow = errors.New("not enough history states for the ensemble's temporal window")

	// ErrShapeMismatch reports a state tensor whose shape (grid extent
	// or channel count) does not match the ensemble.
	ErrShapeMismatch = errors.New("state shape does not match the ensemble")

	// ErrSessionClosed reports a Step/Run call on a session after
	// Close.
	ErrSessionClosed = errors.New("session is closed")

	// ErrSessionBroken reports a Step/Run call on a session after one
	// of its steps failed part-way (a rank panicked, a link dropped):
	// the per-rank histories no longer agree, so the session computes
	// nothing further. Close it and open a fresh one.
	ErrSessionBroken = errors.New("session is broken by an earlier failed step")

	// ErrWorldBusy reports a NewSession call on a WithWorld engine
	// whose bound world already serves a live session.
	ErrWorldBusy = errors.New("the engine's bound world already serves a live session")

	// ErrBatcherClosed reports a Predict call on a Batcher after Close.
	ErrBatcherClosed = errors.New("batcher is closed")

	// ErrModelNotFound reports a Registry Get/Swap/Unload on a name no
	// model is loaded under.
	ErrModelNotFound = errors.New("no model loaded under this name")

	// ErrModelExists reports a Registry Load on a name that already
	// serves a model (use Swap to replace it).
	ErrModelExists = errors.New("a model is already loaded under this name (use Swap)")

	// ErrRegistryClosed reports any Registry operation after Close.
	ErrRegistryClosed = errors.New("registry is closed")
)
