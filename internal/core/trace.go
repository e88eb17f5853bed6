package core

import (
	"context"
	"fmt"
)

// Request tracing (DESIGN.md §11): the HTTP front end mints (or
// honors) a request ID per request and threads it through the context.
// Everything below — Predict's errors, the Session's step errors —
// stamps the ID onto failures, so an error that surfaces in an HTTP
// envelope or a streamed rollout record names the request AND (via
// the mpi panic wrapping) the rank and the (from, tag) it failed on.

// requestIDKey is the context key for the request ID.
type requestIDKey struct{}

// ContextWithRequestID returns a context carrying the request ID.
// Empty IDs are not stored.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request ID carried by the context, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// wrapRequestErr stamps the context's request ID onto a non-nil error
// (preserving the chain for errors.Is/As). The id is prefixed, not
// suffixed, so `grep request=<id>` finds the full failure in logs.
func wrapRequestErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if id := RequestID(ctx); id != "" {
		return fmt.Errorf("request=%s: %w", id, err)
	}
	return err
}
