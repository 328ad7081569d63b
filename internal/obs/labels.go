package obs

import (
	"context"
	"runtime/pprof"
)

// requestIDKey carries the request/job ID through the solve pipeline.
type requestIDKey struct{}

// WithRequestID attaches a request (job) ID to ctx for structured logging
// downstream of the scheduler.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request ID attached by WithRequestID, or "".
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Do runs f under a pprof label pair so CPU/goroutine profiles segment by
// it (e.g. key "phase", value "search"). A nil ctx, or one that can never
// be cancelled (Done() == nil, e.g. context.Background — the batch and
// benchmark paths), runs f directly with no label machinery and no
// allocation, preserving the zero-cost-when-disabled contract. Request
// contexts are always cancellable, so served solves keep their labels.
func Do(ctx context.Context, key, value string, f func(context.Context)) {
	if ctx == nil || ctx.Done() == nil {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(key, value), f)
}
