package serve

import (
	"context"
	"time"

	"repro/internal/tensor"
)

// Result is the outcome of one single-image request.
type Result struct {
	// Output is the request's logit row, shape 1×classes. Nil when Err
	// is set.
	Output *tensor.Tensor
	// Stack is the routing name of the pool that executed the request —
	// for SLO-routed traffic, the variant the router actually chose.
	Stack string
	// Class is the argmax of Output — the predicted label.
	Class int
	// BatchSize is the occupancy of the batch that carried this
	// request, i.e. how many requests shared its forward pass.
	BatchSize int
	// Latency is the end-to-end time from enqueue to resolution
	// (queueing + batching delay + execution).
	Latency time.Duration
	// Compute is the wall time of the batched forward pass the request
	// rode in (shared across its BatchSize requests).
	Compute time.Duration
	// Err reports an execution failure (e.g. an engine panic); the
	// other fields are meaningless when it is non-nil.
	Err error
}

// future is the pending result of one queued image. It resolves
// exactly once and then stays resolved: wait is idempotent, so a
// repeat (or a wait retried after a ctx abort) observes the same
// Result.
type future struct {
	res  Result
	done chan struct{} // closed after res is written, publishing it
}

// newFuture allocates an unresolved future.
func newFuture() *future { return &future{done: make(chan struct{})} }

// resolve delivers the result; callers guarantee exactly one call. The
// write-then-close order publishes res to every waiter (channel close
// is a release/acquire pair with the receive in wait).
func (f *future) resolve(r Result) {
	f.res = r
	close(f.done)
}

// wait blocks until the result is available or ctx is done. A Result
// carrying an execution failure is returned alongside its Err.
func (f *future) wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, f.res.Err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}
