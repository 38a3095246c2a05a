package nn

import "sync"

// view is a derived representation of a layer's weights (CSR, int8
// codes, binary16) built on first use and dropped whenever the weights
// change. The mutex makes the build race-free when concurrent eager
// forwards share one network: exactly one caller builds, the others
// wait and reuse its result. Compiled plans fetch their views once at
// compile time, so the lock never sits on a plan's hot path.
type view[T any] struct {
	mu sync.Mutex
	v  *T
}

// get returns the cached view, building it with build if there is none.
func (w *view[T]) get(build func() *T) *T {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.v == nil {
		w.v = build()
	}
	return w.v
}

// drop discards the cached view; the next get rebuilds it.
func (w *view[T]) drop() {
	w.mu.Lock()
	w.v = nil
	w.mu.Unlock()
}
