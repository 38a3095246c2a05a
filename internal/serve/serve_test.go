package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// miniStack is a fast host-executable configuration for tests.
func miniStack(model string) core.Config {
	return core.Config{
		Model: model, Technique: core.Plain,
		Backend: core.OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	}
}

// testImage builds a distinct CHW input for the mini models. The seed
// is mapped injectively to an odd RNG seed (2s+1) — a plain s|1 would
// collapse even/odd pairs to identical images, and the concurrency test
// below relies on every client having a genuinely distinct input.
func testImage(seed uint64) *tensor.Tensor {
	img := tensor.New(3, 32, 32)
	img.FillNormal(tensor.NewRNG(2*seed+1), 0, 1)
	return img
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// doSubmit places one single-image request through the unified request
// path — the submission every Client method funnels into — and returns
// its future.
func doSubmit(ctx context.Context, s *Server, target string, img *tensor.Tensor, slo SLO) (*future, error) {
	futs, err := s.submitRequest(ctx, Request{Target: target, Images: []*tensor.Tensor{img}, SLO: slo})
	if err != nil {
		return nil, err
	}
	return futs[0], nil
}

// doInfer is doSubmit followed by wait: one blocking single-image
// request.
func doInfer(ctx context.Context, s *Server, target string, img *tensor.Tensor, slo SLO) (Result, error) {
	f, err := doSubmit(ctx, s, target, img, slo)
	if err != nil {
		return Result{}, err
	}
	return f.wait(ctx)
}

// TestFlushOnSize checks the size trigger: with an effectively infinite
// MaxDelay, exactly MaxBatch requests must ride one forward pass.
func TestFlushOnSize(t *testing.T) {
	const maxBatch = 4
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: maxBatch, MaxDelay: time.Hour,
	})
	ctx := context.Background()
	var futs []*future
	for i := 0; i < maxBatch; i++ {
		f, err := doSubmit(ctx, s, "mini-mobilenet/plain", testImage(uint64(i)), SLO{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		res, err := f.wait(ctx)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.BatchSize != maxBatch {
			t.Fatalf("request %d rode a batch of %d, want %d (size flush)", i, res.BatchSize, maxBatch)
		}
	}
	st := s.Snapshot().Pools["mini-mobilenet/plain"]
	if st.Batches != 1 || st.Completed != maxBatch {
		t.Fatalf("stats = %+v, want 1 batch of %d", st, maxBatch)
	}
	if st.MeanBatchOccupancy != maxBatch {
		t.Fatalf("occupancy = %.2f, want %d", st.MeanBatchOccupancy, maxBatch)
	}
}

// TestFlushOnDeadline checks the delay trigger: with MaxBatch far above
// the offered load, a request must still be answered after ≈MaxDelay.
func TestFlushOnDeadline(t *testing.T) {
	const delay = 30 * time.Millisecond
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 64, MaxDelay: delay,
	})
	ctx := context.Background()
	start := time.Now()
	res, err := doInfer(ctx, s, "mini-mobilenet/plain", testImage(1), SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize >= 64 {
		t.Fatalf("lone request reported full batch %d", res.BatchSize)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("answered in %v, before the %v batching window elapsed", elapsed, delay)
	}
	if res.Latency < delay {
		t.Fatalf("latency %v below the batching window %v", res.Latency, delay)
	}
}

// TestConcurrentSubmittersGetOwnResults drives many concurrent clients
// with distinct inputs and checks every client gets the logits a solo
// (unbatched, single-instance) run produces for *its* image — i.e.
// batch assembly and row splitting never cross wires.
func TestConcurrentSubmittersGetOwnResults(t *testing.T) {
	const clients = 12
	stack := miniStack("mini-vgg")

	solo, err := core.Instantiate(stack)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tensor.Tensor, clients)
	for i := range want {
		img := testImage(uint64(100 + i))
		want[i] = solo.Run(img.Reshape(1, 3, 32, 32)).Output.Clone()
	}

	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "vgg", Stack: stack}},
		Replicas: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	})
	ctx := context.Background()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := doInfer(ctx, s, "vgg", testImage(uint64(100+i)), SLO{})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if d := tensor.MaxAbsDiff(res.Output, want[i]); d > 1e-5 {
				errs <- fmt.Errorf("client %d: batched logits diverge from solo run by %g", i, d)
				return
			}
			if res.Class != want[i].ArgMax() {
				errs <- fmt.Errorf("client %d: class %d, want %d", i, res.Class, want[i].ArgMax())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulShutdownDrains leaves a partial batch waiting on an
// effectively infinite MaxDelay and calls Close: every accepted request
// must still be answered (the drain flushes the partial batch), and
// submissions after Close must be refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 4, MaxDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 6 // one full batch of 4 + a partial batch of 2 stuck on the timer
	var futs []*future
	for i := 0; i < n; i++ {
		f, err := doSubmit(ctx, s, "m", testImage(uint64(i)), SLO{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	s.Close()
	for i, f := range futs {
		waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		res, err := f.wait(waitCtx)
		cancel()
		if err != nil {
			t.Fatalf("request %d not drained: %v", i, err)
		}
		if res.Output == nil {
			t.Fatalf("request %d drained without output", i)
		}
	}
	if _, err := doSubmit(ctx, s, "m", testImage(9), SLO{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	if _, err := doInfer(ctx, s, "m", testImage(9), SLO{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("infer after close: err = %v, want ErrClosed", err)
	}
	st := s.Snapshot().Pools["m"]
	if st.Completed != n || st.QueueDepth != 0 {
		t.Fatalf("after drain: %+v, want %d completed and empty queue", st, n)
	}
	s.Close() // idempotent
}

// TestMultiStackRouting hosts two stacks side by side and checks
// requests route to the right network (different class counts would
// surface as different logit widths).
func TestMultiStackRouting(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks: []StackSpec{
			{Stack: miniStack("mini-vgg")},
			{Stack: miniStack("mini-mobilenet")},
		},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	ms := s.Models()
	if len(ms) != 2 || ms[0].Name != "mini-vgg/plain" || ms[1].Name != "mini-mobilenet/plain" {
		t.Fatalf("models = %+v", ms)
	}
	ctx := context.Background()
	for _, m := range ms {
		name := m.Name
		res, err := doInfer(ctx, s, name, testImage(7), SLO{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Output.NumElements() != 10 {
			t.Fatalf("%s: %d logits, want 10", name, res.Output.NumElements())
		}
	}
	if _, err := doInfer(ctx, s, "nope", testImage(7), SLO{}); err == nil {
		t.Fatal("unknown stack accepted")
	}
}

// TestSubmitValidation rejects malformed inputs and configs.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Stacks: []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}}})
	ctx := context.Background()
	if _, err := doSubmit(ctx, s, "m", tensor.New(3, 16, 16), SLO{}); err == nil {
		t.Error("wrong image shape accepted")
	}
	if _, err := doSubmit(ctx, s, "m", nil, SLO{}); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty stack list accepted")
	}
	dup := Config{Stacks: []StackSpec{
		{Name: "x", Stack: miniStack("mini-vgg")},
		{Name: "x", Stack: miniStack("mini-mobilenet")},
	}}
	if _, err := New(dup); err == nil {
		t.Error("duplicate stack names accepted")
	}
	bad := miniStack("mini-vgg")
	bad.Threads = 0
	if _, err := New(Config{Stacks: []StackSpec{{Stack: bad}}}); err == nil {
		t.Error("invalid stack config accepted")
	}
}

// TestStatsUnderLoad drives a short closed loop and sanity-checks the
// aggregate statistics: everything completes, occupancy exceeds 1 under
// concurrency, throughput and latency are populated.
func TestStatsUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 2, MaxBatch: 4, MaxDelay: 2 * time.Millisecond,
	})
	ctx := context.Background()
	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			img := testImage(uint64(c))
			for i := 0; i < perClient; i++ {
				if _, err := doInfer(ctx, s, "m", img, SLO{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Snapshot().Pools["m"]
	if st.Completed != clients*perClient || st.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d, want %d/0", st.Completed, st.Failed, clients*perClient)
	}
	if st.MeanBatchOccupancy <= 1 {
		t.Fatalf("occupancy = %.2f, want > 1 under %d concurrent clients", st.MeanBatchOccupancy, clients)
	}
	if st.Throughput <= 0 {
		t.Fatalf("throughput = %.2f, want > 0", st.Throughput)
	}
	if st.Latency.Count != clients*perClient || st.Latency.P99 < st.Latency.P50 || st.Latency.P50 <= 0 {
		t.Fatalf("latency summary implausible: %v", st.Latency)
	}
	if st.ReplicaMemoryMB <= 0 {
		t.Fatalf("replica memory = %.2f, want > 0", st.ReplicaMemoryMB)
	}
	if all := s.Snapshot().Pools; len(all) != 1 {
		t.Fatalf("Snapshot().Pools = %v, want the one pool", all)
	}
}

// TestWaitContextCancel honours the caller's context on the result
// side: a lone request pinned by an hour-long batching window must not
// trap its waiter. The request itself is still answered by the drain at
// Close, so the pool shuts down cleanly afterwards.
func TestWaitContextCancel(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 64, MaxDelay: time.Hour,
	})
	f, err := doSubmit(context.Background(), s, "m", testImage(1), SLO{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := f.wait(ctx); err != context.DeadlineExceeded {
		t.Fatalf("wait on pinned request: err = %v, want DeadlineExceeded", err)
	}
}

// TestVaryingBatchSizesThroughPlans drives request counts that force
// full and partial batches (and therefore several per-size compiled
// plans on the same replica), checking every result against a solo
// reference instance.
func TestVaryingBatchSizesThroughPlans(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 4, MaxDelay: time.Millisecond,
	})
	ref, err := core.Instantiate(miniStack("mini-mobilenet"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// 1, then 3, then 7 requests: batch sizes 1..4 all occur.
	for round, count := range []int{1, 3, 7} {
		futs := make([]*future, count)
		imgs := make([]*tensor.Tensor, count)
		for i := range futs {
			imgs[i] = testImage(uint64(round*100 + i))
			f, err := doSubmit(ctx, s, "m", imgs[i], SLO{})
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		for i, f := range futs {
			res, err := f.wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Run(imgs[i].Reshape(1, 3, 32, 32)).Output
			if d := tensor.MaxAbsDiff(res.Output.Reshape(want.Shape()...), want); d != 0 {
				t.Fatalf("round %d request %d: served logits differ from solo reference by %v", round, i, d)
			}
		}
	}
}

// TestServeAutoAlgo runs the server over a per-layer auto-selected
// stack: compilation happens on the worker, requests still resolve
// with correct logits.
func TestServeAutoAlgo(t *testing.T) {
	stack := miniStack("mini-vgg")
	stack.AutoAlgo = true
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "auto", Stack: stack}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	ref, err := core.Instantiate(miniStack("mini-vgg"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	img := testImage(7)
	res, err := doInfer(ctx, s, "auto", img, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run(img.Reshape(1, 3, 32, 32)).Output
	if d := tensor.MaxAbsDiff(res.Output.Reshape(want.Shape()...), want); d > 1e-3 {
		t.Fatalf("auto-served logits differ from direct reference by %v", d)
	}
}
