package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// TestClientInferBatchCoalesces proves the multi-image request path is
// one enqueue burst: with a batching window far beyond the test and
// MaxBatch equal to the image count, all images of one request must
// ride a single forward pass — and come back in request order with the
// logits a solo instance produces for each.
func TestClientInferBatchCoalesces(t *testing.T) {
	const n = 4
	stack := miniStack("mini-mobilenet")
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: stack}},
		Replicas: 1, MaxBatch: n, MaxDelay: time.Hour,
	})
	solo, err := core.Instantiate(stack)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLocalClient(s)
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = testImage(uint64(200 + i))
	}
	resp, err := c.InferSync(context.Background(), Request{Target: "m", Images: imgs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != n {
		t.Fatalf("%d results for %d images", len(resp.Results), n)
	}
	for i, res := range resp.Results {
		if res.BatchSize != n {
			t.Fatalf("image %d rode a batch of %d, want %d — the group did not coalesce", i, res.BatchSize, n)
		}
		want := solo.Run(imgs[i].Reshape(1, 3, 32, 32)).Output
		if d := tensor.MaxAbsDiff(res.Output.Reshape(want.Shape()...), want); d != 0 {
			t.Fatalf("image %d: batched logits differ from solo reference by %v", i, d)
		}
	}
}

// TestClientUnifiedRouting drives the one Request surface across every
// target kind: a pool with zero SLO (old Submit), an endpoint with
// zero SLO (cheapest variant), an endpoint with MinAccuracy (old
// Route), and an unknown target (typed sentinel).
func TestClientUnifiedRouting(t *testing.T) {
	s := newTestServer(t, Config{
		Endpoints: []EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	c := NewLocalClient(s)
	ctx := context.Background()

	// Pool target, zero SLO: direct enqueue on the named variant pool.
	resp, err := c.InferSync(ctx, Request{Target: "vgg/plain", Images: []*tensor.Tensor{testImage(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.First().Stack != "vgg/plain" {
		t.Fatalf("pool target served by %q", resp.First().Stack)
	}

	// Endpoint target, zero SLO: cheapest variant.
	order := cheapestOf(t, s, "vgg")
	resp, err = c.InferSync(ctx, Request{Target: "vgg", Images: []*tensor.Tensor{testImage(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.First().Stack != order[0] {
		t.Fatalf("zero-SLO endpoint request served by %q, want cheapest %q", resp.First().Stack, order[0])
	}

	// Endpoint target with MinAccuracy: only the plain variant reaches
	// 93% in the hand-labelled endpoint.
	resp, err = c.InferSync(ctx, Request{Target: "vgg", Images: []*tensor.Tensor{testImage(3)}, SLO: SLO{MinAccuracy: 93}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.First().Stack != "vgg/plain" {
		t.Fatalf("MinAccuracy 93%% served by %q, want vgg/plain", resp.First().Stack)
	}
	if _, err = c.InferSync(ctx, Request{Target: "vgg", Images: []*tensor.Tensor{testImage(4)}, SLO: SLO{MinAccuracy: 99}}); !errors.Is(err, ErrNoVariant) {
		t.Fatalf("unsatisfiable SLO err = %v, want ErrNoVariant", err)
	}

	// MinAccuracy needs the router's curve data: a bare pool target
	// must refuse it rather than guess.
	if _, err = c.InferSync(ctx, Request{Target: "vgg/plain", Images: []*tensor.Tensor{testImage(5)}, SLO: SLO{MinAccuracy: 90}}); err == nil {
		t.Fatal("MinAccuracy on a pool target accepted")
	}

	// Unknown target: the typed sentinel every transport maps.
	if _, err = c.InferSync(ctx, Request{Target: "nope", Images: []*tensor.Tensor{testImage(6)}}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("unknown target err = %v, want ErrUnknownTarget", err)
	}
	// An empty request is a validation error, not a crash.
	if _, err = c.InferSync(ctx, Request{Target: "vgg"}); err == nil {
		t.Fatal("empty request accepted")
	}
}

// TestClientModelsAndStats checks the discovery surface LocalClient
// shares with the HTTP transport: endpoints listed first with their
// variants, pools with technique and input shape, and the stats
// snapshot carrying both pool and endpoint views.
func TestClientModelsAndStats(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:    []StackSpec{{Name: "solo", Stack: miniStack("mini-mobilenet")}},
		Endpoints: []EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	c := NewLocalClient(s)
	ctx := context.Background()
	ms, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 { // 1 endpoint + solo + 3 variant pools
		t.Fatalf("Models listed %d targets, want 5: %+v", len(ms), ms)
	}
	if ms[0].Name != "vgg" || ms[0].Kind != "endpoint" || len(ms[0].Variants) != 3 {
		t.Fatalf("endpoint entry = %+v", ms[0])
	}
	for _, m := range ms {
		if len(m.InputShape) != 3 || m.InputShape[0] != 3 {
			t.Fatalf("%s: input shape %v", m.Name, m.InputShape)
		}
	}

	if _, err := c.InferSync(ctx, Request{Target: "vgg", Images: []*tensor.Tensor{testImage(1)}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pools) != 4 {
		t.Fatalf("stats cover %d pools, want 4", len(st.Pools))
	}
	ep, ok := st.Endpoints["vgg"]
	if !ok || ep.Routed != 1 || len(ep.Variants) != 3 {
		t.Fatalf("endpoint stats = %+v", st.Endpoints)
	}
}

// TestFutureRewait pins the re-wait semantics: a resolved request must
// answer again — a second Wait on the same ResponseFuture, and a Wait
// retried after a ctx abort, both observe the cached Response instead
// of blocking forever.
func TestFutureRewait(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 1, MaxDelay: time.Millisecond,
	})
	ctx := context.Background()
	rf, err := s.Do(ctx, Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := rf.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The second Wait must not find a consumed signal and block until
	// its ctx fires.
	again, err := rf.Wait(ctx)
	if err != nil {
		t.Fatalf("re-wait on a resolved ResponseFuture: %v", err)
	}
	if again.First().Class != first.First().Class || again.First().Output != first.First().Output {
		t.Fatalf("re-wait returned a different result: %+v vs %+v", again.First(), first.First())
	}

	// A waiter that aborted on ctx can come back for the answer.
	rf2, err := s.Do(ctx, Request{Target: "m", Images: []*tensor.Tensor{testImage(2)}})
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := rf2.Wait(gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait under cancelled ctx: %v", err)
	}
	if _, err := rf2.Wait(ctx); err != nil {
		t.Fatalf("re-wait after ctx abort: %v", err)
	}
}

// TestSubmitCancelReclaimsQueueSlot pins the pending-depth bookkeeping
// of the direct submit path: a submission that aborts on ctx while
// blocked on a full queue must roll its pending increment back and
// leave the queue slot to others. The pool is assembled raw — no
// batcher or workers — so the full-queue block is deterministic.
func TestSubmitCancelReclaimsQueueSlot(t *testing.T) {
	p := &pool{
		name:   "raw",
		cfg:    Config{MaxBatch: 4, QueueCap: 1},
		intake: newIntake(1, func(string) int { return 1 }),
		chw:    tensor.Shape{3, 32, 32},
		imgLen: 3 * 32 * 32,
	}
	ctx := context.Background()
	if _, err := p.submitMany(ctx, "", []*tensor.Tensor{testImage(1)}); err != nil {
		t.Fatal(err)
	}
	if got := p.pending.Load(); got != 1 {
		t.Fatalf("pending after first submit = %d, want 1", got)
	}

	// The intake is full and nothing consumes it, so this submission can
	// only leave through its (already cancelled) context.
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.submitMany(gone, "", []*tensor.Tensor{testImage(2)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit into a full queue under cancelled ctx: err = %v", err)
	}
	if got := p.pending.Load(); got != 1 {
		t.Fatalf("pending after aborted submit = %d, want 1 — the counter leaked", got)
	}
	p.intake.mu.Lock()
	depth := p.intake.size
	p.intake.mu.Unlock()
	if depth != 1 {
		t.Fatalf("intake holds %d requests, want only the first", depth)
	}

	// The reclaimed capacity is really usable: admission-controlled
	// submission at the cap boundary still sees exactly one slot taken.
	if _, err := p.trySubmitMany("", []*tensor.Tensor{testImage(3)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("trySubmitMany at cap: err = %v, want ErrOverloaded (cap 1 already held)", err)
	}
	if got := p.pending.Load(); got != 1 {
		t.Fatalf("pending after shed trySubmitMany = %d, want 1", got)
	}
}

// TestDefaultConfigFullyResolved pins the DefaultConfig/withDefaults
// symmetry satellite: the advertised defaults are the resolved tuning
// set a zero-configured server actually runs with — no field is left
// at a zero the server would silently replace.
func TestDefaultConfigFullyResolved(t *testing.T) {
	d := DefaultConfig()
	if d.QueueCap != d.Replicas*d.MaxBatch*4 {
		t.Fatalf("DefaultConfig QueueCap = %d, want the derived %d", d.QueueCap, d.Replicas*d.MaxBatch*4)
	}
	if d.LatencyWindow != metrics.DefaultLatencyWindow {
		t.Fatalf("DefaultConfig LatencyWindow = %d, want %d", d.LatencyWindow, metrics.DefaultLatencyWindow)
	}
	got := d.withDefaults()
	if got.Replicas != d.Replicas || got.MaxBatch != d.MaxBatch || got.MaxDelay != d.MaxDelay ||
		got.QueueCap != d.QueueCap || got.LatencyWindow != d.LatencyWindow {
		t.Fatalf("DefaultConfig is not a fixed point of withDefaults: %+v vs %+v", got, d)
	}
	// A partial config derives from its own values, not the defaults.
	partial := Config{Replicas: 3, MaxBatch: 16}.withDefaults()
	if partial.QueueCap != 3*16*4 {
		t.Fatalf("partial config QueueCap = %d, want %d", partial.QueueCap, 3*16*4)
	}
}

// TestLocalSessionHonoursClientTimeout pins the uniform deadline rule:
// a pipelined session sends each request through InferSync under the
// session's ctx, so a deadline on the ctx passed to Session bounds
// every session request exactly as it bounds a direct call. The
// batching window holds the lone request far past the deadline, so
// Recv must report context.DeadlineExceeded — either as the request's
// outcome or as the session's own error, whichever the race delivers.
func TestLocalSessionHonoursClientTimeout(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 4, MaxDelay: time.Second,
	})
	c := NewLocalClient(s)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	sess, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	start := time.Now()
	id, err := sess.Send(Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sess.Recv()
	if err == nil {
		if sr.ID != id {
			t.Fatalf("session result id %d, want %d", sr.ID, id)
		}
		err = sr.Err
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv = %+v, %v; want context.DeadlineExceeded", sr, err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("timed-out request took %v; the 50ms session deadline did not bound it", took)
	}
}
