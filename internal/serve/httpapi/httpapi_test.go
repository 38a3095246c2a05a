package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// miniStack is a fast host-executable configuration for tests.
func miniStack(model string) core.Config {
	return core.Config{
		Model: model, Technique: core.Plain,
		Backend: core.OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	}
}

// testImage builds a distinct CHW input for the mini models.
func testImage(seed uint64) *tensor.Tensor {
	img := tensor.New(3, 32, 32)
	img.FillNormal(tensor.NewRNG(2*seed+1), 0, 1)
	return img
}

// variantEndpoint mirrors the router tests' hand-labelled three-variant
// endpoint over mini-vgg, so accuracy routing is deterministic.
func variantEndpoint() serve.EndpointSpec {
	base := miniStack("mini-vgg")
	return serve.EndpointSpec{Name: "vgg", Variants: []serve.Variant{
		{Spec: serve.StackSpec{Name: "vgg/plain", Stack: base}, Accuracy: 94.3},
		{Spec: serve.StackSpec{
			Name:  "vgg/weight-pruning",
			Stack: base.WithTechnique(core.WeightPruned, core.OperatingPoint{Sparsity: 0.95}),
		}, Accuracy: 90.0},
	}}
}

// loopback starts a server with cfg behind an httptest listener and
// returns the remote client talking to it.
func loopback(t *testing.T, cfg serve.Config) (*serve.Server, *Client) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(srv, 0))
	t.Cleanup(func() {
		// Drain the server first: ts.Close blocks until every in-flight
		// handler returns, and handlers can be pinned in rf.Wait until
		// the drain resolves their requests.
		srv.Close()
		ts.Close()
	})
	return srv, NewClient(ts.URL)
}

// TestHTTPRoundTripParity proves the wire adds nothing and loses
// nothing: logits served over HTTP must match a solo in-process run
// bit for bit, with the result metadata intact.
func TestHTTPRoundTripParity(t *testing.T) {
	stack := miniStack("mini-mobilenet")
	_, c := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: stack}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	solo, err := core.Instantiate(stack)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	img := testImage(7)
	resp, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{img}})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.First()
	want := solo.Run(img.Reshape(1, 3, 32, 32)).Output
	if d := tensor.MaxAbsDiff(res.Output.Reshape(want.Shape()...), want); d != 0 {
		t.Fatalf("HTTP-served logits differ from solo reference by %v", d)
	}
	if res.Stack != "m" || res.Class != want.ArgMax() || res.BatchSize < 1 || res.Latency <= 0 {
		t.Fatalf("result metadata lost in transit: %+v", res)
	}
}

// TestHTTPMultiImageCoalesces sends one multi-image request over the
// wire and checks the group still coalesces into a single forward pass
// server-side, in request order.
func TestHTTPMultiImageCoalesces(t *testing.T) {
	const n = 4
	stack := miniStack("mini-mobilenet")
	_, c := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: stack}},
		Replicas: 1, MaxBatch: n, MaxDelay: time.Hour,
	})
	solo, err := core.Instantiate(stack)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = testImage(uint64(300 + i))
	}
	resp, err := c.InferSync(context.Background(), serve.Request{Target: "m", Images: imgs})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.BatchSize != n {
			t.Fatalf("image %d rode a batch of %d over HTTP, want %d", i, res.BatchSize, n)
		}
		want := solo.Run(imgs[i].Reshape(1, 3, 32, 32)).Output
		if d := tensor.MaxAbsDiff(res.Output.Reshape(want.Shape()...), want); d != 0 {
			t.Fatalf("image %d: remote logits differ from solo reference by %v", i, d)
		}
	}
}

// TestHTTPTypedErrors is the acceptance test for the error mapping:
// every in-process sentinel must survive the wire round trip under
// errors.Is, and the overload rejection must carry a usable RetryAfter.
func TestHTTPTypedErrors(t *testing.T) {
	srv, c := loopback(t, serve.Config{
		Endpoints: []serve.EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 4, MaxDelay: time.Hour, QueueCap: 1,
	})
	ctx := context.Background()

	// 404 → ErrUnknownTarget.
	_, err := c.InferSync(ctx, serve.Request{Target: "nope", Images: []*tensor.Tensor{testImage(1)}})
	if !errors.Is(err, serve.ErrUnknownTarget) {
		t.Fatalf("unknown target over HTTP: err = %v, want ErrUnknownTarget", err)
	}

	// 422 → ErrNoVariant (accuracy above every hand-labelled variant).
	_, err = c.InferSync(ctx, serve.Request{Target: "vgg", Images: []*tensor.Tensor{testImage(2)}, SLO: serve.SLO{MinAccuracy: 99}})
	if !errors.Is(err, serve.ErrNoVariant) {
		t.Fatalf("unsatisfiable SLO over HTTP: err = %v, want ErrNoVariant", err)
	}
	if errors.Is(err, serve.ErrOverloaded) {
		t.Fatal("ErrNoVariant reconstruction also matches ErrOverloaded")
	}

	// 429 → *OverloadedError. QueueCap is 1 and the hour-long batching
	// window pins the first request in the open batch, so a second
	// routed request must shed. The first rides an InferSync goroutine;
	// polling the wire-side stats for its arrival keeps this
	// deterministic.
	type outcome struct {
		resp *serve.Response
		err  error
	}
	pinned := make(chan outcome, 1)
	go func() {
		resp, err := c.InferSync(ctx, serve.Request{Target: "vgg", Images: []*tensor.Tensor{testImage(3)}})
		pinned <- outcome{resp, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for queued := false; !queued; {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The router picks the modelled-cheapest variant, so just look
		// for the request on any pool.
		for _, ps := range st.Pools {
			queued = queued || ps.QueueDepth >= 1
		}
		if !queued && time.Now().After(deadline) {
			t.Fatal("first request never showed up in the remote queue depth")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.InferSync(ctx, serve.Request{Target: "vgg", Images: []*tensor.Tensor{testImage(4)}})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("saturated endpoint over HTTP: err = %v, want ErrOverloaded", err)
	}
	var ov *serve.OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("overload did not reconstruct as *OverloadedError: %T %v", err, err)
	}
	if ov.RetryAfter < time.Millisecond {
		t.Fatalf("reconstructed RetryAfter = %v, want ≥ 1ms", ov.RetryAfter)
	}

	// Close drains the pinned request (its InferSync returns) and every
	// later call maps 503 → ErrClosed.
	srv.Close()
	if o := <-pinned; o.err != nil || o.resp.First().Output == nil {
		t.Fatalf("pinned request not drained over HTTP: %v", o.err)
	}
	_, err = c.InferSync(ctx, serve.Request{Target: "vgg", Images: []*tensor.Tensor{testImage(5)}})
	if !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("closed server over HTTP: err = %v, want ErrClosed", err)
	}
}

// TestHTTPModelsAndStats checks discovery and accounting round-trip as
// JSON: targets keep kind/shape/variants, and per-variant routed
// counters line up with the traffic actually sent.
func TestHTTPModelsAndStats(t *testing.T) {
	_, c := loopback(t, serve.Config{
		Endpoints: []serve.EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	ctx := context.Background()
	ms, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].Kind != "endpoint" || ms[0].Name != "vgg" {
		t.Fatalf("remote Models = %+v", ms)
	}
	if len(ms[0].InputShape) != 3 || ms[0].InputShape[0] != 3 {
		t.Fatalf("endpoint input shape lost in transit: %v", ms[0].InputShape)
	}
	if len(ms[0].Variants) != 2 {
		t.Fatalf("endpoint variants lost in transit: %v", ms[0].Variants)
	}

	const reqs = 3
	for i := 0; i < reqs; i++ {
		if _, err := c.InferSync(ctx, serve.Request{Target: "vgg", Images: []*tensor.Tensor{testImage(uint64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := st.Endpoints["vgg"]
	if !ok || ep.Routed != reqs {
		t.Fatalf("remote endpoint stats = %+v, want %d routed", st.Endpoints, reqs)
	}
	var served uint64
	for _, v := range ep.Variants {
		served += v.Pool.Completed
	}
	if served != reqs {
		t.Fatalf("per-variant completions sum to %d, want %d", served, reqs)
	}
	if st.Pools["vgg/plain"].Latency.P50 <= 0 && st.Pools["vgg/weight-pruning"].Latency.P50 <= 0 {
		t.Fatal("latency percentiles lost in the JSON round trip")
	}
}

// TestCodecRejectsHostileShapes guards the decode path: a header
// declaring a huge or invalid shape must fail before any allocation
// sized by it.
func TestCodecRejectsHostileShapes(t *testing.T) {
	img := testImage(1)
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, serve.Request{Target: "m", Images: []*tensor.Tensor{img}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := DecodeRequest(bytes.NewReader(good), 1<<20); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	// The same frame under a tiny element cap must be refused.
	if _, err := DecodeRequest(bytes.NewReader(good), 16); err == nil {
		t.Fatal("oversized payload accepted under a 16-element cap")
	}
	// Truncated payload: header promises more floats than the body has.
	if _, err := DecodeRequest(bytes.NewReader(good[:len(good)-8]), 1<<20); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Corrupted magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := DecodeRequest(bytes.NewReader(bad), 1<<20); err == nil {
		t.Fatal("bad magic accepted")
	}
}
