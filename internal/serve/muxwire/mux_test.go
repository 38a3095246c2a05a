package muxwire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/httpapi"
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

// loopback boots a serve.Server with cfg behind a DLW2 listener on a
// loopback port and returns the server, the mux client, and the
// listener (for kill/restart tests).
func loopback(t *testing.T, cfg serve.Config, lcfg ListenerConfig) (*serve.Server, *Client, *Listener) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(srv, lcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = l.Serve(ln) }()
	c := NewClient(ln.Addr().String())
	t.Cleanup(func() {
		c.Close()
		l.Close()
		srv.Close()
	})
	return srv, c, l
}

// TestMuxRoundTripParity proves DLW2 adds nothing and loses nothing:
// logits served over the mux wire must match a solo in-process run bit
// for bit, with result metadata intact — and Stats/Models must work
// over the session's control frames.
func TestMuxRoundTripParity(t *testing.T) {
	stack := miniStack("mini-mobilenet")
	_, c, _ := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: stack}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	}, ListenerConfig{})
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
		t.Fatalf("mux-served logits differ from solo reference by %v", d)
	}
	if res.Stack != "m" || res.Class != want.ArgMax() || res.BatchSize < 1 || res.Latency <= 0 {
		t.Fatalf("result metadata lost in transit: %+v", res)
	}
	ms, err := c.Models(ctx)
	if err != nil || len(ms) != 1 || ms[0].Name != "m" {
		t.Fatalf("Models over mux: %+v, %v", ms, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Pools["m"].Completed < 1 {
		t.Fatalf("Stats over mux: %+v, %v", st.Pools["m"], err)
	}
}

// TestTypedErrorsSurviveMuxWire is the acceptance test for the error
// contract: the typed sentinels must survive the DLW2 wire under
// errors.Is exactly as they survive HTTP, with the overload and quota
// details intact.
func TestTypedErrorsSurviveMuxWire(t *testing.T) {
	_, c, _ := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
		Tenants: &serve.TenantConfig{
			Tenants: map[string]serve.TenantSpec{"capped": {RequestsPerSec: 2.0 / 3600}},
		},
	}, ListenerConfig{})
	ctx := context.Background()

	// unknown target → ErrUnknownTarget.
	_, err := c.InferSync(ctx, serve.Request{Target: "nope", Images: []*tensor.Tensor{testImage(1)}})
	if !errors.Is(err, serve.ErrUnknownTarget) {
		t.Fatalf("unknown target: err = %v, want ErrUnknownTarget", err)
	}

	// Burn the capped tenant's budget; the rejection must come back as
	// a *QuotaError matching ErrQuotaExceeded, never plain overload.
	var qerr error
	for i := 0; i < 4; i++ {
		_, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(2)}, Tenant: "capped"})
		if errors.Is(err, serve.ErrQuotaExceeded) {
			qerr = err
			break
		}
		if err != nil {
			t.Fatalf("pre-quota request %d failed: %v", i, err)
		}
	}
	var qe *serve.QuotaError
	if !errors.As(qerr, &qe) {
		t.Fatalf("quota rejection is %T (%v), want *QuotaError", qerr, qerr)
	}
	if qe.Tenant != "capped" || qe.RetryAfter < time.Millisecond {
		t.Fatalf("QuotaError lost detail in transit: %+v", qe)
	}
	if errors.Is(qerr, serve.ErrOverloaded) {
		t.Fatal("quota rejection must not match ErrOverloaded")
	}

	// no_variant: a warm pool with an impossible MaxLatency.
	if _, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(3)}}); err != nil {
		t.Fatal(err)
	}
	_, err = c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(4)}, SLO: serve.SLO{MaxLatency: time.Nanosecond}})
	if !errors.Is(err, serve.ErrNoVariant) {
		t.Fatalf("impossible SLO: err = %v, want ErrNoVariant", err)
	}
}

// TestSessionOutOfOrderDelivery drives the client session against a
// hand-rolled DLW2 peer that completes request 2 before request 1,
// proving interleaved out-of-order delivery end to end (a real server
// completes in execution order, which a test cannot pin).
func TestSessionOutOfOrderDelivery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readHello(conn); err != nil {
			t.Error(err)
			return
		}
		if err := writeHello(conn, 4); err != nil {
			t.Error(err)
			return
		}
		var ids []uint64
		for len(ids) < 2 {
			h, payload, err := readFrame(conn)
			if err != nil {
				t.Error(err)
				return
			}
			if h.typ != frameRequest {
				continue
			}
			if _, err := httpapi.DecodeRequest(bytes.NewReader(payload), 1<<20); err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, h.id)
		}
		// Answer in reverse arrival order: id 2 first, then id 1.
		for i := len(ids) - 1; i >= 0; i-- {
			var buf bytes.Buffer
			resp := &serve.Response{Results: []serve.Result{{Stack: "m", Class: int(ids[i])}}}
			if err := httpapi.EncodeResponse(&buf, resp); err != nil {
				t.Error(err)
				return
			}
			if err := writeFrame(conn, frameResponse, ids[i], buf.Bytes()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	sess, err := c.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	id1, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(2)}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Recv()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != id2 || second.ID != id1 {
		t.Fatalf("delivery order = %d, %d; want %d (completed first), %d", first.ID, second.ID, id2, id1)
	}
	if first.Err != nil || second.Err != nil {
		t.Fatalf("unexpected errors: %v, %v", first.Err, second.Err)
	}
	if first.Resp.First().Class != int(id2) {
		t.Fatalf("results crossed ids: got class %d for id %d", first.Resp.First().Class, first.ID)
	}
}

// TestSessionBackpressureTypedOverload fills a session's in-flight
// window and checks every excess send comes back through Recv as a
// typed *OverloadedError with a usable RetryAfter — the backpressure
// frame — while the admitted requests still complete.
func TestSessionBackpressureTypedOverload(t *testing.T) {
	const window, sent = 2, 6
	// MaxDelay pins admitted requests in the open batch long enough for
	// the excess sends to hit the full window deterministically;
	// MaxBatch > window means admission, not batching, is the limiter.
	_, c, _ := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 8, MaxDelay: 300 * time.Millisecond,
	}, ListenerConfig{MaxInFlight: window})
	sess, err := c.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < sent; i++ {
		if _, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(uint64(i))}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	var ok, shed int
	for i := 0; i < sent; i++ {
		sr, err := sess.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Err == nil {
			ok++
			continue
		}
		var ov *serve.OverloadedError
		if !errors.As(sr.Err, &ov) {
			t.Fatalf("result %d: err = %v, want *OverloadedError", sr.ID, sr.Err)
		}
		if !errors.Is(sr.Err, serve.ErrOverloaded) || ov.RetryAfter < time.Millisecond {
			t.Fatalf("backpressure frame lost detail: %+v", ov)
		}
		shed++
	}
	if ok != window || shed != sent-window {
		t.Fatalf("served %d, shed %d; want %d served, %d shed", ok, shed, window, sent-window)
	}
}

// TestClientReconnectAfterServerKill kills the listener under a live
// client and brings a fresh one up on the same address: in-flight and
// interim calls fail with transport-shaped errors, and the pooled
// client must redial through its backoff and serve again without being
// rebuilt.
func TestClientReconnectAfterServerKill(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	l1 := NewListener(srv, ListenerConfig{})
	go func() { _ = l1.Serve(ln) }()
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	if _, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}}); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	// The dead server must surface as an error, not a hang.
	if _, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(2)}}); err == nil {
		t.Fatal("infer against a killed listener succeeded")
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewListener(srv, ListenerConfig{})
	go func() { _ = l2.Serve(ln2) }()
	defer l2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(3)}})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentPipelinedSenders hammers one client — pooled InferSync
// callers plus one shared session with concurrent Send and a draining
// Recv — under the race detector.
func TestConcurrentPipelinedSenders(t *testing.T) {
	const (
		callers  = 4
		perC     = 8
		sessSend = 16
	)
	_, c, _ := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	}, ListenerConfig{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, callers*perC+sessSend)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				if _, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(uint64(g*100 + i))}}); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	sess, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var sg sync.WaitGroup
	for g := 0; g < 2; g++ {
		sg.Add(1)
		go func(g int) {
			defer sg.Done()
			for i := 0; i < sessSend/2; i++ {
				if _, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(uint64(g*1000 + i))}}); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	for i := 0; i < sessSend; i++ {
		sr, err := sess.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if sr.Err != nil {
			errs <- sr.Err
		}
	}
	wg.Wait()
	sg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent pipelined traffic failed: %v", err)
	}
}

// TestGracefulDrain checks Shutdown's contract: in-flight pipelined
// requests complete and deliver, the session hears the goaway (new
// sends refused with ErrClosed), and Shutdown returns.
func TestGracefulDrain(t *testing.T) {
	srv, c, l := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 4, MaxDelay: 100 * time.Millisecond,
	}, ListenerConfig{})
	_ = srv
	sess, err := c.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(uint64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.Shutdown(sctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	got := 0
	for got < n {
		sr, err := sess.Recv()
		if err != nil {
			t.Fatalf("recv after drain (got %d/%d): %v", got, n, err)
		}
		if sr.Err != nil {
			t.Fatalf("in-flight request %d failed across drain: %v", sr.ID, sr.Err)
		}
		got++
	}
	// The goaway must have landed: new sends are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(99)}})
		if err != nil {
			if !errors.Is(err, serve.ErrClosed) && !isTransportErr(err) {
				t.Fatalf("post-drain send: err = %v, want ErrClosed or transport error", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session still accepting sends after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// isTransportErr reports whether err is connection-shaped (the drain
// closed the conn before the goaway was observed).
func isTransportErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, net.ErrClosed)
}

// TestShutdownDuringHelloPhase regresses a nil-pointer panic: a
// connection accepted but still inside its hello exchange has no frame
// writer yet, and a racing Shutdown used to crash the process writing
// its goaway to it. Shutdown must instead skip (or defer) the goaway
// and come back when the context expires.
func TestShutdownDuringHelloPhase(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(srv, ListenerConfig{})
	go func() { _ = l.Serve(ln) }()
	// A client that connects and then stalls mid-hello: the session is
	// registered server-side but never reaches the framed phase.
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	time.Sleep(50 * time.Millisecond) // let Serve register the session
	sctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	// The stalled session cannot drain, so ctx expiry is the expected
	// outcome — the point is that Shutdown returns instead of panicking.
	if err := l.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSessionRecvUnblocksAfterConnDeath regresses a hang: when the
// pinned connection dies, Recv must first deliver one errored result
// per outstanding request and then keep returning the transport error
// — never park forever on a pipe that cannot deliver again.
func TestSessionRecvUnblocksAfterConnDeath(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 4, MaxDelay: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(srv, ListenerConfig{})
	go func() { _ = l.Serve(ln) }()
	c := NewClient(ln.Addr().String())
	defer c.Close()
	sess, err := c.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Pin one request in the open batch (MaxDelay holds it), then kill
	// the listener under it.
	id, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	recv := func() (serve.SessionResult, error) {
		type out struct {
			sr  serve.SessionResult
			err error
		}
		ch := make(chan out, 1)
		go func() {
			sr, err := sess.Recv()
			ch <- out{sr, err}
		}()
		select {
		case o := <-ch:
			return o.sr, o.err
		case <-time.After(10 * time.Second):
			t.Fatal("Recv hung after connection death")
			return serve.SessionResult{}, nil
		}
	}
	// First Recv: the outstanding request's failure result.
	sr, err := recv()
	if err != nil {
		t.Fatalf("Recv for outstanding id: %v", err)
	}
	if sr.ID != id || sr.Err == nil {
		t.Fatalf("outstanding request result = %+v, want id %d with transport error", sr, id)
	}
	// Second Recv: nothing outstanding remains; must return the
	// terminal error, not block.
	if _, err := recv(); err == nil {
		t.Fatal("Recv after drain returned nil error on a dead session")
	}
}

// TestOversizedPayloadIsPerRequestError pins the frame cap to the
// per-request failure contract: a payload over MaxFrameBytes is
// refused before touching the wire — errors.Is(ErrPayloadTooLarge) —
// and the connection keeps serving other requests instead of being
// torn down (which would fail every in-flight call on it, unlike the
// HTTP transport's per-request body cap).
func TestOversizedPayloadIsPerRequestError(t *testing.T) {
	_, c, _ := loopback(t, serve.Config{
		Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
	}, ListenerConfig{})
	cn, err := c.conn()
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.writeFrame(frameRequest, 1, make([]byte, MaxFrameBytes+1)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized writeFrame: err = %v, want ErrPayloadTooLarge", err)
	}
	if cn.isDead() {
		t.Fatal("oversized payload killed the connection; must stay per-request")
	}
	// The same connection still serves.
	resp, err := c.InferSync(context.Background(), serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(5)}})
	if err != nil {
		t.Fatalf("InferSync after refused oversize payload: %v", err)
	}
	if resp.First().Stack != "m" {
		t.Fatalf("response after refusal: %+v", resp.First())
	}
}
