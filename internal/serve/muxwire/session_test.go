package muxwire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/httpapi"
	"repro/internal/tensor"
)

// conn returns a live pooled connection for tests that drive the conn
// directly.
func (c *Client) conn() (*conn, error) { return c.pooled(context.Background()) }

// TestDialHonoursCallerDeadline pins the dial to the caller's ctx:
// against a listener that accepts but never answers the hello, a call
// with a 100ms ctx returns context.DeadlineExceeded well inside
// DialTimeout — for a pooled InferSync and for Session alike — and the
// abandoned dial does not arm the slot's redial backoff for other
// callers.
func TestDialHonoursCallerDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // hold the conn open, silent
		}
	}()
	c := NewClient(ln.Addr().String(), serve.WithPoolSize(1))
	defer c.Close()
	req := serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.InferSync(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("InferSync against a silent hello: err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > DialTimeout/4 {
		t.Fatalf("InferSync took %v; the 100ms ctx did not bound the dial", took)
	}
	if s := c.slots[0]; !s.nextTry.IsZero() || s.lastErr != nil {
		t.Fatalf("abandoned dial armed the redial backoff: nextTry %v, lastErr %v", s.nextTry, s.lastErr)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer scancel()
	start = time.Now()
	if _, err := c.Session(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Session against a silent hello: err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > DialTimeout/4 {
		t.Fatalf("Session took %v; the 100ms ctx did not bound the dial", took)
	}
}

// TestSessionCloseWithUndeliveredOutcomes closes a session whose read
// loop is parked on a full sink: Close must return promptly, release
// the read loop, and the next Recv must report serve.ErrClosed rather
// than hand out a discarded outcome.
func TestSessionCloseWithUndeliveredOutcomes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A peer that answers every request frame at once.
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := readHello(nc); err != nil {
			return
		}
		if err := writeHello(nc, 0); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := httpapi.EncodeResponse(&buf, &serve.Response{Results: []serve.Result{{Stack: "m"}}}); err != nil {
			t.Error(err)
			return
		}
		for {
			h, _, err := readFrame(nc)
			if err != nil {
				return
			}
			if h.typ != frameRequest {
				continue
			}
			if err := writeFrame(nc, frameResponse, h.id, buf.Bytes()); err != nil {
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
	cn := sess.(*muxSession).cn
	img := tensor.New(1, 1, 1)
	for i := 0; i < sessionOutBuffer+8; i++ {
		if _, err := sess.Send(serve.Request{Target: "m", Images: []*tensor.Tensor{img}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); len(cn.sink) < cap(cn.sink); {
		if time.Now().After(deadline) {
			t.Fatalf("sink holds %d of %d outcomes; want it full", len(cn.sink), cap(cn.sink))
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with undelivered outcomes", took)
	}
	select {
	case <-cn.readDone:
	case <-time.After(10 * time.Second):
		t.Fatal("read loop still parked on the sink after Close")
	}
	if _, err := sess.Recv(); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Recv after Close: err = %v, want serve.ErrClosed", err)
	}
}
