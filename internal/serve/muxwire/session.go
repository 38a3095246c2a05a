package muxwire

import (
	"bytes"
	"context"
	"sync"

	"repro/internal/serve"
	"repro/internal/serve/httpapi"
)

// sessionOutBuffer bounds undelivered outcomes before TCP flow control
// engages (see the conn comment).
const sessionOutBuffer = 1024

// muxSession is the native DLW2 serve.Session: one pinned connection
// (dialed outside the client's pool) whose read loop delivers
// completed calls to a sink in arrival order. Send writes request
// frames back-to-back through the same conn.send every pooled call
// uses; Recv drains the sink and decodes each outcome.
//
// Backpressure is end-to-end and typed: a Send past the server's
// session window is not blocked client-side — the server answers it
// immediately with the overload error frame, which Recv surfaces as a
// SessionResult whose Err is a *serve.OverloadedError carrying the
// RetryAfter hint. If Recv stops draining, the sink fills and the read
// loop stops reading, so TCP flow control backpressures the server.
//
// A server drain (goaway) refuses new sends with serve.ErrClosed while
// outstanding completions still arrive. A transport failure
// mid-session fails every outstanding request through Recv (one
// SessionResult per outstanding ID, Err wrapping the underlying net
// error), after which Recv returns the conn's terminal error; the
// session does not transparently reconnect — in-flight state cannot be
// rebuilt, so the caller opens a fresh session and re-decides what to
// resend.
type muxSession struct {
	cn   *conn
	ctx  context.Context
	once sync.Once
}

// Send pipelines one request frame; it never awaits execution.
func (s *muxSession) Send(req serve.Request) (uint64, error) {
	select {
	case <-s.cn.stop:
		return 0, serve.ErrClosed
	default:
	}
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	var body bytes.Buffer
	if err := httpapi.EncodeRequest(&body, req); err != nil {
		return 0, err
	}
	cl, err := s.cn.send(frameRequest, body.Bytes())
	if err != nil {
		return 0, err
	}
	return cl.id, nil
}

// Recv delivers the next completion, in arrival (not submission) order.
// Once the read loop has exited and delivered outcomes are drained,
// Recv returns the error that ended the connection (serve.ErrClosed
// after a drain) instead of parking forever on a pipe that can never
// deliver again. After Close it returns serve.ErrClosed.
func (s *muxSession) Recv() (serve.SessionResult, error) {
	select {
	case <-s.cn.stop:
		return serve.SessionResult{}, serve.ErrClosed
	default:
	}
	select {
	case cl := <-s.cn.sink:
		return result(cl), nil
	case <-s.cn.stop:
		return serve.SessionResult{}, serve.ErrClosed
	case <-s.cn.readDone:
		// The read loop delivered everything it ever will before exiting,
		// so a non-blocking drain cannot lose a result.
		select {
		case cl := <-s.cn.sink:
			return result(cl), nil
		default:
			return serve.SessionResult{}, s.cn.err()
		}
	case <-s.ctx.Done():
		return serve.SessionResult{}, s.ctx.Err()
	}
}

// result decodes one completed call into its SessionResult.
func result(cl *call) serve.SessionResult {
	sr := serve.SessionResult{ID: cl.id}
	sr.Resp, sr.Err = cl.decode()
	return sr
}

// Close tears down the pinned connection; undelivered outcomes are
// discarded and in-flight server work completes unobserved.
func (s *muxSession) Close() error {
	s.once.Do(func() {
		close(s.cn.stop)
		s.cn.close(serve.ErrClosed)
	})
	return nil
}

var _ serve.Session = (*muxSession)(nil)
