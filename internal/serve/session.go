package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// Streaming sessions: the pinned-connection pipelining surface.
//
// A Session lets one caller keep many requests in flight without
// awaiting responses between submissions — Send fires, Recv collects
// outcomes as they complete, possibly out of submission order. The
// muxwire transport implements it natively (one pinned DLW2 connection,
// frames pipelined back-to-back); every other Client gets the same
// semantics from NewPipelinedSession, so callers program one streaming
// interface regardless of transport.
//
// Contract:
//
//   - Send never blocks on request execution. It returns the session-
//     scoped request ID the outcome will carry, and errors only when
//     the session itself is unusable (closed, context done). Per-
//     request failures — unknown target, overload, quota — are NOT
//     Send errors: they arrive through Recv as a SessionResult with Err
//     set, exactly like a slow failure would, so a pipelining loop has
//     one place to handle outcomes.
//   - Recv blocks for the next completed outcome, in completion order.
//     It errors only when no further outcome can arrive: ErrClosed
//     after Close, or the session context's error.
//   - Close tears the session down. Outcomes not yet received are
//     discarded; in-flight work on the server is not cancelled.
type Session interface {
	// Send submits one request into the pipeline and returns its
	// session-scoped ID without awaiting execution.
	Send(req Request) (uint64, error)
	// Recv returns the next completed outcome. Outcomes arrive in
	// completion order, which on a multiplexed transport is not
	// submission order — match them to submissions by ID.
	Recv() (SessionResult, error)
	// Close tears down the session and releases its pinned resources.
	Close() error
}

// SessionResult is one completed outcome in a streaming session.
type SessionResult struct {
	// ID is the session-scoped request ID Send returned.
	ID uint64
	// Resp is the response; nil when Err is a whole-request failure.
	Resp *Response
	// Err is the request's failure, carrying the same typed sentinels
	// (ErrOverloaded with RetryAfter, ErrQuotaExceeded, ErrNoVariant,
	// ErrUnknownTarget) a synchronous InferSync would return.
	Err error
}

// sessionResultBuffer bounds how many undelivered outcomes a pipelined
// session holds before completions backpressure onto their resolving
// goroutines. Large enough that a well-behaved pipelining loop (bounded
// in-flight window, draining Recv) never touches it.
const sessionResultBuffer = 1024

// pipeSession adapts any Client's InferSync into the Session contract:
// each Send dispatches a goroutine that runs the call and delivers the
// outcome. It is the Session implementation for LocalClient, the HTTP
// client, and the cluster; muxwire replaces it with a true pinned
// connection. Every request is bounded by the session ctx, exactly as
// a direct InferSync under that ctx would be.
type pipeSession struct {
	ctx    context.Context
	cancel context.CancelFunc
	c      Client
	nextID atomic.Uint64
	out    chan SessionResult
	done   chan struct{} // closed by Close

	mu     sync.Mutex
	closed bool
}

// NewPipelinedSession builds a Session over any Client by pipelining
// through its InferSync path. The session is bound to ctx: cancelling it
// fails subsequent Send/Recv calls with ctx's error.
func NewPipelinedSession(ctx context.Context, c Client) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	return &pipeSession{
		ctx:    sctx,
		cancel: cancel,
		c:      c,
		out:    make(chan SessionResult, sessionResultBuffer),
		done:   make(chan struct{}),
	}, nil
}

// Send fires one request without awaiting execution.
func (s *pipeSession) Send(req Request) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	s.mu.Unlock()
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	id := s.nextID.Add(1)
	go func() {
		sr := SessionResult{ID: id}
		sr.Resp, sr.Err = s.c.InferSync(s.ctx, req)
		select {
		case s.out <- sr:
		case <-s.done:
		}
	}()
	return id, nil
}

// Recv blocks for the next completed outcome.
func (s *pipeSession) Recv() (SessionResult, error) {
	select {
	case sr := <-s.out:
		return sr, nil
	case <-s.done:
		// Drain any outcome that raced with Close.
		select {
		case sr := <-s.out:
			return sr, nil
		default:
			return SessionResult{}, ErrClosed
		}
	case <-s.ctx.Done():
		return SessionResult{}, s.ctx.Err()
	}
}

// Close tears the session down; undelivered outcomes are discarded.
func (s *pipeSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.cancel()
	return nil
}
