package muxwire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/httpapi"
)

// Client-side defaults.
const (
	// DefaultPoolSize is the connection-pool size: pipelined submissions
	// round-robin across this many DLW2 connections. More than one keeps
	// a single kernel socket buffer from serialising large concurrent
	// tensor frames.
	DefaultPoolSize = 2
	// DialTimeout bounds one connection attempt including the hello
	// exchange.
	DialTimeout = 2 * time.Second
	// redialBackoffBase is the first delay after a failed dial; each
	// consecutive failure doubles it up to redialBackoffMax. While the
	// backoff is pending, calls fail fast with the cached dial error —
	// the shape the cluster's health prober expects from a down member.
	redialBackoffBase = 50 * time.Millisecond
	redialBackoffMax  = 2 * time.Second
)

// Scheme is the URL scheme selecting this transport in connect strings
// ("dlw2://host:port").
const Scheme = "dlw2"

// TrimScheme strips a dlw2:// prefix, if present.
func TrimScheme(addr string) string {
	return strings.TrimPrefix(addr, Scheme+"://")
}

// Client is the remote serve.Client over DLW2: a pool of persistent
// multiplexed connections with pipelined submission, typed-error
// reconstruction, and reconnect-with-backoff. Construct with NewClient;
// all methods are safe for concurrent use.
type Client struct {
	addr string
	opts serve.ClientOptions

	mu     sync.Mutex
	slots  []*slot
	next   int
	closed bool
}

// slot is one pool entry: the live connection plus its redial state.
type slot struct {
	mu      sync.Mutex
	cn      *conn
	backoff time.Duration
	nextTry time.Time
	lastErr error
}

// NewClient targets a DLW2 listener at addr ("host:port" or
// "dlw2://host:port"). Connections are dialed lazily and redialed with
// backoff after failures. Options follow the transport-unified
// vocabulary: serve.WithPoolSize sizes the connection pool,
// serve.WithTimeout bounds synchronous calls, serve.WithTenant stamps a
// default tenant.
func NewClient(addr string, opts ...serve.ClientOption) *Client {
	o := serve.BuildClientOptions(opts...)
	n := o.PoolSize
	if n <= 0 {
		n = DefaultPoolSize
	}
	c := &Client{addr: TrimScheme(addr), opts: o, slots: make([]*slot, n)}
	for i := range c.slots {
		c.slots[i] = &slot{}
	}
	return c
}

// conn returns a live pooled connection, dialing if the slot is empty
// and its backoff window has passed.
func (c *Client) conn() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, serve.ErrClosed
	}
	s := c.slots[c.next%len(c.slots)]
	c.next++
	c.mu.Unlock()
	return s.get(c.addr)
}

// get returns the slot's connection, dialing under the slot lock so
// concurrent callers share one attempt.
func (s *slot) get(addr string) (*conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cn != nil && !s.cn.isDead() {
		return s.cn, nil
	}
	s.cn = nil
	if !s.nextTry.IsZero() && time.Now().Before(s.nextTry) {
		return nil, s.lastErr
	}
	cn, err := dialConn(addr)
	if err != nil {
		if s.backoff == 0 {
			s.backoff = redialBackoffBase
		} else if s.backoff < redialBackoffMax {
			s.backoff *= 2
		}
		s.nextTry = time.Now().Add(s.backoff)
		s.lastErr = err
		return nil, err
	}
	go cn.readLoop()
	s.backoff, s.nextTry, s.lastErr = 0, time.Time{}, nil
	s.cn = cn
	return cn, nil
}

// Infer submits the request asynchronously on a pooled connection: the
// frame is written (pipelined — no await between submissions) and the
// returned future resolves when its response or error frame arrives.
// Like the HTTP client, submit-time errors surface at Wait.
func (c *Client) Infer(ctx context.Context, req serve.Request) (*serve.ResponseFuture, error) {
	rf, resolve := serve.NewResponseFuture()
	go func() { resolve(c.InferSync(ctx, req)) }()
	return rf, nil
}

// InferSync submits one request frame and awaits its completion frame,
// reconstructing typed errors. Concurrent InferSync calls on one
// connection interleave freely — that is the multiplexing.
func (c *Client) InferSync(ctx context.Context, req serve.Request) (*serve.Response, error) {
	req = c.opts.Stamp(req)
	ctx, cancel := c.opts.Deadline(ctx)
	defer cancel()
	cn, err := c.conn()
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := httpapi.EncodeRequest(&body, req); err != nil {
		return nil, err
	}
	call := cn.register()
	if call.err != nil {
		return nil, call.err
	}
	if err := cn.writeFrame(frameRequest, call.id, body.Bytes()); err != nil {
		cn.unregister(call.id)
		if errors.Is(err, serve.ErrClosed) || errors.Is(err, ErrPayloadTooLarge) {
			// Nothing reached the wire: a dead-conn abort (drain handshake)
			// or a refused oversize payload. The connection — and every
			// other in-flight request on it — stays up.
			return nil, err
		}
		cn.fail(err)
		return nil, transportError(c.addr, err)
	}
	return call.awaitResponse(ctx, cn)
}

// Stats fetches the whole-server statistics snapshot over the session.
func (c *Client) Stats(ctx context.Context) (serve.ServerStats, error) {
	var st serve.ServerStats
	return st, c.control(ctx, frameStats, &st)
}

// Models fetches the hosted routing targets over the session.
func (c *Client) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	var ms []serve.ModelInfo
	return ms, c.control(ctx, frameModels, &ms)
}

// control performs one stats/models exchange and decodes the JSON
// reply.
func (c *Client) control(ctx context.Context, typ byte, dst any) error {
	ctx, cancel := c.opts.Deadline(ctx)
	defer cancel()
	cn, err := c.conn()
	if err != nil {
		return err
	}
	call := cn.register()
	if call.err != nil {
		return call.err
	}
	if err := cn.writeFrame(typ, call.id, nil); err != nil {
		cn.unregister(call.id)
		if errors.Is(err, serve.ErrClosed) {
			return err
		}
		cn.fail(err)
		return transportError(c.addr, err)
	}
	select {
	case <-call.done:
	case <-ctx.Done():
		cn.unregister(call.id)
		return ctx.Err()
	}
	if call.err != nil {
		return call.err
	}
	if call.kind == frameError {
		return httpapi.UnmarshalError(call.raw)
	}
	if err := json.Unmarshal(call.raw, dst); err != nil {
		return fmt.Errorf("muxwire: decoding control reply: %w", err)
	}
	return nil
}

// Session opens a native DLW2 streaming session: a dedicated pinned
// connection (outside the pool) on which Send pipelines request frames
// back-to-back and Recv delivers completion frames as they interleave
// back. Per-request failures — including the server's backpressure
// frames as typed *serve.OverloadedError values — arrive through Recv;
// Send fails only when the session itself is down.
func (c *Client) Session(ctx context.Context) (serve.Session, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, serve.ErrClosed
	}
	c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := dialConn(c.addr)
	if err != nil {
		return nil, err
	}
	return newMuxSession(ctx, c, cn), nil
}

// Close closes every pooled connection; in-flight calls fail with
// serve.ErrClosed. Sessions opened via Session have their own pinned
// connections and their own Close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	slots := c.slots
	c.mu.Unlock()
	for _, s := range slots {
		s.mu.Lock()
		if s.cn != nil {
			s.cn.close(serve.ErrClosed)
			s.cn = nil
		}
		s.mu.Unlock()
	}
	return nil
}

var _ serve.Client = (*Client)(nil)

// call is one in-flight exchange on a conn.
type call struct {
	id   uint64
	done chan struct{}
	// kind/raw hold the completion frame (decoded by the awaiting
	// caller, so tensor decode parallelises across callers instead of
	// serialising in the read loop); err holds a transport failure.
	kind byte
	raw  []byte
	err  error
}

// conn is one established DLW2 connection.
type conn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu sync.Mutex // serialises writeFrame

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	dead    bool
	deadErr error

	window uint16 // server-advertised in-flight cap (informational)
}

// dialConn establishes and handshakes one connection.
func dialConn(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("muxwire: dial %s: %w", addr, err)
	}
	_ = nc.SetDeadline(time.Now().Add(DialTimeout))
	if err := writeHello(nc, 0); err != nil {
		nc.Close()
		return nil, fmt.Errorf("muxwire: hello to %s: %w", addr, err)
	}
	window, err := readHello(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("muxwire: hello from %s: %w", addr, err)
	}
	_ = nc.SetDeadline(time.Time{})
	cn := &conn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]*call),
		window:  window,
	}
	return cn, nil
}

// register allocates an id and parks a call on it.
func (cn *conn) register() *call {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.nextID++
	cl := &call{id: cn.nextID, done: make(chan struct{})}
	if cn.dead {
		cl.err = cn.deadErr
		close(cl.done)
		return cl
	}
	cn.pending[cl.id] = cl
	return cl
}

// unregister abandons a call (ctx abort); a late completion frame for
// the id is dropped by the read loop.
func (cn *conn) unregister(id uint64) {
	cn.mu.Lock()
	delete(cn.pending, id)
	cn.mu.Unlock()
}

// writeFrame emits one frame under the write lock and flushes. A conn
// marked dead aborts before touching the socket: combined with
// ackGoaway (which sets dead before writing the ack under this same
// lock), this guarantees no request frame ever follows the goaway ack
// on the wire. Writes are bounded by frameWriteTimeout so a stalled
// peer (full TCP window) cannot pin the caller — and every caller
// queued behind wmu — indefinitely; on expiry the caller fails the
// conn like any transport error.
func (cn *conn) writeFrame(typ byte, id uint64, payload []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	cn.mu.Lock()
	dead, deadErr := cn.dead, cn.deadErr
	cn.mu.Unlock()
	if dead {
		return deadErr
	}
	if len(payload) > MaxFrameBytes {
		// Refuse before touching the socket: the server's decoder would
		// kill the whole multiplexed connection on the oversized length,
		// failing every other in-flight request; refusing here keeps it a
		// per-request error like the HTTP transport's body cap.
		return ErrPayloadTooLarge
	}
	_ = cn.c.SetWriteDeadline(time.Now().Add(frameWriteTimeout))
	err := writeFrame(cn.bw, typ, id, payload)
	if err == nil {
		err = cn.bw.Flush()
	}
	_ = cn.c.SetWriteDeadline(time.Time{})
	return err
}

// ackGoaway answers a server drain notice: mark the conn dead for new
// writes, then acknowledge. The dead-before-ack ordering is the drain
// handshake's correctness argument — every request frame the server
// will ever see precedes the ack, so it can end the session once its
// in-flight work drains without losing pipelined requests.
func (cn *conn) ackGoaway() {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return
	}
	cn.dead = true
	cn.deadErr = serve.ErrClosed
	cn.mu.Unlock()
	cn.wmu.Lock()
	_ = cn.c.SetWriteDeadline(time.Now().Add(frameWriteTimeout))
	if err := writeFrame(cn.bw, frameGoaway, 0, nil); err == nil {
		_ = cn.bw.Flush()
	}
	_ = cn.c.SetWriteDeadline(time.Time{})
	cn.wmu.Unlock()
}

// readLoop dispatches completion frames to their calls until the
// connection dies, then fails everything pending.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.c, 64<<10)
	for {
		h, payload, err := readFrame(br)
		if err != nil {
			cn.close(transportError(cn.c.RemoteAddr().String(), err))
			return
		}
		switch h.typ {
		case frameResponse, frameError, frameReply:
			cn.mu.Lock()
			cl := cn.pending[h.id]
			delete(cn.pending, h.id)
			cn.mu.Unlock()
			if cl != nil {
				cl.kind, cl.raw = h.typ, payload
				close(cl.done)
			}
		case frameGoaway:
			// Server drain notice: in-flight completions still arrive
			// (the loop keeps reading); acknowledge so the server can end
			// the session, and let the pool redial elsewhere/later.
			cn.ackGoaway()
		default:
			cn.close(transportError(cn.c.RemoteAddr().String(), errUnknownFrameType))
			return
		}
	}
}

// isDead reports whether the conn can take new calls.
func (cn *conn) isDead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dead
}

// fail marks the conn dead after a write failure and closes it; the
// read loop then fails all pending calls.
func (cn *conn) fail(err error) {
	cn.mu.Lock()
	if !cn.dead {
		cn.dead = true
		cn.deadErr = err
	}
	cn.mu.Unlock()
	cn.c.Close()
}

// close tears the conn down and fails every pending call with err.
func (cn *conn) close(err error) {
	cn.mu.Lock()
	if !cn.dead {
		cn.dead = true
		cn.deadErr = err
	}
	pending := cn.pending
	cn.pending = make(map[uint64]*call)
	cn.mu.Unlock()
	cn.c.Close()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
}

// awaitResponse parks on the call and decodes its completion frame.
func (cl *call) awaitResponse(ctx context.Context, cn *conn) (*serve.Response, error) {
	select {
	case <-cl.done:
	case <-ctx.Done():
		cn.unregister(cl.id)
		return nil, ctx.Err()
	}
	return cl.decode()
}

// decode turns the completion frame into the (*Response, error) shape
// of InferSync: response frames may still carry per-image errors,
// error frames reconstruct the typed submission error.
func (cl *call) decode() (*serve.Response, error) {
	if cl.err != nil {
		return nil, cl.err
	}
	switch cl.kind {
	case frameResponse:
		resp, err := httpapi.DecodeResponse(bytes.NewReader(cl.raw), httpapi.DefaultMaxBodyBytes/4)
		if err != nil {
			return nil, err
		}
		return resp, resp.Err()
	case frameError:
		return nil, httpapi.UnmarshalError(cl.raw)
	}
	return nil, errUnknownFrameType
}
