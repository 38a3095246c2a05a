package muxwire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
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
// backoff after failures. serve.WithPoolSize sizes the connection
// pool (DefaultPoolSize when unset); per-call deadlines come from the
// caller's ctx.
func NewClient(addr string, opts ...serve.ClientOption) *Client {
	n := serve.BuildClientOptions(opts...).PoolSize
	if n <= 0 {
		n = DefaultPoolSize
	}
	c := &Client{addr: TrimScheme(addr), slots: make([]*slot, n)}
	for i := range c.slots {
		c.slots[i] = &slot{}
	}
	return c
}

// pooled returns a live pooled connection, dialing if the slot is
// empty and its backoff window has passed.
func (c *Client) pooled(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, serve.ErrClosed
	}
	s := c.slots[c.next%len(c.slots)]
	c.next++
	c.mu.Unlock()
	return s.get(ctx, c.addr)
}

// get returns the slot's connection, dialing under the slot lock so
// concurrent callers share one attempt. A dial cut short by the
// caller's ctx says nothing about the backend, so it does not arm the
// backoff other callers would then fail fast on.
func (s *slot) get(ctx context.Context, addr string) (*conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cn != nil && !s.cn.isDead() {
		return s.cn, nil
	}
	s.cn = nil
	if !s.nextTry.IsZero() && time.Now().Before(s.nextTry) {
		return nil, s.lastErr
	}
	cn, err := dialConn(ctx, addr, nil)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		if s.backoff == 0 {
			s.backoff = redialBackoffBase
		} else if s.backoff < redialBackoffMax {
			s.backoff *= 2
		}
		s.nextTry = time.Now().Add(s.backoff)
		s.lastErr = err
		return nil, err
	}
	s.backoff, s.nextTry, s.lastErr = 0, time.Time{}, nil
	s.cn = cn
	return cn, nil
}

// InferSync submits one request frame and awaits its completion frame,
// reconstructing typed errors. Concurrent InferSync calls on one
// connection interleave freely — that is the multiplexing.
func (c *Client) InferSync(ctx context.Context, req serve.Request) (*serve.Response, error) {
	cn, err := c.pooled(ctx)
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := httpapi.EncodeRequest(&body, req); err != nil {
		return nil, err
	}
	cl, err := cn.send(frameRequest, body.Bytes())
	if err != nil {
		return nil, err
	}
	if err := cl.await(ctx, cn); err != nil {
		return nil, err
	}
	return cl.decode()
}

// Stats fetches the whole-server statistics snapshot over a pooled
// connection.
func (c *Client) Stats(ctx context.Context) (serve.ServerStats, error) {
	var st serve.ServerStats
	return st, c.control(ctx, frameStats, &st)
}

// Models fetches the hosted routing targets over a pooled connection.
func (c *Client) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	var ms []serve.ModelInfo
	return ms, c.control(ctx, frameModels, &ms)
}

// control performs one stats/models exchange and decodes the JSON
// reply.
func (c *Client) control(ctx context.Context, typ byte, dst any) error {
	cn, err := c.pooled(ctx)
	if err != nil {
		return err
	}
	cl, err := cn.send(typ, nil)
	if err != nil {
		return err
	}
	if err := cl.await(ctx, cn); err != nil {
		return err
	}
	if cl.kind == frameError {
		return httpapi.UnmarshalError(cl.raw)
	}
	if err := json.Unmarshal(cl.raw, dst); err != nil {
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
	cn, err := dialConn(ctx, c.addr, make(chan *call, sessionOutBuffer))
	if err != nil {
		return nil, err
	}
	return &muxSession{cn: cn, ctx: ctx}, nil
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
	id uint64
	// done closes when the call completes on a pooled conn; a session
	// conn hands the call to its sink instead and leaves done nil.
	done chan struct{}
	// kind/raw hold the completion frame (decoded by whoever receives
	// the call, so tensor decode parallelises across callers instead of
	// serialising in the read loop); err holds a transport failure.
	kind byte
	raw  []byte
	err  error
}

// conn is one established DLW2 connection. Its read loop completes
// calls in arrival order: a pooled conn (nil sink) closes each call's
// done channel for the caller parked on it; a session conn delivers
// each call to its bounded sink, which the session's Recv drains. A
// full sink stops the read loop — TCP flow control then backpressures
// the server without affecting any other connection.
type conn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu sync.Mutex // serialises writeFrame

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	deadErr error // why the conn stopped taking calls; nil while live

	sink chan *call    // session conns only
	stop chan struct{} // closed by the session's Close: sink deliveries give up
	// readDone closes when the read loop exits, after it has delivered
	// every call it ever will.
	readDone chan struct{}

	window uint16 // server-advertised in-flight cap (informational)
}

// dialConn establishes and handshakes one connection and starts its
// read loop. Connect plus hello are bounded by the earlier of ctx's
// deadline and DialTimeout; when ctx ended first, the error wraps
// ctx's error.
func dialConn(ctx context.Context, addr string, sink chan *call) (*conn, error) {
	deadline := time.Now().Add(DialTimeout)
	d, ok := ctx.Deadline()
	callerBound := ok && d.Before(deadline)
	if callerBound {
		deadline = d
	}
	nc, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", addr)
	var window uint16
	if err == nil {
		_ = nc.SetDeadline(deadline)
		if err = writeHello(nc, 0); err == nil {
			window, err = readHello(nc)
		}
		_ = nc.SetDeadline(time.Time{})
		if err != nil {
			nc.Close()
		}
	}
	if err != nil {
		if callerBound && (errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded)) {
			// The deadline that fired is ctx's own; its timer may lag the
			// socket's by a moment.
			<-ctx.Done()
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, fmt.Errorf("muxwire: connecting to %s: %w", addr, err)
	}
	cn := &conn{
		c:        nc,
		bw:       bufio.NewWriterSize(nc, 64<<10),
		pending:  make(map[uint64]*call),
		sink:     sink,
		readDone: make(chan struct{}),
		window:   window,
	}
	if sink != nil {
		cn.stop = make(chan struct{})
	}
	go cn.readLoop()
	return cn, nil
}

// send registers a call and writes its frame. An error means the call
// will never complete: the conn was already dead, the payload was
// refused as oversize or a drain won the race (nothing reached the
// wire and the conn stays up for everything else in flight), or the
// write failed (the conn is torn down, failing everything on it).
func (cn *conn) send(typ byte, payload []byte) (*call, error) {
	cn.mu.Lock()
	if err := cn.deadErr; err != nil {
		cn.mu.Unlock()
		return nil, err
	}
	cn.nextID++
	cl := &call{id: cn.nextID}
	if cn.sink == nil {
		cl.done = make(chan struct{})
	}
	cn.pending[cl.id] = cl
	cn.mu.Unlock()
	err := cn.writeFrame(typ, cl.id, payload)
	if err != nil && !errors.Is(err, serve.ErrClosed) && !errors.Is(err, ErrPayloadTooLarge) {
		err = transportError(cn.c.RemoteAddr().String(), err)
		cn.fail(err)
	}
	if err == nil || !cn.unregister(cl.id) {
		// Sent, or the conn's teardown already took the call and
		// completes it with the teardown error.
		return cl, nil
	}
	return nil, err
}

// unregister abandons a call (ctx abort, failed write); a late
// completion frame for the id is dropped by the read loop. It reports
// whether the call was still pending.
func (cn *conn) unregister(id uint64) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	_, ok := cn.pending[id]
	delete(cn.pending, id)
	return ok
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
	if err := cn.err(); err != nil {
		return err
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
	if cn.deadErr != nil {
		cn.mu.Unlock()
		return
	}
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

// readLoop completes calls as their frames arrive until the connection
// dies, then fails everything pending.
func (cn *conn) readLoop() {
	defer close(cn.readDone)
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
				cn.complete(cl)
			}
		case frameGoaway:
			// Server drain notice: in-flight completions still arrive
			// (the loop keeps reading); acknowledge so the server can end
			// the session, and refuse new sends so the caller redials
			// elsewhere/later.
			cn.ackGoaway()
		default:
			cn.close(transportError(cn.c.RemoteAddr().String(), errUnknownFrameType))
			return
		}
	}
}

// complete hands a finished call to whoever awaits it. A sink delivery
// blocks while the sink is full, until the session closes.
func (cn *conn) complete(cl *call) {
	if cn.sink == nil {
		close(cl.done)
		return
	}
	select {
	case cn.sink <- cl:
	case <-cn.stop:
	}
}

// isDead reports whether the conn can no longer take new calls.
func (cn *conn) isDead() bool { return cn.err() != nil }

// err is why the conn stopped taking calls; nil while it is live.
func (cn *conn) err() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.deadErr
}

// fail marks the conn dead after a write failure and closes it; the
// read loop then fails all pending calls.
func (cn *conn) fail(err error) {
	cn.mu.Lock()
	if cn.deadErr == nil {
		cn.deadErr = err
	}
	cn.mu.Unlock()
	cn.c.Close()
}

// close tears the conn down and fails every pending call with err.
func (cn *conn) close(err error) {
	cn.mu.Lock()
	if cn.deadErr == nil {
		cn.deadErr = err
	}
	pending := cn.pending
	cn.pending = make(map[uint64]*call)
	cn.mu.Unlock()
	cn.c.Close()
	for _, cl := range pending {
		cl.err = err
		cn.complete(cl)
	}
}

// await parks a pooled call until it completes or ctx ends, returning
// the transport failure that completed it, if any.
func (cl *call) await(ctx context.Context, cn *conn) error {
	select {
	case <-cl.done:
		return cl.err
	case <-ctx.Done():
		cn.unregister(cl.id)
		return ctx.Err()
	}
}

// decode turns the completion into the (*Response, error) shape of
// InferSync: response frames may still carry per-image errors, error
// frames reconstruct the typed submission error.
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
