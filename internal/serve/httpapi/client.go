package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// Client is the remote serve.Client: it round-trips the same
// Request/Response types the in-process path uses over the httpapi
// wire format, and reconstructs the typed admission errors so
// errors.Is(err, serve.ErrOverloaded) / serve.ErrNoVariant /
// serve.ErrClosed / serve.ErrUnknownTarget hold across the wire.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server at base, e.g. "http://host:8080" (a bare
// "host:8080" gets the http scheme). The zero http.Client underneath
// has no request timeout — per-call deadlines come from the ctx, which
// must bound slow calls the same way it does in-process. The option
// tail is the one every transport accepts; net/http manages its own
// keep-alive pool, so the pool-size option is ignored.
func NewClient(base string, _ ...serve.ClientOption) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: base, hc: &http.Client{}}
}

// remoteError preserves the server-rendered message while unwrapping
// to the matching in-process sentinel.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// InferSync posts one request frame and decodes the response,
// reconstructing typed errors from non-200 statuses. Like the
// in-process path it returns the Response alongside the first
// per-image execution error, so partial results stay inspectable.
func (c *Client) InferSync(ctx context.Context, req serve.Request) (*serve.Response, error) {
	var body bytes.Buffer
	if err := EncodeRequest(&body, req); err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/infer", &body)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", FrameContentType)
	if req.Tenant != "" {
		// The frame header already carries the tenant; mirror it in the
		// HTTP header so intermediaries can meter and route without
		// parsing frames.
		hreq.Header.Set(TenantHeader, req.Tenant)
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("httpapi: infer round trip: %w", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil, decodeStatusError(hresp)
	}
	resp, err := DecodeResponse(hresp.Body, DefaultMaxBodyBytes/4)
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// Stats fetches the whole-server statistics snapshot.
func (c *Client) Stats(ctx context.Context) (serve.ServerStats, error) {
	var st serve.ServerStats
	return st, c.getJSON(ctx, "/v1/stats", &st)
}

// Models fetches the hosted routing targets.
func (c *Client) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	var ms []serve.ModelInfo
	return ms, c.getJSON(ctx, "/v1/models", &ms)
}

// Session opens a pipelined session over the HTTP transport. HTTP has
// no true pinned connection to offer, so this is the generic adapter:
// the same Send/Recv semantics, each in-flight request riding its own
// keep-alive round trip.
func (c *Client) Session(ctx context.Context) (serve.Session, error) {
	return serve.NewPipelinedSession(ctx, c)
}

// Close releases idle connections. The remote server stays up — a
// client does not own its lifecycle the way LocalClient owns its
// in-process server.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// getJSON performs one GET and decodes the JSON body into dst.
func (c *Client) getJSON(ctx context.Context, path string, dst any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("httpapi: %s round trip: %w", path, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return decodeStatusError(hresp)
	}
	if err := json.NewDecoder(hresp.Body).Decode(dst); err != nil {
		return fmt.Errorf("httpapi: decoding %s: %w", path, err)
	}
	return nil
}

// decodeStatusError rebuilds the typed error a non-200 response
// encodes, via the shared wireError.typedError table. The machine code
// (not the status) selects the error class, with the status as a
// fallback for bodies another layer produced (e.g. a proxy's bare 503).
func decodeStatusError(hresp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(hresp.Body, maxHeaderBytes))
	var we wireError
	_ = json.Unmarshal(body, &we)
	msg := we.Error
	if msg == "" {
		// Not a wireError body (a proxy's bare error page, say): keep
		// the raw text as the message and let the final wrap add the
		// status exactly once.
		msg = string(bytes.TrimSpace(body))
	}
	if msg == "" {
		msg = "no error body"
	}
	if we.Code == "" {
		switch hresp.StatusCode {
		case http.StatusTooManyRequests:
			we.Code = "overloaded"
		case http.StatusServiceUnavailable:
			we.Code = "closed"
		}
	}
	if err := we.typedError(msg, retryAfter(we, hresp)); err != nil {
		return err
	}
	return fmt.Errorf("httpapi: server returned %s: %s", hresp.Status, msg)
}

// retryAfter recovers the overload hint: the millisecond body field
// when present, else the whole-second Retry-After header, floored at
// the same 1ms minimum the in-process admission controller uses.
func retryAfter(we wireError, hresp *http.Response) time.Duration {
	d := time.Duration(we.RetryAfterMS) * time.Millisecond
	if d <= 0 {
		if secs, err := strconv.ParseInt(hresp.Header.Get("Retry-After"), 10, 64); err == nil {
			d = time.Duration(secs) * time.Second
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

var _ serve.Client = (*Client)(nil)
