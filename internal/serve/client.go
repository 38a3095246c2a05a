package serve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/serve/tenant"
	"repro/internal/tensor"
)

// Transport-agnostic client surface.
//
// The four historical entry points (Submit / Infer / Route /
// RouteInfer) were in-process methods with positional arguments — fine
// for a library, unusable over a wire. They are gone now; the client
// side of the serving subsystem is one Request/Response pair and a
// Client interface with four implementations: LocalClient (this file,
// a direct wrapper over Server), httpapi.Client (the same types
// round-tripped over HTTP/DLW1), muxwire.Client (pipelined over
// persistent DLW2 connections), and cluster.Cluster (placement over N
// of any of those). Everything a caller can say is in the Request
// value, so adding a transport never changes the API again. Each
// client has one submit path, InferSync; a caller that wants many
// requests in flight opens a Session:
//
//	Request{Target, Images, SLO} ──► Client.InferSync ──► Response{Results}
//	                             └─► Session.Send … Session.Recv ──► SessionResult{ID, Resp}
//
// Target is any hosted routing name — a pool ("resnet18/plain") or an
// SLO-routed endpoint ("resnet18"). A zero SLO on a pool target is the
// old blocking Submit; any SLO on an endpoint target is the old Route;
// a non-zero SLO on a pool target gets bounded admission against that
// single pool. One call subsumes all four legacy methods.

// ErrUnknownTarget is the errors.Is sentinel for requests naming a
// routing target the server does not host. Transports map it to their
// not-found shape (HTTP 404) and reconstruct it client-side.
var ErrUnknownTarget = errors.New("serve: unknown target")

// Request is one transport-agnostic inference request.
type Request struct {
	// Target is the routing name: a hosted pool or endpoint.
	Target string
	// Images holds one or more C×H×W (or 1×C×H×W) input images. A
	// multi-image request is enqueued as one burst so the batcher can
	// coalesce it into as few forward passes as MaxBatch allows, and —
	// on an endpoint target — is routed as one unit to one variant.
	Images []*tensor.Tensor
	// SLO is the request's objective. The zero value means direct
	// routing: a pool target enqueues blockingly (the old Submit), an
	// endpoint target rides its cheapest variant. A non-zero SLO gets
	// SLO routing on endpoints and bounded admission on pools.
	SLO SLO
	// Tenant identifies who this request is billed to and fair-queued
	// as: at most tenant.MaxIDLen bytes, no control characters, empty
	// for the anonymous default tenant. Every transport carries it
	// verbatim (the DLW1 header over HTTP), the meter charges usage to
	// it, quotas reject against it, and the pools' weighted intake
	// schedules by its configured weight.
	Tenant string
}

// Response is the outcome of one Request: one Result per image, in
// request order.
type Response struct {
	Results []Result
}

// First returns the first result — the whole result for the common
// single-image request. It returns the zero Result for an empty
// response.
func (r *Response) First() Result {
	if len(r.Results) == 0 {
		return Result{}
	}
	return r.Results[0]
}

// Err returns the first per-image execution error in the response, nil
// when every image was answered successfully.
func (r *Response) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// ResponseFuture is the pending Response of a Request that Server.Do
// accepted: the per-image futures coalescing in the batcher. It
// resolves once and stays resolved: Wait is idempotent.
type ResponseFuture struct {
	futs []*future
}

// Wait blocks until every image in the request has resolved or ctx is
// done. On success the Response holds one Result per image in request
// order; the returned error is then the first per-image execution
// error (nil when all succeeded), mirroring InferSync — the Response
// stays non-nil either way so callers can inspect the surviving
// results. A ctx abort returns (nil, ctx.Err()) without cancelling the
// accepted request; Wait may be called again.
func (rf *ResponseFuture) Wait(ctx context.Context) (*Response, error) {
	resp := &Response{Results: make([]Result, len(rf.futs))}
	for i, f := range rf.futs {
		// Per-image failures surface through Result.Err, not the Wait
		// error: keep aggregating so the response is complete.
		r, err := f.wait(ctx)
		if err != nil && r.Err == nil {
			return nil, err // ctx abort
		}
		resp.Results[i] = r
	}
	return resp, resp.Err()
}

// ModelInfo describes one routing target a server hosts, as reported
// by Client.Models — enough for a remote caller to size inputs and
// pick targets without any local model code.
type ModelInfo struct {
	// Name is the routing key requests target.
	Name string `json:"name"`
	// Kind is "stack" for a directly addressed pool, "endpoint" for an
	// SLO-routed multi-variant endpoint.
	Kind string `json:"kind"`
	// InputShape is the per-image C×H×W shape the target expects.
	InputShape []int `json:"input_shape"`
	// Technique is the pool's compression technique (stacks only).
	Technique string `json:"technique,omitempty"`
	// Variants lists the variant pool names behind an endpoint,
	// cheapest first (endpoints only).
	Variants []string `json:"variants,omitempty"`
}

// ServerStats is the whole-server statistics snapshot Client.Stats
// returns: every pool keyed by routing name, and every endpoint's
// per-variant routed/shed breakdown.
type ServerStats struct {
	Pools     map[string]Stats         `json:"pools"`
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
	// Tenants is the per-tenant usage breakdown (requests, images,
	// shed/quota rejections, model-seconds), keyed by tenant ID with ""
	// as the anonymous default; omitted when no tenant has any usage.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`
}

// Client is the transport-agnostic serving API: the same interface is
// satisfied in-process (LocalClient), over HTTP (httpapi.Client), over
// DLW2 (muxwire.Client) and by a fleet (cluster.Cluster), so callers —
// including the dlis-serve load generator — are written once and
// pointed at any of them. A multi-image request is one Request with
// several Images.
type Client interface {
	// InferSync submits one Request and waits for its Response. The
	// Response carries one Result per image; the error is the typed
	// submission failure (unknown target, shape mismatch, admission
	// rejection, transport loss) or the first per-image execution
	// error, with the Response still non-nil in the latter case.
	InferSync(ctx context.Context, req Request) (*Response, error)
	// Stats snapshots the server's serving statistics.
	Stats(ctx context.Context) (ServerStats, error)
	// Models lists the hosted routing targets.
	Models(ctx context.Context) ([]ModelInfo, error)
	// Session opens a streaming session pinned to this client: Send
	// pipelines requests without awaiting, Recv collects outcomes in
	// completion order. muxwire pins a dedicated connection; other
	// transports adapt via NewPipelinedSession with identical
	// semantics.
	Session(ctx context.Context) (Session, error)
	// Close releases the client; LocalClient shuts its server down.
	Close() error
}

// Do is the server-side submission path behind every Client: it
// resolves the target, applies SLO routing or direct enqueueing, and
// fans a multi-image request out to per-image futures coalescing in
// the batcher. LocalClient and the HTTP and DLW2 handlers all call it;
// submit-time errors are returned here, execution outcomes at Wait.
func (s *Server) Do(ctx context.Context, req Request) (*ResponseFuture, error) {
	futs, err := s.submitRequest(ctx, req)
	if err != nil {
		return nil, err
	}
	return &ResponseFuture{futs: futs}, nil
}

// submitRequest validates and places one Request, returning the
// per-image futures. Tenant identity is resolved here, once, for every
// transport: the ID is validated, the quota gate runs before any
// placement work, and admission outcomes (admitted images, overload
// sheds) are recorded against the tenant.
func (s *Server) submitRequest(ctx context.Context, req Request) ([]*future, error) {
	if err := tenant.ValidateID(req.Tenant); err != nil {
		return nil, err
	}
	if len(req.Images) == 0 {
		return nil, fmt.Errorf("serve: request for %q carries no images", req.Target)
	}
	if err := s.meter.Admit(req.Tenant); err != nil {
		return nil, err
	}
	futs, err := s.placeRequest(ctx, req)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.meter.RecordShed(req.Tenant)
		}
		return nil, err
	}
	s.meter.RecordAdmitted(req.Tenant, len(req.Images))
	return futs, nil
}

// placeRequest routes one quota-admitted Request onto a pool or
// endpoint.
func (s *Server) placeRequest(ctx context.Context, req Request) ([]*future, error) {
	if ep, ok := s.endpoints[req.Target]; ok {
		return ep.routeMany(req.Tenant, req.Images, req.SLO)
	}
	p, ok := s.pools[req.Target]
	if !ok {
		return nil, fmt.Errorf("%w: %q (hosted: %v %v)", ErrUnknownTarget, req.Target, s.names, s.endpointNames)
	}
	if req.SLO == (SLO{}) {
		return p.submitMany(ctx, req.Tenant, req.Images)
	}
	// A non-zero SLO on a direct pool target means bounded admission on
	// that single pool. MinAccuracy needs the router's per-variant curve
	// data, so it requires an endpoint target.
	if req.SLO.MinAccuracy > 0 {
		return nil, fmt.Errorf("serve: target %q is a pool; SLO.MinAccuracy requires an endpoint target", req.Target)
	}
	if req.SLO.MaxLatency > 0 {
		if est, ok := p.estimatedLatency(len(req.Images)); ok && est > req.SLO.MaxLatency {
			if p.meanBatchTime() > req.SLO.MaxLatency {
				return nil, fmt.Errorf("%w: pool %q cannot execute a batch within %v",
					ErrNoVariant, req.Target, req.SLO.MaxLatency)
			}
			return nil, p.overloaded() // floors the RetryAfter hint
		}
	}
	return p.trySubmitMany(req.Tenant, req.Images)
}

// Models lists every hosted routing target: endpoints first (the names
// clients are meant to use), then the pools — including the variant
// pools behind each endpoint, which stay individually addressable.
func (s *Server) Models() []ModelInfo {
	out := make([]ModelInfo, 0, len(s.endpointNames)+len(s.names))
	for _, name := range s.endpointNames {
		ep := s.endpoints[name]
		info := ModelInfo{
			Name:       name,
			Kind:       "endpoint",
			InputShape: ep.variants[0].pool.chw.Clone(),
		}
		for _, v := range ep.variants {
			info.Variants = append(info.Variants, v.name)
		}
		out = append(out, info)
	}
	for _, name := range s.names {
		p := s.pools[name]
		out = append(out, ModelInfo{
			Name:       name,
			Kind:       "stack",
			InputShape: p.chw.Clone(),
			Technique:  p.insts[0].Config.Technique.String(),
		})
	}
	return out
}

// Snapshot assembles the whole-server statistics view Client.Stats
// serves: every pool keyed by routing name (pools backing endpoint
// variants carry their routed/shed counters), every endpoint's
// per-variant breakdown, and the per-tenant usage.
func (s *Server) Snapshot() ServerStats {
	st := ServerStats{Pools: make(map[string]Stats, len(s.pools))}
	for name, p := range s.pools {
		if v, ok := s.variants[name]; ok {
			st.Pools[name] = v.stats().Pool
			continue
		}
		st.Pools[name] = p.snapshot()
	}
	if len(s.endpointNames) > 0 {
		st.Endpoints = make(map[string]EndpointStats, len(s.endpointNames))
		for _, name := range s.endpointNames {
			st.Endpoints[name] = s.endpoints[name].snapshot()
		}
	}
	if t := s.meter.Snapshot(); len(t) > 0 {
		st.Tenants = t
	}
	return st
}

// LocalClient is the in-process Client: a thin wrapper that gives a
// *Server the same surface remote transports present, so code written
// against Client runs unchanged in either deployment.
type LocalClient struct {
	srv *Server
}

// NewLocalClient wraps a running server. The client assumes ownership
// for Close: closing the client gracefully drains the server. The
// option tail is the one every transport accepts; a LocalClient has no
// connection to pool, so it ignores the options.
func NewLocalClient(srv *Server, _ ...ClientOption) *LocalClient {
	return &LocalClient{srv: srv}
}

// Server exposes the wrapped server, for callers that need
// local-only facilities (InputShape, TenantUsageSnapshot) next to the
// portable interface.
func (c *LocalClient) Server() *Server { return c.srv }

// InferSync submits the request on the in-process path and waits for
// it, bounded by ctx.
func (c *LocalClient) InferSync(ctx context.Context, req Request) (*Response, error) {
	rf, err := c.srv.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	return rf.Wait(ctx)
}

// Stats snapshots the wrapped server.
func (c *LocalClient) Stats(ctx context.Context) (ServerStats, error) {
	return c.srv.Snapshot(), nil
}

// Models lists the wrapped server's routing targets.
func (c *LocalClient) Models(ctx context.Context) ([]ModelInfo, error) {
	return c.srv.Models(), nil
}

// Session opens an in-process pipelined session.
func (c *LocalClient) Session(ctx context.Context) (Session, error) {
	return NewPipelinedSession(ctx, c)
}

// Close gracefully drains and shuts down the wrapped server.
func (c *LocalClient) Close() error {
	c.srv.Close()
	return nil
}

var _ Client = (*LocalClient)(nil)
