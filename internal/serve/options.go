package serve

import (
	"context"
	"time"
)

// Functional client options, unified across transports.
//
// Every Client constructor — NewLocalClient, httpapi.NewClient,
// muxwire.NewClient, and the cluster's option form — accepts the same
// variadic ...ClientOption tail, so call sites configure any transport
// with one vocabulary:
//
//	httpapi.NewClient(addr, serve.WithTimeout(2*time.Second), serve.WithTenant("t0"))
//	muxwire.NewClient(addr, serve.WithPoolSize(4))
//
// Options a transport has no use for are accepted and ignored (a
// LocalClient has no connection pool), which keeps generic code that
// builds an option slice once and hands it to whichever constructor the
// deployment picked.

// ClientOptions is the resolved option set a constructor builds from
// its variadic tail. Exported so transports outside this package
// (httpapi, muxwire) can resolve and consume the same options.
type ClientOptions struct {
	// Timeout bounds each call (InferSync, Stats, Models, and each
	// request a pipelined Session sends) when the caller's ctx has no
	// earlier deadline. Zero means no client-imposed deadline.
	Timeout time.Duration
	// Tenant is stamped onto every outgoing Request whose Tenant field
	// is empty, so per-tenant deployments configure identity once at
	// construction instead of on every call.
	Tenant string
	// PoolSize is the transport connection-pool size, for transports
	// that pool (muxwire). Zero means the transport default.
	PoolSize int
}

// ClientOption mutates ClientOptions; the With* constructors below are
// the public vocabulary.
type ClientOption func(*ClientOptions)

// WithTimeout bounds each synchronous call when the caller's context
// has no earlier deadline. d <= 0 disables the client-imposed bound.
func WithTimeout(d time.Duration) ClientOption {
	return func(o *ClientOptions) { o.Timeout = d }
}

// WithTenant stamps id onto every outgoing Request that does not carry
// its own tenant.
func WithTenant(id string) ClientOption {
	return func(o *ClientOptions) { o.Tenant = id }
}

// WithPoolSize sets the connection-pool size on pooling transports.
// n <= 0 keeps the transport default.
func WithPoolSize(n int) ClientOption {
	return func(o *ClientOptions) { o.PoolSize = n }
}

// BuildClientOptions resolves a variadic option tail into the concrete
// set.
func BuildClientOptions(opts ...ClientOption) ClientOptions {
	var o ClientOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.PoolSize < 0 {
		o.PoolSize = 0
	}
	return o
}

// Stamp applies the configured default tenant to a request that does
// not carry one.
func (o ClientOptions) Stamp(req Request) Request {
	if req.Tenant == "" && o.Tenant != "" {
		req.Tenant = o.Tenant
	}
	return req
}

// Deadline applies the configured Timeout to ctx unless the caller
// already set an earlier deadline. The returned cancel must be called
// (it is a no-op when no deadline was added).
func (o ClientOptions) Deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout <= 0 {
		return ctx, func() {}
	}
	if d, ok := ctx.Deadline(); ok && time.Until(d) <= o.Timeout {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, o.Timeout)
}
