package serve

// Functional client options, unified across transports.
//
// Every Client constructor — NewLocalClient, httpapi.NewClient and
// muxwire.NewClient — accepts the same variadic ...ClientOption tail,
// so generic code (dlis.DialBackend, say) builds one option slice and
// hands it to whichever constructor the deployment picked:
//
//	muxwire.NewClient(addr, serve.WithPoolSize(4))
//
// Options a transport has no use for are accepted and ignored (a
// LocalClient has no connection pool). Per-call deadlines come from
// the caller's ctx, and tenant identity from Request.Tenant.

// ClientOptions is the resolved option set a constructor builds from
// its variadic tail. Exported so transports outside this package
// (httpapi, muxwire) can resolve and consume the same options.
type ClientOptions struct {
	// PoolSize is the transport connection-pool size, for transports
	// that pool (muxwire). Zero means the transport default.
	PoolSize int
}

// ClientOption mutates ClientOptions; the With* constructors below are
// the public vocabulary.
type ClientOption func(*ClientOptions)

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
	if o.PoolSize < 0 {
		o.PoolSize = 0
	}
	return o
}
