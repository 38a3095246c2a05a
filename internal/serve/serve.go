// Package serve is the batched inference serving subsystem: it turns
// the single-shot stack configurations of internal/core into a
// production-shaped server that accepts concurrent single-image
// requests, coalesces them with a dynamic batcher, and executes the
// batches on a pool of replica workers.
//
// Architecture (one pool per stack configuration):
//
//		Do ──► intake ──► batcher ──► batches ──► worker[0..R-1] ──► futures
//
//	  - Do validates and enqueues a request, returning a ResponseFuture.
//	  - The batcher coalesces queued requests into batches, flushing when
//	    MaxBatch requests have accumulated or MaxDelay has elapsed since
//	    the batch was opened — whichever comes first.
//	  - Each worker owns a private core.Instance replica (isolation that
//	    stays correct if the engine ever reuses per-network scratch —
//	    im2col columns, padding buffers, lazy CSR views — across calls,
//	    and the unit future sharding can move off-process), assembles the
//	    batch into one N×C×H×W tensor, runs a single batched forward
//	    pass, and resolves each request's future with its logit row.
//
// A Server hosts any number of pools side by side ("resnet18 channel
// pruned" next to "mobilenet quantised"), routed by stack name. On top
// of the pools sit SLO-routed endpoints (see router.go): one logical
// name fronts several compressed variants of the same model, each
// request may carry a MinAccuracy / MaxLatency / Priority objective,
// and the router places it on the cheapest variant that satisfies it —
// with bounded, load-shedding admission (ErrOverloaded + RetryAfter)
// instead of unbounded blocking. Close performs a graceful shutdown:
// new submissions are refused, queued requests are drained — including
// a final partial batch — and workers exit only when every accepted
// request has been answered.
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve/tenant"
	"repro/internal/tensor"
)

// ErrClosed is returned by every submission after Close has begun.
var ErrClosed = errors.New("serve: server closed")

// StackSpec names one stack configuration the server should host.
type StackSpec struct {
	// Name is the routing key clients submit against. Empty defaults to
	// "<model>/<technique>" (e.g. "resnet18/channel-pruning").
	Name string
	// Stack is the full five-layer configuration to instantiate.
	Stack core.Config
}

// Key returns the effective routing name clients submit against:
// Name when set, "<model>/<technique>" otherwise.
func (s StackSpec) Key() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Stack.Model + "/" + s.Stack.Technique.String()
}

// Config configures a Server. The zero value of every tuning field is
// replaced by the DefaultConfig value; at least one stack or endpoint
// must be configured.
type Config struct {
	// Stacks lists the stack configurations to host, one pool each.
	Stacks []StackSpec
	// Endpoints lists the SLO-routed multi-variant endpoints to host:
	// each variant gets its own pool (hosted alongside Stacks), and the
	// endpoint name routes across them (a Request with an SLO). Build
	// specs by hand or with Endpoint/EndpointAt.
	Endpoints []EndpointSpec
	// Replicas is the number of workers (and core.Instance replicas)
	// per pool.
	Replicas int
	// MaxBatch is the batch size that triggers an immediate flush.
	MaxBatch int
	// MaxDelay bounds how long an open batch may wait for company; a
	// lone request is never delayed longer than this.
	MaxDelay time.Duration
	// QueueCap is the per-pool request queue capacity. Direct submitters
	// block (or honour their context) when it is full; SLO-routed
	// traffic is admission-controlled against it instead — the
	// inclusive queue depth (channel + open batch) is capped here and
	// overflow sheds with ErrOverloaded. Any value < 1 derives
	// Replicas × MaxBatch × 4 at server construction. DefaultConfig
	// returns the value derived for its own geometry, so after raising
	// Replicas or MaxBatch on a DefaultConfig, set QueueCap back to 0
	// (or your own figure) to re-derive.
	QueueCap int
	// LatencyWindow is the sliding-window size (in samples) behind the
	// latency percentiles and the windowed Throughput figure; 0 uses
	// metrics.DefaultLatencyWindow.
	LatencyWindow int
	// Tenants configures per-tenant metering, quotas and weighted fair
	// admission (see package tenant). Nil meters everything as the
	// anonymous default tenant with no limits — the pre-tenant
	// behaviour.
	Tenants *tenant.Config
}

// DefaultConfig returns the fully resolved serving defaults used for
// zero Config fields: 1 replica, batches of up to 8, a 2ms batching
// window, the derived queue capacity (Replicas × MaxBatch × 4) and the
// default latency window. Every tuning field is non-zero, so printing
// or reusing the value advertises exactly what a zero-configured
// server resolves to — DefaultConfig().withDefaults() is the identity.
// Callers changing Replicas or MaxBatch afterwards should zero
// QueueCap to re-derive it for the new geometry (see Config.QueueCap).
func DefaultConfig() Config {
	c := Config{Replicas: 1, MaxBatch: 8, MaxDelay: 2 * time.Millisecond}
	return c.withDefaults()
}

// withDefaults resolves zero tuning fields to their defaults. The
// derived fields (QueueCap) resolve against the already-resolved base
// fields, so partial configs derive from their own values, not the
// global defaults.
func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueCap < 1 {
		c.QueueCap = c.Replicas * c.MaxBatch * 4
	}
	if c.LatencyWindow < 1 {
		c.LatencyWindow = metrics.DefaultLatencyWindow
	}
	return c
}

// Server routes single-image inference requests to per-stack pools of
// batching replica workers. Construct with New; all methods are safe
// for concurrent use.
type Server struct {
	cfg   Config
	pools map[string]*pool
	names []string // pool names in Config order, for deterministic listings
	meter *tenant.Meter

	endpoints     map[string]*endpoint // SLO routers, keyed by endpoint name
	endpointNames []string             // endpoint names in Config order
	variants      map[string]*variant  // pool name → endpoint variant, for stats folding
}

// New instantiates every configured stack and endpoint variant
// (Replicas independent replicas each) and starts the batcher and
// worker goroutines. It returns an error if nothing is configured, a
// stack fails validation, or two stacks / endpoints share a routing
// name.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Stacks) == 0 && len(cfg.Endpoints) == 0 {
		return nil, errors.New("serve: no stacks or endpoints configured")
	}
	s := &Server{
		cfg:       cfg,
		pools:     make(map[string]*pool, len(cfg.Stacks)),
		endpoints: make(map[string]*endpoint, len(cfg.Endpoints)),
		variants:  make(map[string]*variant),
	}
	// The meter comes up before any pool: every pool's intake asks it
	// for tenant weights and bills model-seconds into it.
	var tcfg tenant.Config
	if cfg.Tenants != nil {
		tcfg = *cfg.Tenants
	}
	meter, err := tenant.NewMeter(tcfg)
	if err != nil {
		return nil, err
	}
	s.meter = meter
	for _, spec := range cfg.Stacks {
		if _, err := s.addPool(spec, cfg); err != nil {
			s.Close()
			return nil, err
		}
	}
	for _, eps := range cfg.Endpoints {
		if eps.Name == "" || len(eps.Variants) == 0 {
			s.Close()
			return nil, fmt.Errorf("serve: endpoint %q needs a name and at least one variant", eps.Name)
		}
		if _, dup := s.endpoints[eps.Name]; dup {
			s.Close()
			return nil, fmt.Errorf("serve: duplicate endpoint name %q", eps.Name)
		}
		// A per-endpoint QueueCap bounds this endpoint's variant pools
		// without touching the rest of the server.
		pcfg := cfg
		if eps.QueueCap >= 1 {
			pcfg.QueueCap = eps.QueueCap
		}
		var vars []*variant
		for _, vs := range eps.Variants {
			p, err := s.addPool(vs.Spec, pcfg)
			if err != nil {
				s.Close()
				return nil, err
			}
			v := &variant{name: vs.Spec.Key(), accuracy: vs.Accuracy, pool: p}
			s.variants[v.name] = v
			vars = append(vars, v)
		}
		s.endpoints[eps.Name] = newEndpoint(eps, vars)
		s.endpointNames = append(s.endpointNames, eps.Name)
	}
	for name := range s.endpoints {
		if _, clash := s.pools[name]; clash {
			s.Close()
			return nil, fmt.Errorf("serve: endpoint name %q collides with a pool name", name)
		}
	}
	return s, nil
}

// addPool instantiates and registers one pool under its routing key,
// tuned by cfg (the server config, possibly with a per-endpoint
// QueueCap override).
func (s *Server) addPool(spec StackSpec, cfg Config) (*pool, error) {
	name := spec.Key()
	if _, dup := s.pools[name]; dup {
		return nil, fmt.Errorf("serve: duplicate stack name %q", name)
	}
	p, err := newPool(name, spec.Stack, cfg, s.meter)
	if err != nil {
		return nil, fmt.Errorf("serve: stack %q: %w", name, err)
	}
	s.pools[name] = p
	s.names = append(s.names, name)
	return p, nil
}

// InputShape returns the per-image C×H×W input shape a hosted pool or
// endpoint expects (an endpoint's variants all share their model's
// shape), so clients can size images without rebuilding the model.
func (s *Server) InputShape(name string) (tensor.Shape, error) {
	if p, ok := s.pools[name]; ok {
		return p.chw.Clone(), nil
	}
	if ep, ok := s.endpoints[name]; ok {
		return ep.variants[0].pool.chw.Clone(), nil
	}
	return nil, fmt.Errorf("serve: unknown stack or endpoint %q", name)
}

// Close gracefully shuts the server down: it refuses new submissions,
// flushes and executes every request already accepted (including a
// final partial batch per pool), stops the tenant meter (persisting a
// final usage snapshot when a usage file is configured), and returns
// once all workers have exited. Close is idempotent.
func (s *Server) Close() {
	for _, name := range s.names {
		s.pools[name].close()
	}
	if s.meter != nil {
		s.meter.Close() // best effort: a failed usage save must not block shutdown
	}
}
