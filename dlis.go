// Package dlis is the public API of this reproduction of
// "Characterising Across-Stack Optimisations for Deep Convolutional
// Neural Networks" (Turner et al., IISWC 2018): the Deep Learning
// Inference Stack.
//
// The package is a deliberately thin facade over the internal
// implementation packages; everything a downstream user needs — building
// the paper's networks, applying the three compression techniques,
// configuring the five stack layers, executing real inference, and
// projecting execution onto the modelled hardware platforms — is
// reachable from here.
//
// Quick start:
//
//	net, _ := dlis.BuildModel("resnet18", 42)
//	cfg := dlis.StackConfig{
//	    Model: "resnet18", Technique: dlis.ChannelPruned,
//	    Point: dlis.OperatingPoint{CompressionRate: 0.6},
//	    Backend: dlis.OMP, Threads: 4, Platform: "odroid-xu4",
//	}
//	inst, _ := dlis.Instantiate(cfg)
//	seconds := inst.Simulate()       // modelled platform time
//	out := inst.Run(input)           // real host execution
//	mb := inst.MemoryMB()            // runtime footprint
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package dlis

import (
	"io"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/fleetcfg"
	"repro/internal/serve/httpapi"
	"repro/internal/serve/muxwire"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Re-exported stack-configuration types (see internal/core).
type (
	// StackConfig selects one candidate per stack layer.
	StackConfig = core.Config
	// OperatingPoint pins a compression level.
	OperatingPoint = core.OperatingPoint
	// Instance is an instantiated, runnable stack configuration.
	Instance = core.Instance
	// Technique is the compression technique (stack layer 2).
	Technique = core.Technique
	// Backend is the execution substrate (stack layer 4).
	Backend = core.Backend
	// Network is a runnable neural network.
	Network = nn.Network
	// Tensor is the dense NCHW array type.
	Tensor = tensor.Tensor
	// Platform is a modelled hardware target.
	Platform = hw.Platform
)

// Compression techniques, in the paper's legend order.
const (
	Plain         = core.Plain
	WeightPruned  = core.WeightPruned
	ChannelPruned = core.ChannelPruned
	Quantised     = core.Quantised
)

// Execution backends.
const (
	OMP     = core.OMP
	OCL     = core.OCL
	CLBlast = core.CLBlast
)

// BuildModel constructs one of the paper's networks ("vgg16",
// "resnet18", "mobilenet", or a "mini-*" training variant) with
// deterministic initialisation from the seed.
func BuildModel(name string, seed uint64) (*Network, error) {
	return models.ByName(name, tensor.NewRNG(seed|1))
}

// ModelNames lists the full-size model names.
func ModelNames() []string { return models.Names() }

// Instantiate builds a stack configuration (see StackConfig).
func Instantiate(cfg StackConfig) (*Instance, error) { return core.Instantiate(cfg) }

// Platforms returns the two modelled hardware targets of the paper.
func Platforms() []*Platform { return hw.Platforms() }

// PlatformByName resolves "odroid-xu4" or "intel-i7".
func PlatformByName(name string) (*Platform, error) { return hw.ByName(name) }

// NewImage allocates an NCHW input tensor (batch, 3, h, w) filled with
// deterministic noise — convenient for benchmarks and smoke tests.
func NewImage(batch, h, w int, seed uint64) *Tensor {
	t := tensor.New(batch, 3, h, w)
	t.FillNormal(tensor.NewRNG(seed|1), 0, 1)
	return t
}

// TableIII returns the paper's baseline operating points for a model.
func TableIII(model string) (map[Technique]OperatingPoint, error) { return pareto.TableIII(model) }

// TableV returns the paper's fixed-90%-accuracy operating points.
func TableV(model string) (map[Technique]OperatingPoint, error) { return pareto.TableV(model) }

// SyntheticCIFAR generates the deterministic CIFAR-shaped synthetic
// dataset used by the training experiments (see DESIGN.md §2 for the
// substitution rationale).
func SyntheticCIFAR(trainN, testN int, seed uint64) (trainSet, testSet *data.Dataset) {
	cfg := data.DefaultConfig()
	cfg.Train, cfg.Test, cfg.Seed = trainN, testN, seed
	return data.Generate(cfg)
}

// Train runs SGD training of a network on a dataset (also the
// fine-tuning entry point after compression).
func Train(net *Network, trainSet, testSet *data.Dataset, cfg train.Config) train.Result {
	return train.Run(net, trainSet, testSet, cfg)
}

// TrainConfig re-exports the training configuration type.
type TrainConfig = train.Config

// DefaultTrainConfig returns a configuration suited to mini models.
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// Evaluate returns top-1 accuracy of a network on a dataset.
func Evaluate(net *Network, d *data.Dataset, threads int) float64 {
	return train.Evaluate(net, d, threads)
}

// ExperimentIDs lists the table/figure generators ("fig1" ... "ablate").
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact into w. Options zero
// value gives the fast calibrated mode.
func RunExperiment(id string, w io.Writer, opts ExperimentOptions) error {
	return experiments.Run(id, w, opts)
}

// RunAllExperiments regenerates every artifact in order.
func RunAllExperiments(w io.Writer, opts ExperimentOptions) error {
	return experiments.RunAll(w, opts)
}

// ExperimentOptions re-exports the experiment options type.
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions returns the fast calibrated configuration.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Re-exported serving types (see internal/serve and DESIGN.md §6): the
// batched inference server that replicates stack configurations behind
// a dynamic batcher.
type (
	// Server is the batched inference server; construct with NewServer.
	Server = serve.Server
	// ServerConfig configures a Server: the hosted stacks plus the
	// Replicas / MaxBatch / MaxDelay / QueueCap tuning knobs.
	ServerConfig = serve.Config
	// ServerStack names one hosted stack configuration.
	ServerStack = serve.StackSpec
	// ServeResult is the outcome of one single-image request.
	ServeResult = serve.Result
	// ServeStats is a point-in-time pool statistics snapshot
	// (throughput, p50/p99 latency, batch occupancy, queue depth).
	ServeStats = serve.Stats
	// ServeLatencySummary is the latency breakdown inside ServeStats.
	ServeLatencySummary = metrics.LatencySummary
	// SLO is a request's service-level objective for routed endpoints:
	// MinAccuracy (modelled top-1 %), MaxLatency (live estimate bound)
	// and Priority (≥1 may spill to costlier variants under load).
	SLO = serve.SLO
	// ServerEndpoint is one SLO-routed logical endpoint fronting a set
	// of compressed variants of the same model.
	ServerEndpoint = serve.EndpointSpec
	// ServerVariant is one endpoint member: a stack spec plus its
	// modelled accuracy.
	ServerVariant = serve.Variant
	// EndpointStats aggregates an endpoint's routed/shed traffic per
	// variant.
	EndpointStats = serve.EndpointStats
	// VariantStats is one endpoint member's routed-traffic snapshot.
	VariantStats = serve.VariantStats
	// OverloadedError is the typed admission rejection, carrying a
	// RetryAfter hint; match it with errors.Is(err, ErrServerOverloaded).
	OverloadedError = serve.OverloadedError
)

// ErrServerClosed is returned by every submission after Close.
var ErrServerClosed = serve.ErrClosed

// ErrServerOverloaded is the errors.Is sentinel for admission
// rejections: every candidate variant's bounded queue was full, so the
// request was shed instead of blocking unboundedly.
var ErrServerOverloaded = serve.ErrOverloaded

// ErrNoVariant is the errors.Is sentinel for SLOs no hosted variant can
// satisfy even when idle: MinAccuracy above every variant's accuracy,
// or MaxLatency below every candidate's observed batch time. Not
// retryable, unlike ErrServerOverloaded.
var ErrNoVariant = serve.ErrNoVariant

// NewEndpoint builds an SLO-routed endpoint spec over base.Model: one
// variant per technique at its Table III (Pareto-elbow) operating
// point, accuracies from the calibrated Fig. 3 curves. Host it via
// ServerConfig.Endpoints and submit a Request naming it through any
// Client.
func NewEndpoint(name string, base StackConfig, techs ...Technique) ServerEndpoint {
	return serve.Endpoint(name, base, techs...)
}

// NewServer instantiates every configured stack (Replicas independent
// replicas each, see Instance.Replicate) and starts serving. Wrap the
// server in NewLocalClient (or expose it with NewHTTPHandler) and
// submit through the Client interface; Close performs a graceful
// drain. See cmd/dlis-serve for a load-generating client.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// DefaultServerConfig returns the fully resolved serving defaults used
// for zero ServerConfig fields (1 replica, batches of up to 8, a 2ms
// window, queue capacity Replicas × MaxBatch × 4, the default latency
// window) — the value advertises exactly what a zero-configured server
// runs with.
func DefaultServerConfig() ServerConfig { return serve.DefaultConfig() }

// Transport-agnostic client surface (see DESIGN.md §8): one
// Request/Response pair over every transport. Client is satisfied by
// LocalClient (in-process, wrapping a Server), HTTPClient (the same
// types over the httpapi wire format), MuxClient (the DLW2 multiplexed
// session transport) and Cluster, so serving code is written once
// against Client and pointed at any deployment. The former
// Server.Submit / Infer / Route / RouteInfer shims are gone — submit
// through a Client.
type (
	// Client is the transport-agnostic serving API: InferSync with a
	// Request (one or more images), plus Stats, Models, Session and
	// Close. Session is the way to keep many requests in flight. Every
	// call is bounded by its ctx, and Request.Tenant carries identity.
	Client = serve.Client
	// Request is one inference request: Target (pool or endpoint
	// routing name), Images (one or more C×H×W inputs) and an optional
	// SLO. A zero SLO means direct routing, so the old Submit and Route
	// collapse into one call.
	Request = serve.Request
	// Response holds one ServeResult per request image, in order.
	Response = serve.Response
	// ResponseFuture is the pending Response of a Request accepted by
	// Server.Do, the in-process submit path; Wait is idempotent.
	ResponseFuture = serve.ResponseFuture
	// ModelInfo describes one routing target (name, kind, input shape,
	// endpoint variants) as reported by Client.Models.
	ModelInfo = serve.ModelInfo
	// ServerStats is the whole-server snapshot Client.Stats returns:
	// every pool plus every endpoint's per-variant breakdown.
	ServerStats = serve.ServerStats
	// LocalClient is the in-process Client over a Server.
	LocalClient = serve.LocalClient
	// HTTPClient is the remote Client: the same Request/Response types
	// round-tripped over HTTP, with typed errors reconstructed so
	// errors.Is(err, ErrServerOverloaded) etc. hold across the wire.
	HTTPClient = httpapi.Client
	// HTTPHandler exposes a Server over HTTP (/v1/infer, /v1/models,
	// /v1/stats); it is an http.Handler for any mux or server.
	HTTPHandler = httpapi.Handler
	// Session is the streaming half of every Client: Send pipelines
	// requests without awaiting execution, Recv delivers completions in
	// completion (not submission) order, matched by the uint64 id Send
	// returned. Native frames-on-one-connection over MuxClient; an
	// adapter over the other transports.
	Session = serve.Session
	// SessionResult is one Session completion: the id, and either the
	// Response or the request's typed error.
	SessionResult = serve.SessionResult
	// ClientOption is a functional constructor option shared by every
	// client transport (NewLocalClient, NewHTTPClient, NewMuxClient,
	// DialBackend): WithPoolSize.
	ClientOption = serve.ClientOption
	// MuxClient is the remote Client over DLW2 — one persistent TCP
	// connection (a small pool of them) carrying many in-flight
	// requests as interleaved frames — with pipelined submission,
	// reconnect-with-backoff, typed-error reconstruction, and native
	// streaming sessions.
	MuxClient = muxwire.Client
	// MuxListener serves a Server over DLW2; construct with
	// NewMuxListener, run Serve/ListenAndServe, stop with Shutdown
	// (graceful drain) or Close.
	MuxListener = muxwire.Listener
	// MuxListenerConfig tunes a MuxListener (per-session in-flight cap,
	// request body bound); the zero value uses the defaults.
	MuxListenerConfig = muxwire.ListenerConfig
)

// Functional client options, unified across transports. Each transport
// ignores options it has no use for (PoolSize on a LocalClient, say).
//
//	c := dlis.NewMuxClient("backend:18091", dlis.WithPoolSize(4))

// WithPoolSize sizes a connection-pooling transport's pool.
func WithPoolSize(n int) ClientOption { return serve.WithPoolSize(n) }

// DLW2Scheme is the connect-string scheme selecting the mux transport
// ("dlw2://host:port").
const DLW2Scheme = muxwire.Scheme

// NewMuxClient targets a DLW2 listener at addr ("host:port" or
// "dlw2://host:port"). Connections are dialed lazily and redialed with
// backoff; Session opens a dedicated pinned connection for streaming.
func NewMuxClient(addr string, opts ...ClientOption) *MuxClient {
	return muxwire.NewClient(addr, opts...)
}

// NewMuxListener exposes srv over DLW2. The listener does not own the
// server, so it can share one with an HTTPHandler; Shutdown drains
// in-flight sessions gracefully.
func NewMuxListener(srv *Server, cfg MuxListenerConfig) *MuxListener {
	return muxwire.NewListener(srv, cfg)
}

// DialBackend builds the Client for a backend connect string, choosing
// the transport from the address alone: "dlw2://host:port" is a
// MuxClient, and "http://…", "https://…" or a bare "host:port" is an
// HTTPClient (a bare address gets the http scheme). No call probes the
// port. This is the dial cmd/dlis-serve uses for a fleet file's
// load.connect and cluster members.
func DialBackend(addr string, opts ...ClientOption) Client {
	if strings.HasPrefix(addr, DLW2Scheme+"://") {
		return muxwire.NewClient(addr, opts...)
	}
	return httpapi.NewClient(addr, opts...)
}

// ErrUnknownTarget is the errors.Is sentinel for requests naming a
// routing target the server does not host (HTTP 404 over the wire).
var ErrUnknownTarget = serve.ErrUnknownTarget

// Per-tenant serving tier (see internal/serve/tenant and DESIGN.md
// §13): requests carry a tenant identity, the server meters per-tenant
// usage (persisted across restarts), enforces per-tenant quotas, and
// admits queued work through weighted deficit-round-robin fair
// scheduling instead of FIFO.
type (
	// TenantConfig enables the tenant tier on a server: the quota
	// window, the usage-persistence file and cadence, and the declared
	// tenant specs. Wire it via ServerConfig.Tenants.
	TenantConfig = serve.TenantConfig
	// TenantSpec declares one tenant's fair-share weight and budgets.
	TenantSpec = serve.TenantSpec
	// TenantUsage is one tenant's metered usage snapshot (requests,
	// images, sheds, quota rejections, model-seconds).
	TenantUsage = serve.TenantUsage
	// QuotaError is the typed per-tenant admission rejection; match it
	// with errors.Is(err, ErrQuotaExceeded). Distinct from
	// OverloadedError: a spent budget must not be retried on another
	// server, a full queue may be.
	QuotaError = serve.QuotaError
)

// ErrQuotaExceeded is the errors.Is sentinel for per-tenant quota
// rejections. It never matches ErrServerOverloaded: overload is a
// property of one server's queue, quota of the tenant's budget
// everywhere, and the cluster tier relies on the distinction to never
// re-place a quota rejection on another member.
var ErrQuotaExceeded = serve.ErrQuotaExceeded

// NewLocalClient wraps a running server in the transport-agnostic
// Client interface. The client owns the server's shutdown: Close
// drains it gracefully.
func NewLocalClient(srv *Server, opts ...ClientOption) *LocalClient {
	return serve.NewLocalClient(srv, opts...)
}

// NewHTTPClient targets a dlis HTTP server at base (e.g.
// "http://host:8080"); per-call deadlines come from the ctx.
func NewHTTPClient(base string, opts ...ClientOption) *HTTPClient {
	return httpapi.NewClient(base, opts...)
}

// NewHTTPHandler exposes srv over HTTP. maxBodyBytes bounds request
// bodies (0 = the 64 MiB default); the caller owns the listener
// lifecycle. A fleet file with server.listen makes cmd/dlis-serve a
// ready-made server.
func NewHTTPHandler(srv *Server, maxBodyBytes int64) *HTTPHandler {
	return httpapi.NewHandler(srv, maxBodyBytes)
}

// Sharded cluster serving tier (see DESIGN.md §9): a Cluster is a
// Client over a fleet of member backends — any mix of local, HTTP and
// DLW2 mux clients — with a health-checked member table, least-loaded
// (power-of-two-choices) placement, overload retry on the next-best
// member, and transport-failure failover. NewCluster(members) is a
// drop-in replacement for a single server behind the Client interface.
type (
	// Cluster is the fleet-level Client; construct with NewCluster.
	Cluster = cluster.Cluster
	// ClusterMember couples one backend Client with its reporting name.
	ClusterMember = cluster.Member
	// ClusterStats is the fleet snapshot Cluster.Snapshot returns:
	// per-member health, served/shed/failed traffic and ejections, plus
	// cluster-level retry and failover counters.
	ClusterStats = cluster.Stats
	// ClusterMemberStats is one member's entry in ClusterStats.
	ClusterMemberStats = cluster.MemberStats
	// ClusterOption is a functional option for NewCluster:
	// WithProbeInterval.
	ClusterOption = cluster.Option
)

// WithProbeInterval sets the cluster health-probe cadence.
func WithProbeInterval(d time.Duration) ClusterOption { return cluster.WithProbeInterval(d) }

// NewCluster assembles a fleet Client over the members, probing each
// member once; members that are down start ejected and are re-admitted
// automatically when they come up. Health-check tuning rides in the
// options tail.
func NewCluster(members []ClusterMember, opts ...ClusterOption) (*Cluster, error) {
	return cluster.New(members, opts...)
}

// Declarative fleet configuration (see internal/serve/fleetcfg and
// DESIGN.md §10): one JSON file describes a whole serving topology —
// hosted models, SLO-routed endpoints, pool tuning, the server role,
// cluster membership and the load parameters — with strict parsing,
// typed field-path-qualified validation, and one set of defaults. The
// lifecycle is ParseFleetConfig → Validate → Resolve → ServerConfig;
// cmd/dlis-serve -config boots any process role from such a file.
type (
	// FleetConfig is the root of a fleet file.
	FleetConfig = fleetcfg.Config
	// FleetServer is the server section (listen address, memory limit,
	// seed).
	FleetServer = fleetcfg.Server
	// FleetModel declares one stack configuration.
	FleetModel = fleetcfg.Model
	// FleetOperatingPoint pins a compression level in a fleet file.
	FleetOperatingPoint = fleetcfg.OperatingPoint
	// FleetConfigError is one validation failure, locating the
	// offending field by its JSON path; match with errors.As.
	FleetConfigError = fleetcfg.Error
	// FleetMode is the process role a fleet config resolves to.
	FleetMode = fleetcfg.Mode
)

// Fleet process roles, derived by FleetConfig.Mode.
const (
	FleetModeLocal   = fleetcfg.ModeLocal
	FleetModeListen  = fleetcfg.ModeListen
	FleetModeConnect = fleetcfg.ModeConnect
	FleetModeCluster = fleetcfg.ModeCluster
)

// ParseFleetConfig decodes a fleet file strictly (unknown fields and
// malformed durations are rejected); call Validate on the result
// before booting anything from it.
func ParseFleetConfig(data []byte) (*FleetConfig, error) { return fleetcfg.Parse(data) }

// TunerCache is the persistent algorithm-tuner cache: timed
// per-geometry kernel verdicts, durable across process starts on the
// same host (see internal/blas).
type TunerCache = blas.TunerCache

// OpenTunerCache opens (creating if needed) the tuner cache rooted at
// dir. Corrupt or stale cache files read as empty; only an unusable
// directory errors.
func OpenTunerCache(dir string) (*TunerCache, error) { return blas.OpenTunerCache(dir) }

// SetTunerCache installs the disk cache behind plan compilation's
// algorithm tuner; install before constructing servers so boot-time
// plan compiles resolve through it. nil removes it.
func SetTunerCache(c *TunerCache) { nn.SetTunerCache(c) }

// TunerCounters reports how many per-geometry algorithm selections
// were timed fresh, served by the in-process memo, and served by the
// disk cache since process start.
func TunerCounters() (timed, memoHits, diskHits uint64) { return nn.TunerCounters() }
