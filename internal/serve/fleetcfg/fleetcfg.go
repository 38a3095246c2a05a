// Package fleetcfg is the declarative serving topology: one JSON file
// describes everything a dlis-serve process needs to boot — the models
// it hosts (with compression techniques and operating points), the
// SLO-routed endpoints fronting them, the pool tuning (replicas, batch
// geometry, queue caps), the server role (HTTP listen address, memory
// limit, seed), cluster membership for a fleet-fronting load
// generator, and the closed-loop load parameters. The same file format
// therefore boots a backend, an in-process benchmark, or a cluster
// client, which is what makes multi-node topologies reproducible and
// lets CI spin whole fleets from committed fixtures.
//
// The lifecycle is Parse → Validate → Resolve → ServerConfig:
//
//	cfg, err := fleetcfg.Parse(data)   // strict JSON (unknown fields rejected)
//	err = cfg.Validate()               // typed, field-path-qualified errors
//	rcfg := cfg.Resolve()              // every omitted field defaulted
//	scfg, err := rcfg.ServerConfig()   // the serve.Config that boots it
//
// Parse is syntax only; Validate is where every semantic rejection
// lives (duplicate names, unknown kinds or techniques, impossible
// SLOs, bad addresses, queue caps below the batch size, contradictory
// process roles), each reported as an *Error naming the offending
// field by its JSON path so a config error in a 200-line fleet file
// points at the line that caused it. Resolve fills the defaults
// serve.DefaultConfig uses, so an omitted pool field behaves exactly
// like the serving layer's zero value.
package fleetcfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("2ms", "1.5s") instead of nanosecond integers, keeping fleet files
// human-writable. Only string values parse — a bare JSON number is
// ambiguous about its unit and is rejected.
type Duration time.Duration

// UnmarshalJSON parses a quoted Go duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"2ms\", got %s", string(b))
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// String renders the duration as its Go string form.
func (d Duration) String() string { return time.Duration(d).String() }

// Error is one validation failure, locating the offending field by its
// JSON path (e.g. "models[1].kind" or "pool.queueCap"). Validate
// returns the first failure it finds; match the type with errors.As to
// read the path programmatically.
type Error struct {
	// Path is the JSON field path of the offending value.
	Path string
	// Msg explains the rejection.
	Msg string
}

// Error renders "fleetcfg: <path>: <msg>".
func (e *Error) Error() string { return "fleetcfg: " + e.Path + ": " + e.Msg }

// errf builds a path-qualified validation error.
func errf(path, format string, args ...any) *Error {
	return &Error{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Config is the root of a fleet file. Every section is optional in the
// syntax; Validate enforces the combinations that make a bootable
// process (a server needs models or endpoints, a cluster load
// generator needs members and targets, roles must not contradict).
type Config struct {
	// Server configures the serving process itself: listen address
	// (HTTP server role), soft memory limit and deterministic seed.
	Server *Server `json:"server,omitempty"`
	// Cluster turns the process into a fleet-fronting load generator
	// over the member backends; it hosts no models of its own.
	Cluster *Cluster `json:"cluster,omitempty"`
	// Pool is the tuning shared by every hosted pool: replicas, batch
	// geometry and the admission queue cap.
	Pool *Pool `json:"pool,omitempty"`
	// Models declares the stack configurations. A model referenced by
	// an endpoint is that endpoint's base stack description; a model no
	// endpoint references is hosted as a directly addressable pool
	// under its routing name (Name, or "<kind>/<technique>").
	Models []Model `json:"models,omitempty"`
	// Endpoints declares the SLO-routed multi-variant endpoints.
	Endpoints []Endpoint `json:"endpoints,omitempty"`
	// Load configures the closed-loop load generator (in-process,
	// remote via Connect, or cluster modes; meaningless for a pure
	// HTTP server).
	Load *Load `json:"load,omitempty"`
	// Tenants configures per-tenant metering, quotas and weighted fair
	// admission for the hosted pools. Tenancy is enforced where the
	// pools live, so a remote load generator (connect or cluster role)
	// must not declare it — put it in the backend configs.
	Tenants *Tenants `json:"tenants,omitempty"`
}

// Server configures the serving process.
type Server struct {
	// Listen is the HTTP listen address (e.g. ":8080" or
	// "127.0.0.1:18081"). Empty means the process serves no HTTP.
	Listen string `json:"listen,omitempty"`
	// MuxListen is the DLW2 multiplexed-session listen address. A
	// process may listen on both protocols (same server, two doors) or
	// either alone; with neither set it runs the in-process load
	// generator instead.
	MuxListen string `json:"muxListen,omitempty"`
	// MemLimitMB is the soft heap limit in MB; 0 derives it from the
	// replica footprints at boot, -1 disables the limit.
	MemLimitMB int `json:"memLimitMB,omitempty"`
	// Seed drives deterministic weight initialisation and load-generator
	// noise; 0 resolves to 1.
	Seed uint64 `json:"seed,omitempty"`
	// TunerCache is a directory for the persistent algorithm-tuner
	// cache (see blas.TunerCache): timed per-geometry kernel verdicts
	// are loaded from it at boot and saved back after plan compilation,
	// so warm starts skip re-timing. Empty disables persistence.
	TunerCache string `json:"tunerCache,omitempty"`
}

// Cluster configures a fleet-fronting load generator.
type Cluster struct {
	// Members lists the backend addresses. The address picks the
	// transport: "dlw2://host:port" is the DLW2 mux transport;
	// "http://…", "https://…" or a bare "host:port" is HTTP.
	Members []string `json:"members"`
	// ProbeInterval is the health-prober cadence; 0 resolves to the
	// cluster tier's default (250ms).
	ProbeInterval Duration `json:"probeInterval,omitempty"`
}

// Pool is the tuning shared by every hosted pool. The scalar knobs are
// pointers so an explicit zero — always a configuration mistake — is
// distinguishable from an omitted field that takes the default.
type Pool struct {
	// Replicas is the number of workers (and model replicas) per pool;
	// nil resolves to serve.DefaultConfig's 1.
	Replicas *int `json:"replicas,omitempty"`
	// Batch is the dynamic batch size that triggers an immediate
	// flush; nil resolves to 8.
	Batch *int `json:"batch,omitempty"`
	// Delay bounds how long an open batch waits for company; 0
	// resolves to 2ms.
	Delay Duration `json:"delay,omitempty"`
	// QueueCap is the per-pool admission queue capacity; nil derives
	// replicas × batch × 4. It must be at least the batch size, or
	// admission would shed before a single batch could fill.
	QueueCap *int `json:"queueCap,omitempty"`
}

// Model declares one stack configuration.
type Model struct {
	// Name is the identity endpoints reference and — for unreferenced
	// models — the pool routing name clients submit against. Empty
	// resolves to "<kind>/<technique>".
	Name string `json:"name,omitempty"`
	// Kind is the network architecture: "vgg16", "resnet18",
	// "mobilenet" or a "mini-*" training variant.
	Kind string `json:"kind"`
	// Technique is the compression technique ("plain",
	// "weight-pruning", "channel-pruning", "quantisation"); empty
	// resolves to "plain".
	Technique string `json:"technique,omitempty"`
	// Point pins the compression operating point; nil resolves to the
	// paper's Table III point for the technique (required to exist for
	// non-plain pool models).
	Point *OperatingPoint `json:"point,omitempty"`
	// Threads is the engine thread count per worker; 0 resolves to 1.
	Threads int `json:"threads,omitempty"`
	// AutoAlgo compiles plans with per-layer algorithm selection.
	AutoAlgo bool `json:"autoAlgo,omitempty"`
	// Platform is the modelled hardware target; empty resolves to
	// "odroid-xu4".
	Platform string `json:"platform,omitempty"`
}

// OperatingPoint pins a compression level (see core.OperatingPoint —
// exactly one axis is meaningful per technique).
type OperatingPoint struct {
	// Sparsity is the weight-pruning zero fraction.
	Sparsity float64 `json:"sparsity,omitempty"`
	// CompressionRate is the channel-pruning parameter-removal rate.
	CompressionRate float64 `json:"compressionRate,omitempty"`
	// TTQThreshold is the quantisation threshold; TTQSparsity the zero
	// fraction it induces.
	TTQThreshold float64 `json:"ttqThreshold,omitempty"`
	TTQSparsity  float64 `json:"ttqSparsity,omitempty"`
}

// Endpoint declares one SLO-routed endpoint fronting compressed
// variants of a declared model.
type Endpoint struct {
	// Name is the endpoint's routing key.
	Name string `json:"name"`
	// Model references the base Model declaration by name.
	Model string `json:"model"`
	// Variants lists the techniques hosted behind the endpoint.
	Variants []string `json:"variants"`
	// Points selects the operating-point table for the variants:
	// "table3" (the paper's baseline elbows, the default) or "table5"
	// (the fixed-90%-accuracy contour).
	Points string `json:"points,omitempty"`
	// QueueCap overrides the pool queue capacity for this endpoint's
	// variant pools; nil keeps the server-wide value.
	QueueCap *int `json:"queueCap,omitempty"`
}

// Tenants configures the per-tenant tier: usage metering, quota
// enforcement and weighted fair admission (see serve.TenantConfig,
// which this section lowers to verbatim).
type Tenants struct {
	// Window is the quota accounting window; 0 resolves to 1s. Both
	// budgets (requests and model-seconds) refill when it rolls.
	Window Duration `json:"window,omitempty"`
	// SnapshotInterval is the usage-file autosave cadence; 0 resolves
	// to 5s, negative disables periodic saves (the file is still
	// written once on shutdown).
	SnapshotInterval Duration `json:"snapshotInterval,omitempty"`
	// UsageFile is the path of the persistent usage ledger, restored at
	// boot and merged back on save. Empty disables persistence.
	UsageFile string `json:"usageFile,omitempty"`
	// Defs declares the known tenants. Unknown tenants are still served
	// (weight 1, no quota); a declaration is how a tenant gets a
	// fair-share weight or a budget.
	Defs []TenantDef `json:"defs,omitempty"`
}

// TenantDef declares one tenant's weight and budgets.
type TenantDef struct {
	// Name is the tenant identity requests carry; "" is the anonymous
	// default tenant, which may be declared to reweight or cap
	// unattributed traffic.
	Name string `json:"name"`
	// Weight is the deficit-round-robin fair-share weight; 0 resolves
	// to 1.
	Weight int `json:"weight,omitempty"`
	// RequestsPerSec caps admitted requests, accounted per window; 0
	// means unlimited.
	RequestsPerSec float64 `json:"requestsPerSec,omitempty"`
	// ModelSecondsPerWindow caps measured model execution seconds per
	// window; 0 means unlimited.
	ModelSecondsPerWindow float64 `json:"modelSecondsPerWindow,omitempty"`
}

// Load configures the closed-loop load generator.
type Load struct {
	// Connect drives a remote dlis server at this address instead of
	// building one in-process. The address picks the transport:
	// "dlw2://host:port" is DLW2; "http://…", "https://…" or a bare
	// "host:port" is HTTP.
	Connect string `json:"connect,omitempty"`
	// Targets are the routing names to drive. Empty resolves to every
	// hosted pool and endpoint (local mode); remote modes (Connect,
	// Cluster) must name their targets explicitly.
	Targets []string `json:"targets,omitempty"`
	// Clients is the closed-loop client count per target; 0 resolves
	// to 2 × replicas × batch.
	Clients int `json:"clients,omitempty"`
	// Pipeline switches the generator to streaming-session mode: one
	// pipelined session per target keeping this many requests in
	// flight back-to-back (instead of Clients synchronous loops). Best
	// over a dlw2:// connect address, where the session is a native
	// multiplexed connection. 0 keeps the closed loop.
	Pipeline int `json:"pipeline,omitempty"`
	// Requests is the request budget per target; 0 resolves to
	// 4 × replicas × batch, min 64.
	Requests int `json:"requests,omitempty"`
	// SLO is the objective every generated request carries.
	SLO *SLO `json:"slo,omitempty"`
	// Tenants is the synthetic tenant mix the generator offers: clients
	// and request budgets split across the tenants in proportion to
	// weight, and every request carries its tenant's name. It shapes the
	// offered load only; fair-share weights and quotas are the hosting
	// process's tenants section. Empty runs one anonymous tenant.
	Tenants []LoadTenant `json:"tenants,omitempty"`
}

// LoadTenant is one synthetic tenant of the load mix.
type LoadTenant struct {
	// Name is the tenant identity stamped on the tenant's requests.
	Name string `json:"name"`
	// Weight is the tenant's share of the clients and request budget;
	// it must be at least 1.
	Weight int `json:"weight"`
}

// SLO is the request service-level objective (see serve.SLO).
type SLO struct {
	// MinAccuracy is the minimum modelled top-1 accuracy (percent).
	MinAccuracy float64 `json:"minAccuracy,omitempty"`
	// MaxLatency bounds the estimated end-to-end latency.
	MaxLatency Duration `json:"maxLatency,omitempty"`
	// Priority selects the shedding class (≥1 may spill to costlier
	// variants under load).
	Priority int `json:"priority,omitempty"`
}

// Parse decodes a fleet file. Parsing is strict — unknown fields,
// malformed durations and trailing data are rejected — but purely
// syntactic: call Validate on the result before booting anything.
func Parse(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	c := &Config{}
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("fleetcfg: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fleetcfg: trailing data after the config object")
	}
	return c, nil
}
