package fleetcfg

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/serve"
)

// Mode is the process role a config resolves to. Exactly one role per
// file: contradictory combinations (listen + connect, cluster +
// hosted models, ...) are validation errors, never silent precedence.
type Mode int

const (
	// ModeLocal boots an in-process server and drives it with the
	// closed-loop load generator.
	ModeLocal Mode = iota
	// ModeListen serves the hosted stacks over HTTP and/or DLW2 until
	// drained.
	ModeListen
	// ModeConnect generates load against one remote server (HTTP or
	// DLW2, per the connect address's scheme).
	ModeConnect
	// ModeCluster generates load against a fleet of backends through
	// one cluster client.
	ModeCluster
)

// String names the mode as the topology report prints it.
func (m Mode) String() string {
	switch m {
	case ModeListen:
		return "server"
	case ModeConnect:
		return "remote load generator"
	case ModeCluster:
		return "cluster load generator"
	default:
		return "local serve + load generator"
	}
}

// Mode derives the process role from which sections are present. This
// is the single place a fleet file resolves to a role; the
// contradictions Validate rejects make the derivation order here
// unambiguous (a valid config matches at most one arm).
func (c *Config) Mode() Mode {
	switch {
	case c.Cluster != nil:
		return ModeCluster
	case c.Load != nil && c.Load.Connect != "":
		return ModeConnect
	case c.Server != nil && (c.Server.Listen != "" || c.Server.MuxListen != ""):
		return ModeListen
	default:
		return ModeLocal
	}
}

// ParseTechnique maps the config/CLI spelling of a compression
// technique to the stack-layer-2 constant.
func ParseTechnique(s string) (core.Technique, error) {
	switch strings.ToLower(s) {
	case "plain", "none", "":
		return core.Plain, nil
	case "weight-pruning", "weight", "wp":
		return core.WeightPruned, nil
	case "channel-pruning", "channel", "cp":
		return core.ChannelPruned, nil
	case "quantisation", "quantization", "ttq", "quant":
		return core.Quantised, nil
	default:
		return core.Plain, fmt.Errorf("unknown technique %q (want plain, weight-pruning, channel-pruning or quantisation)", s)
	}
}

// routingName is the effective pool routing name of a model
// declaration: Name when set, "<kind>/<technique>" otherwise (the
// same default serve.StackSpec.Key derives).
func (m *Model) routingName() string {
	if m.Name != "" {
		return m.Name
	}
	t, err := ParseTechnique(m.Technique)
	if err != nil {
		return m.Kind + "/" + m.Technique // rejected elsewhere; keep paths stable
	}
	return m.Kind + "/" + t.String()
}

// referenced returns the set of model names endpoints use as base
// stacks — those models describe variants rather than hosting a pool
// of their own.
func (c *Config) referenced() map[string]bool {
	ref := make(map[string]bool, len(c.Endpoints))
	for _, e := range c.Endpoints {
		ref[e.Model] = true
	}
	return ref
}

// effectiveBatch is the batch size cross-field checks compare against,
// resolved the same way Resolve would.
func (c *Config) effectiveBatch() int {
	if c.Pool != nil && c.Pool.Batch != nil {
		return *c.Pool.Batch
	}
	return defaultTuning().MaxBatch
}

// checkConnectAddr validates a backend connect string: an optional
// transport scheme ("dlw2://" or "http://" / "https://"; none means
// HTTP) followed by a host:port with an explicit host. Any other
// scheme is rejected by name rather than as a malformed host:port.
func checkConnectAddr(addr string) error {
	rest := addr
	if i := strings.Index(addr, "://"); i >= 0 {
		switch scheme := addr[:i]; scheme {
		case "dlw2", "http", "https":
			rest = addr[i+3:]
		default:
			return fmt.Errorf("unknown scheme %q in %q (want dlw2, http or https, or a bare host:port (HTTP))", scheme, addr)
		}
	}
	return checkHostPort(rest, true)
}

// checkHostPort validates a "host:port" (or ":port" when needHost is
// false) address with a numeric port in 1..65535.
func checkHostPort(addr string, needHost bool) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad address %q (want host:port)", addr)
	}
	if needHost && host == "" {
		return fmt.Errorf("bad address %q: member addresses need an explicit host", addr)
	}
	n, err := strconv.Atoi(port)
	if err != nil || n < 1 || n > 65535 {
		return fmt.Errorf("bad port %q in %q (want 1..65535)", port, addr)
	}
	return nil
}

// Validate checks the whole tree and returns the first failure as an
// *Error naming the offending field path. It accepts both raw and
// Resolved configs: explicit values are judged as written, omitted
// ones by the default they will resolve to. Validate never
// instantiates a network, so it is cheap enough for every boot.
func (c *Config) Validate() error {
	if err := c.validateRoles(); err != nil {
		return err
	}
	if err := c.validateServer(); err != nil {
		return err
	}
	if err := c.validatePool(); err != nil {
		return err
	}
	if err := c.validateModels(); err != nil {
		return err
	}
	if err := c.validateEndpoints(); err != nil {
		return err
	}
	if err := c.validateCluster(); err != nil {
		return err
	}
	if err := c.validateLoad(); err != nil {
		return err
	}
	return c.validateTenants()
}

// validateRoles rejects contradictory process roles: a file that asks
// for two roles at once is an error, never a silent pick of one.
func (c *Config) validateRoles() error {
	listen := c.Server != nil && (c.Server.Listen != "" || c.Server.MuxListen != "")
	connect := c.Load != nil && c.Load.Connect != ""
	switch {
	case c.Cluster != nil && listen:
		return errf("server.listen", "conflicts with cluster.members: a process is either a serving backend or a cluster load generator")
	case c.Cluster != nil && connect:
		return errf("load.connect", "conflicts with cluster.members: drive one remote server or a fleet, not both")
	case listen && connect:
		return errf("load.connect", "conflicts with server.listen: a process either serves or generates remote load")
	}
	remote := c.Cluster != nil || connect
	if remote {
		if len(c.Models) > 0 {
			return errf("models", "a remote load generator hosts no models; declare them in the backend configs")
		}
		if len(c.Endpoints) > 0 {
			return errf("endpoints", "a remote load generator hosts no endpoints; declare them in the backend configs")
		}
		if c.Load == nil || len(c.Load.Targets) == 0 {
			return errf("load.targets", "remote load generation needs explicit targets (the remote routing names)")
		}
	} else {
		if len(c.Models) == 0 && len(c.Endpoints) == 0 {
			return errf("models", "at least one model or endpoint is required to serve")
		}
		if listen && c.Load != nil {
			return errf("load", "meaningless with server.listen: an HTTP server only serves (put load in the generator's config)")
		}
	}
	return nil
}

func (c *Config) validateServer() error {
	if c.Server == nil {
		return nil
	}
	if c.Server.Listen != "" {
		if err := checkHostPort(c.Server.Listen, false); err != nil {
			return errf("server.listen", "%v", err)
		}
	}
	if c.Server.MuxListen != "" {
		if err := checkHostPort(c.Server.MuxListen, false); err != nil {
			return errf("server.muxListen", "%v", err)
		}
		if c.Server.MuxListen == c.Server.Listen {
			return errf("server.muxListen", "equals server.listen %q: the two protocols need distinct ports", c.Server.Listen)
		}
	}
	if c.Server.MemLimitMB < -1 {
		return errf("server.memLimitMB", "%d must be ≥ -1 (-1 disables, 0 derives from the replica footprints)", c.Server.MemLimitMB)
	}
	return nil
}

func (c *Config) validatePool() error {
	p := c.Pool
	if p == nil {
		return nil
	}
	if p.Replicas != nil && *p.Replicas < 1 {
		return errf("pool.replicas", "%d must be ≥ 1", *p.Replicas)
	}
	if p.Batch != nil && *p.Batch < 1 {
		return errf("pool.batch", "%d must be ≥ 1", *p.Batch)
	}
	if p.Delay < 0 {
		return errf("pool.delay", "%v must not be negative", p.Delay)
	}
	if p.QueueCap != nil {
		if *p.QueueCap < 1 {
			return errf("pool.queueCap", "%d must be ≥ 1", *p.QueueCap)
		}
		if b := c.effectiveBatch(); *p.QueueCap < b {
			return errf("pool.queueCap", "%d is below the batch size %d: admission would shed before a single batch could fill", *p.QueueCap, b)
		}
	}
	return nil
}

func (c *Config) validateModels() error {
	seen := make(map[string]int, len(c.Models))
	ref := c.referenced()
	for i, m := range c.Models {
		path := fmt.Sprintf("models[%d]", i)
		if m.Kind == "" {
			return errf(path+".kind", "required")
		}
		if !models.Known(m.Kind) {
			return errf(path+".kind", "unknown model kind %q (known: %v)", m.Kind, models.Kinds())
		}
		tech, err := ParseTechnique(m.Technique)
		if err != nil {
			return errf(path+".technique", "%v", err)
		}
		name := m.routingName()
		if j, dup := seen[name]; dup {
			return errf(path+".name", "duplicate model name %q (also models[%d])", name, j)
		}
		seen[name] = i
		if m.Threads < 0 {
			return errf(path+".threads", "%d must not be negative", m.Threads)
		}
		platform := m.Platform
		if platform == "" {
			platform = defaultPlatform
		}
		plat, err := hw.ByName(platform)
		if err != nil {
			return errf(path+".platform", "%v", err)
		}
		if m.Threads > plat.CPU.MaxThreads {
			return errf(path+".threads", "platform %s supports at most %d threads, got %d", platform, plat.CPU.MaxThreads, m.Threads)
		}
		if err := m.Point.validate(); err != nil {
			return errf(path+".point."+err.Path, "%s", err.Msg)
		}
		// A pool model (no endpoint references it) running a non-plain
		// technique needs an operating point: explicit, or the paper's
		// Table III elbow for its kind.
		if !ref[m.Name] && tech != core.Plain && m.Point == nil {
			if _, err := pareto.TableIII(m.Kind); err != nil {
				return errf(path+".point", "model kind %q has no Table III operating point for %s; set an explicit point", m.Kind, tech)
			}
		}
	}
	return nil
}

// validate checks an operating point's axes are fractions where they
// must be. The returned *Error carries the sub-field as its path.
func (p *OperatingPoint) validate() *Error {
	if p == nil {
		return nil
	}
	if p.Sparsity < 0 || p.Sparsity >= 1 {
		return errf("sparsity", "%v must be in [0, 1)", p.Sparsity)
	}
	if p.CompressionRate < 0 || p.CompressionRate >= 1 {
		return errf("compressionRate", "%v must be in [0, 1)", p.CompressionRate)
	}
	if p.TTQThreshold < 0 {
		return errf("ttqThreshold", "%v must not be negative", p.TTQThreshold)
	}
	if p.TTQSparsity < 0 || p.TTQSparsity >= 1 {
		return errf("ttqSparsity", "%v must be in [0, 1)", p.TTQSparsity)
	}
	return nil
}

func (c *Config) validateEndpoints() error {
	modelByName := make(map[string]*Model, len(c.Models))
	var declared []string
	for i := range c.Models {
		modelByName[c.Models[i].Name] = &c.Models[i]
		if c.Models[i].Name != "" {
			declared = append(declared, c.Models[i].Name)
		}
	}
	pools := make(map[string]bool, len(c.Models))
	ref := c.referenced()
	for i := range c.Models {
		if !ref[c.Models[i].Name] {
			pools[c.Models[i].routingName()] = true
		}
	}
	seen := make(map[string]int, len(c.Endpoints))
	for i, e := range c.Endpoints {
		path := fmt.Sprintf("endpoints[%d]", i)
		if e.Name == "" {
			return errf(path+".name", "required")
		}
		if j, dup := seen[e.Name]; dup {
			return errf(path+".name", "duplicate endpoint name %q (also endpoints[%d])", e.Name, j)
		}
		seen[e.Name] = i
		if pools[e.Name] {
			return errf(path+".name", "endpoint name %q collides with a hosted pool routing name", e.Name)
		}
		m, ok := modelByName[e.Model]
		if e.Model == "" || !ok {
			return errf(path+".model", "unknown model %q (declared: %v)", e.Model, declared)
		}
		if len(e.Variants) == 0 {
			return errf(path+".variants", "an endpoint needs at least one variant technique")
		}
		vseen := map[core.Technique]int{}
		for j, v := range e.Variants {
			t, err := ParseTechnique(v)
			if err != nil {
				return errf(fmt.Sprintf("%s.variants[%d]", path, j), "%v", err)
			}
			if k, dup := vseen[t]; dup {
				return errf(fmt.Sprintf("%s.variants[%d]", path, j), "duplicate variant %q (also variants[%d])", t, k)
			}
			vseen[t] = j
		}
		switch e.Points {
		case "", "table3":
			// Table III points are tolerant of uncurved kinds: mini-model
			// endpoints run at zero points with the plain-fallback router.
		case "table5":
			if _, err := pareto.TableV(m.Kind); err != nil {
				return errf(path+".points", "model kind %q has no Table V operating points: %v", m.Kind, err)
			}
		default:
			return errf(path+".points", "unknown table %q (want table3 or table5)", e.Points)
		}
		if e.QueueCap != nil {
			if *e.QueueCap < 1 {
				return errf(path+".queueCap", "%d must be ≥ 1", *e.QueueCap)
			}
			if b := c.effectiveBatch(); *e.QueueCap < b {
				return errf(path+".queueCap", "%d is below the batch size %d: admission would shed before a single batch could fill", *e.QueueCap, b)
			}
		}
	}
	return nil
}

func (c *Config) validateCluster() error {
	cl := c.Cluster
	if cl == nil {
		return nil
	}
	if len(cl.Members) == 0 {
		return errf("cluster.members", "a cluster needs at least one member address")
	}
	seen := make(map[string]int, len(cl.Members))
	for i, m := range cl.Members {
		path := fmt.Sprintf("cluster.members[%d]", i)
		if err := checkConnectAddr(m); err != nil {
			return errf(path, "%v", err)
		}
		if j, dup := seen[m]; dup {
			return errf(path, "duplicate member %q (also members[%d])", m, j)
		}
		seen[m] = i
	}
	if cl.ProbeInterval < 0 {
		return errf("cluster.probeInterval", "%v must not be negative", cl.ProbeInterval)
	}
	return nil
}

func (c *Config) validateLoad() error {
	l := c.Load
	if l == nil {
		return nil
	}
	if l.Connect != "" {
		if err := checkConnectAddr(l.Connect); err != nil {
			return errf("load.connect", "%v", err)
		}
	}
	if l.Clients < 0 {
		return errf("load.clients", "%d must not be negative", l.Clients)
	}
	if l.Pipeline < 0 {
		return errf("load.pipeline", "%d must not be negative (0 keeps the closed loop)", l.Pipeline)
	}
	if l.Requests < 0 {
		return errf("load.requests", "%d must not be negative", l.Requests)
	}
	if s := l.SLO; s != nil {
		if s.MinAccuracy < 0 || s.MinAccuracy > 100 {
			return errf("load.slo.minAccuracy", "%v must be a percentage in [0, 100]", s.MinAccuracy)
		}
		if s.MaxLatency < 0 {
			return errf("load.slo.maxLatency", "%v must not be negative", s.MaxLatency)
		}
	}
	tenants := make(map[string]int, len(l.Tenants))
	for i, t := range l.Tenants {
		path := fmt.Sprintf("load.tenants[%d]", i)
		if err := serve.ValidateTenantID(t.Name); err != nil {
			return errf(path+".name", "%v", err)
		}
		if j, dup := tenants[t.Name]; dup {
			return errf(path+".name", "duplicate tenant %q (also tenants[%d])", t.Name, j)
		}
		tenants[t.Name] = i
		if t.Weight < 1 {
			return errf(path+".weight", "%d must be ≥ 1", t.Weight)
		}
	}
	local := c.Cluster == nil && l.Connect == ""
	hosted, endpoints := c.hostedTargets()
	seen := make(map[string]int, len(l.Targets))
	for i, t := range l.Targets {
		path := fmt.Sprintf("load.targets[%d]", i)
		if t == "" {
			return errf(path, "empty target name")
		}
		if j, dup := seen[t]; dup {
			return errf(path, "duplicate target %q (also targets[%d])", t, j)
		}
		seen[t] = i
		if local && !hosted[t] {
			names := make([]string, 0, len(hosted))
			for _, m := range c.Models {
				if !c.referenced()[m.Name] {
					names = append(names, m.routingName())
				}
			}
			for _, e := range c.Endpoints {
				names = append(names, e.Name)
			}
			return errf(path, "unknown target %q (hosted: %v)", t, names)
		}
	}
	// Impossible SLOs are rejected at validation, not at the first shed
	// request: a MinAccuracy the targeted endpoints cannot reach even at
	// their best variant can never be served, and a pool target cannot
	// honour MinAccuracy at all (the router needs per-variant curves).
	if l.SLO != nil && l.SLO.MinAccuracy > 0 && local {
		targets := l.Targets
		if len(targets) == 0 {
			targets = c.defaultTargets()
		}
		for _, t := range targets {
			ep, ok := endpoints[t]
			if !ok {
				if hosted[t] {
					return errf("load.slo.minAccuracy", "target %q is a pool; MinAccuracy needs an endpoint target", t)
				}
				continue // unknown target already reported above
			}
			if ceiling, known := c.accuracyCeiling(ep); known && l.SLO.MinAccuracy > ceiling {
				return errf("load.slo.minAccuracy", "endpoint %q tops out at %.1f%% top-1, below the required %.1f%%", t, ceiling, l.SLO.MinAccuracy)
			}
		}
	}
	return nil
}

// validateTenants checks the per-tenant tier: tenancy lives with the
// pools, so remote roles must not declare it, identities must pass the
// same wire validation the server applies, and weights and budgets
// must be non-negative.
func (c *Config) validateTenants() error {
	t := c.Tenants
	if t == nil {
		return nil
	}
	if c.Cluster != nil || (c.Load != nil && c.Load.Connect != "") {
		return errf("tenants", "a remote load generator enforces no tenancy; declare tenants in the backend configs")
	}
	if t.Window < 0 {
		return errf("tenants.window", "%v must not be negative", t.Window)
	}
	seen := make(map[string]int, len(t.Defs))
	for i, d := range t.Defs {
		path := fmt.Sprintf("tenants.defs[%d]", i)
		if err := serve.ValidateTenantID(d.Name); err != nil {
			return errf(path+".name", "%v", err)
		}
		if j, dup := seen[d.Name]; dup {
			return errf(path+".name", "duplicate tenant %q (also defs[%d])", d.Name, j)
		}
		seen[d.Name] = i
		if d.Weight < 0 {
			return errf(path+".weight", "%d must not be negative (0 resolves to 1)", d.Weight)
		}
		if d.RequestsPerSec < 0 {
			return errf(path+".requestsPerSec", "%v must not be negative (0 means unlimited)", d.RequestsPerSec)
		}
		if d.ModelSecondsPerWindow < 0 {
			return errf(path+".modelSecondsPerWindow", "%v must not be negative (0 means unlimited)", d.ModelSecondsPerWindow)
		}
	}
	return nil
}

// hostedTargets enumerates every routing name this config would host:
// endpoint names, their individually addressable variant pools, and
// the unreferenced models' pool names. endpoints maps the endpoint
// names to their declarations for SLO feasibility checks.
func (c *Config) hostedTargets() (hosted map[string]bool, endpoints map[string]*Endpoint) {
	hosted = map[string]bool{}
	endpoints = map[string]*Endpoint{}
	ref := c.referenced()
	for i := range c.Models {
		if !ref[c.Models[i].Name] {
			hosted[c.Models[i].routingName()] = true
		}
	}
	for i := range c.Endpoints {
		e := &c.Endpoints[i]
		hosted[e.Name] = true
		endpoints[e.Name] = e
		for _, v := range e.Variants {
			if t, err := ParseTechnique(v); err == nil {
				hosted[e.Name+"/"+t.String()] = true
			}
		}
	}
	return hosted, endpoints
}

// accuracyCeiling is the best modelled top-1 accuracy any variant of
// the endpoint reaches at its table operating point. known is false
// when no variant has curve data (the mini models) — the router then
// serves through the plain fallback and feasibility cannot be judged
// statically.
func (c *Config) accuracyCeiling(e *Endpoint) (ceiling float64, known bool) {
	var m *Model
	for i := range c.Models {
		if c.Models[i].Name == e.Model {
			m = &c.Models[i]
			break
		}
	}
	if m == nil {
		return 0, false
	}
	pts := e.operatingPoints(m.Kind)
	for _, v := range e.Variants {
		t, err := ParseTechnique(v)
		if err != nil {
			continue
		}
		if acc, ok := pareto.AccuracyAt(m.Kind, t, pts[t]); ok && acc > 0 {
			known = true
			if acc > ceiling {
				ceiling = acc
			}
		}
	}
	return ceiling, known
}

// operatingPoints resolves the endpoint's table selection for a model
// kind; nil (zero points everywhere) for uncurved kinds on table3,
// matching serve.Endpoint's tolerance.
func (e *Endpoint) operatingPoints(kind string) map[core.Technique]core.OperatingPoint {
	switch e.Points {
	case "table5":
		pts, _ := pareto.TableV(kind)
		return pts
	default:
		pts, _ := pareto.TableIII(kind)
		return pts
	}
}

// core converts the operating point to its core representation.
func (p *OperatingPoint) core() core.OperatingPoint {
	if p == nil {
		return core.OperatingPoint{}
	}
	return core.OperatingPoint{
		Sparsity:        p.Sparsity,
		CompressionRate: p.CompressionRate,
		TTQThreshold:    p.TTQThreshold,
		TTQSparsity:     p.TTQSparsity,
	}
}

// ServeSLO converts to the serving-layer SLO; a nil receiver is the
// zero (no-objective) SLO.
func (s *SLO) ServeSLO() serve.SLO {
	if s == nil {
		return serve.SLO{}
	}
	return serve.SLO{
		MinAccuracy: s.MinAccuracy,
		MaxLatency:  time.Duration(s.MaxLatency),
		Priority:    s.Priority,
	}
}
