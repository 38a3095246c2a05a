package fleetcfg

import (
	"repro/internal/core"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/tenant"
)

// defaultPlatform is the modelled hardware a model resolves to when
// none is declared — the paper's primary measurement target.
const defaultPlatform = "odroid-xu4"

// defaultTuning is the resolved pool tuning an empty Pool section
// takes: byte-for-byte the values serve.DefaultConfig resolves zero
// fields to.
func defaultTuning() serve.Config { return serve.DefaultConfig() }

// clone deep-copies the config so Resolve never aliases (or mutates)
// its receiver.
func (c *Config) clone() *Config {
	out := *c
	if c.Server != nil {
		s := *c.Server
		out.Server = &s
	}
	if c.Cluster != nil {
		cl := *c.Cluster
		cl.Members = append([]string(nil), c.Cluster.Members...)
		out.Cluster = &cl
	}
	if c.Pool != nil {
		p := *c.Pool
		p.Replicas = cloneInt(c.Pool.Replicas)
		p.Batch = cloneInt(c.Pool.Batch)
		p.QueueCap = cloneInt(c.Pool.QueueCap)
		out.Pool = &p
	}
	out.Models = append([]Model(nil), c.Models...)
	for i := range out.Models {
		if pt := out.Models[i].Point; pt != nil {
			cp := *pt
			out.Models[i].Point = &cp
		}
	}
	out.Endpoints = append([]Endpoint(nil), c.Endpoints...)
	for i := range out.Endpoints {
		out.Endpoints[i].Variants = append([]string(nil), c.Endpoints[i].Variants...)
		out.Endpoints[i].QueueCap = cloneInt(c.Endpoints[i].QueueCap)
	}
	if c.Load != nil {
		l := *c.Load
		l.Targets = append([]string(nil), c.Load.Targets...)
		l.Tenants = append([]LoadTenant(nil), c.Load.Tenants...)
		if c.Load.SLO != nil {
			s := *c.Load.SLO
			l.SLO = &s
		}
		out.Load = &l
	}
	if c.Tenants != nil {
		t := *c.Tenants
		t.Defs = append([]TenantDef(nil), c.Tenants.Defs...)
		out.Tenants = &t
	}
	return &out
}

func cloneInt(p *int) *int {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Resolve returns a copy with every omitted field filled with its
// default (the pool tuning is serve.DefaultConfig's), so an omitted
// field and its default value boot the same process. Resolve is
// idempotent — resolving a resolved config is the identity — and pure:
// the receiver is never mutated. Resolve does not validate; run
// Validate first (its judgements are the same before and after).
func (c *Config) Resolve() *Config {
	out := c.clone()
	mode := out.Mode()

	if out.Server == nil {
		out.Server = &Server{}
	}
	if out.Server.Seed == 0 {
		out.Server.Seed = 1
	}

	d := defaultTuning()
	if out.Pool == nil {
		out.Pool = &Pool{}
	}
	if out.Pool.Replicas == nil {
		r := d.Replicas
		out.Pool.Replicas = &r
	}
	if out.Pool.Batch == nil {
		b := d.MaxBatch
		out.Pool.Batch = &b
	}
	if out.Pool.Delay == 0 {
		out.Pool.Delay = Duration(d.MaxDelay)
	}
	if out.Pool.QueueCap == nil {
		// Derived from the resolved geometry, exactly as
		// serve.Config.withDefaults derives it.
		q := *out.Pool.Replicas * *out.Pool.Batch * 4
		out.Pool.QueueCap = &q
	}

	ref := out.referenced()
	for i := range out.Models {
		m := &out.Models[i]
		if t, err := ParseTechnique(m.Technique); err == nil {
			m.Technique = t.String()
			// A non-plain pool model with no explicit point runs at the
			// paper's Table III elbow for its kind (Validate has already
			// required the table row to exist).
			if m.Point == nil && t != core.Plain && !ref[m.Name] {
				if pts, err := pareto.TableIII(m.Kind); err == nil {
					p := pts[t]
					m.Point = &OperatingPoint{
						Sparsity:        p.Sparsity,
						CompressionRate: p.CompressionRate,
						TTQThreshold:    p.TTQThreshold,
						TTQSparsity:     p.TTQSparsity,
					}
				}
			}
		}
		if m.Name == "" {
			m.Name = m.routingName()
		}
		if m.Threads == 0 {
			m.Threads = 1
		}
		if m.Platform == "" {
			m.Platform = defaultPlatform
		}
	}
	for i := range out.Endpoints {
		e := &out.Endpoints[i]
		if e.Points == "" {
			e.Points = "table3"
		}
		for j, v := range e.Variants {
			if t, err := ParseTechnique(v); err == nil {
				e.Variants[j] = t.String()
			}
		}
	}

	if out.Cluster != nil && out.Cluster.ProbeInterval == 0 {
		out.Cluster.ProbeInterval = Duration(cluster.DefaultProbeInterval)
	}

	if out.Tenants != nil {
		if out.Tenants.Window == 0 {
			out.Tenants.Window = Duration(tenant.DefaultWindow)
		}
		if out.Tenants.SnapshotInterval == 0 {
			out.Tenants.SnapshotInterval = Duration(tenant.DefaultSnapshotInterval)
		}
		for i := range out.Tenants.Defs {
			if out.Tenants.Defs[i].Weight == 0 {
				out.Tenants.Defs[i].Weight = 1
			}
		}
	}

	// Every mode but the pure HTTP server runs the load generator.
	if mode != ModeListen {
		if out.Load == nil {
			out.Load = &Load{}
		}
		r, b := *out.Pool.Replicas, *out.Pool.Batch
		if out.Load.Clients == 0 {
			out.Load.Clients = 2 * r * b
		}
		if out.Load.Requests == 0 {
			out.Load.Requests = 4 * r * b
			if out.Load.Requests < 64 {
				out.Load.Requests = 64
			}
		}
		if len(out.Load.Targets) == 0 && mode == ModeLocal {
			out.Load.Targets = out.defaultTargets()
		}
	}
	return out
}

// defaultTargets is every hosted routing name in declaration order:
// the unreferenced models' pool names, then the endpoint names.
func (c *Config) defaultTargets() []string {
	ref := c.referenced()
	var targets []string
	for i := range c.Models {
		if !ref[c.Models[i].Name] {
			targets = append(targets, c.Models[i].routingName())
		}
	}
	for i := range c.Endpoints {
		targets = append(targets, c.Endpoints[i].Name)
	}
	return targets
}
