package fleetcfg

import (
	"fmt"
	"strings"

	"repro/internal/pareto"
)

// pointString renders the non-zero axes of an operating point; an
// empty string means the zero point.
func pointString(p OperatingPoint) string {
	var parts []string
	if p.Sparsity != 0 {
		parts = append(parts, fmt.Sprintf("sparsity=%g", p.Sparsity))
	}
	if p.CompressionRate != 0 {
		parts = append(parts, fmt.Sprintf("rate=%g", p.CompressionRate))
	}
	if p.TTQThreshold != 0 {
		parts = append(parts, fmt.Sprintf("ttq-threshold=%g", p.TTQThreshold))
	}
	if p.TTQSparsity != 0 {
		parts = append(parts, fmt.Sprintf("ttq-sparsity=%g", p.TTQSparsity))
	}
	return strings.Join(parts, " ")
}

// memLimitString renders the memory-limit convention the serve command
// uses: 0 derives from replica footprints, -1 disables.
func memLimitString(mb int) string {
	switch {
	case mb == -1:
		return "off"
	case mb == 0:
		return "derived"
	default:
		return fmt.Sprintf("%dMB", mb)
	}
}

// Topology renders the fully resolved topology as the -dryrun report:
// the derived process role, every default made explicit, endpoint
// variants with their modelled accuracies and operating points. The
// output is deterministic for a given config (declaration order is
// preserved, no timestamps or map iteration), so it golden-tests.
func (c *Config) Topology() string {
	r := c.Resolve()
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s\n", r.Mode())

	fmt.Fprintf(&b, "server: seed=%d memlimit=%s", r.Server.Seed, memLimitString(r.Server.MemLimitMB))
	if r.Server.Listen != "" {
		fmt.Fprintf(&b, " listen=%s", r.Server.Listen)
	}
	if r.Server.MuxListen != "" {
		fmt.Fprintf(&b, " muxlisten=%s", r.Server.MuxListen)
	}
	// Rendered only when set so pre-existing goldens hold, and
	// independent of the cache file's contents so a cold and a warm
	// start print byte-identical topologies.
	if r.Server.TunerCache != "" {
		fmt.Fprintf(&b, " tunercache=%s", r.Server.TunerCache)
	}
	b.WriteString("\n")

	if len(r.Models) > 0 || len(r.Endpoints) > 0 {
		fmt.Fprintf(&b, "pool: replicas=%d batch=%d delay=%s queuecap=%d\n",
			*r.Pool.Replicas, *r.Pool.Batch, r.Pool.Delay, *r.Pool.QueueCap)
	}

	ref := r.referenced()
	for i := range r.Models {
		m := &r.Models[i]
		role := "pool"
		if ref[m.Name] {
			role = "endpoint base"
		}
		fmt.Fprintf(&b, "model %s: kind=%s technique=%s threads=%d platform=%s role=%s",
			m.Name, m.Kind, m.Technique, m.Threads, m.Platform, role)
		if m.AutoAlgo {
			b.WriteString(" auto-algo")
		}
		if m.Point != nil {
			if ps := pointString(*m.Point); ps != "" {
				fmt.Fprintf(&b, " point[%s]", ps)
			}
		}
		b.WriteString("\n")
	}

	modelByName := make(map[string]*Model, len(r.Models))
	for i := range r.Models {
		modelByName[r.Models[i].Name] = &r.Models[i]
	}
	for i := range r.Endpoints {
		e := &r.Endpoints[i]
		fmt.Fprintf(&b, "endpoint %s: model=%s points=%s", e.Name, e.Model, e.Points)
		if e.QueueCap != nil {
			fmt.Fprintf(&b, " queuecap=%d", *e.QueueCap)
		}
		b.WriteString("\n")
		m := modelByName[e.Model]
		pts := e.operatingPoints(m.Kind)
		for _, v := range e.Variants {
			t, err := ParseTechnique(v)
			if err != nil {
				continue // rejected by Validate; keep rendering total
			}
			fmt.Fprintf(&b, "  variant %s/%s:", e.Name, t)
			if acc, ok := pareto.AccuracyAt(m.Kind, t, pts[t]); ok && acc > 0 {
				fmt.Fprintf(&b, " accuracy=%.2f%%", acc)
			} else {
				b.WriteString(" accuracy=unknown")
			}
			if ps := pointString(OperatingPoint{
				Sparsity:        pts[t].Sparsity,
				CompressionRate: pts[t].CompressionRate,
				TTQThreshold:    pts[t].TTQThreshold,
				TTQSparsity:     pts[t].TTQSparsity,
			}); ps != "" {
				fmt.Fprintf(&b, " point[%s]", ps)
			}
			b.WriteString("\n")
		}
	}

	// Rendered only when declared so pre-existing goldens hold.
	if t := r.Tenants; t != nil {
		fmt.Fprintf(&b, "tenants: window=%s snapshot=%s", t.Window, t.SnapshotInterval)
		if t.UsageFile != "" {
			fmt.Fprintf(&b, " usagefile=%s", t.UsageFile)
		}
		b.WriteString("\n")
		for i := range t.Defs {
			d := &t.Defs[i]
			name := d.Name
			if name == "" {
				name = "(anonymous)"
			}
			fmt.Fprintf(&b, "  tenant %s: weight=%d", name, d.Weight)
			if d.RequestsPerSec > 0 {
				fmt.Fprintf(&b, " rps=%g", d.RequestsPerSec)
			}
			if d.ModelSecondsPerWindow > 0 {
				fmt.Fprintf(&b, " modelsec=%g", d.ModelSecondsPerWindow)
			}
			b.WriteString("\n")
		}
	}

	if r.Cluster != nil {
		fmt.Fprintf(&b, "cluster: members=[%s] probe=%s\n",
			strings.Join(r.Cluster.Members, " "), r.Cluster.ProbeInterval)
	}

	if l := r.Load; l != nil {
		fmt.Fprintf(&b, "load: targets=[%s] clients=%d requests=%d",
			strings.Join(l.Targets, " "), l.Clients, l.Requests)
		if l.Pipeline > 0 {
			fmt.Fprintf(&b, " pipeline=%d", l.Pipeline)
		}
		if l.Connect != "" {
			fmt.Fprintf(&b, " connect=%s", l.Connect)
		}
		if s := l.SLO; s != nil {
			fmt.Fprintf(&b, " slo[acc>=%.1f%% lat<=%s prio=%d]", s.MinAccuracy, s.MaxLatency, s.Priority)
		}
		if len(l.Tenants) > 0 {
			mix := make([]string, len(l.Tenants))
			for i, t := range l.Tenants {
				mix[i] = fmt.Sprintf("%s:%d", t.Name, t.Weight)
			}
			fmt.Fprintf(&b, " tenants=[%s]", strings.Join(mix, " "))
		}
		b.WriteString("\n")
	}
	return b.String()
}
