package cluster

import (
	"context"
	"time"

	"repro/internal/serve"
)

// Option tunes a Cluster at construction (see New).
type Option func(*Cluster)

// WithProbeInterval sets the background health-prober cadence: 0 keeps
// DefaultProbeInterval, and a negative value disables the background
// prober (tests drive probes explicitly).
func WithProbeInterval(d time.Duration) Option {
	return func(c *Cluster) { c.probeInterval = d }
}

// Session opens a pipelined session over the cluster. Placement stays
// per-request — each Send is placed independently (and fails over
// independently), so a streaming caller still gets the fleet's
// balancing and failover underneath one session surface.
func (c *Cluster) Session(ctx context.Context) (serve.Session, error) {
	if c.closed.Load() {
		return nil, serve.ErrClosed
	}
	return serve.NewPipelinedSession(ctx, c)
}
