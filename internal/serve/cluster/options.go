package cluster

import (
	"context"
	"time"

	"repro/internal/serve"
)

// Functional options over Config, mirroring the serve.ClientOption
// vocabulary on the transports: call sites that prefer option style
// over config-struct literals use NewWithOptions. New(cfg, members...)
// remains the config-struct form underneath — every option is a one-line
// setter over the same Config.

// Option tunes a Cluster at construction.
type Option func(*Config)

// WithProbeInterval sets the background health-prober cadence; a
// negative value disables the background prober (tests drive probes
// explicitly).
func WithProbeInterval(d time.Duration) Option {
	return func(c *Config) { c.ProbeInterval = d }
}

// NewWithOptions is the option-style constructor: a fleet of members
// plus tuning options, defaults for everything unset.
func NewWithOptions(members []Member, opts ...Option) (*Cluster, error) {
	var cfg Config
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return New(cfg, members...)
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
