package cluster

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/serve"
)

// Health checking: the prober keeps the member table live. Each probe
// is one Stats round trip (the load snapshot placement reads) plus one
// Models round trip (the advertised-target refresh), bounded together
// by probeTimeout. Healthy members are probed every probe interval;
// ejected members are re-probed on an exponential backoff from
// backoffBase to backoffMax, and the first success re-admits them with
// a fresh table.

// probeLoop drives the probe cadence until Close.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeDue(context.Background())
		}
	}
}

// probeDue launches a probe for every member that is due: healthy
// members always, ejected members once their backoff has elapsed.
// Probes run as independent goroutines guarded by a per-member
// in-flight flag and probeDue does NOT wait for them, so one hung
// backend (a probe pinned at probeTimeout) neither stalls the other
// members' cadence nor piles up duplicate probes on itself.
func (c *Cluster) probeDue(ctx context.Context) {
	now := time.Now()
	for _, m := range c.members {
		m.mu.RLock()
		due := m.healthy.Load() || !now.Before(m.nextProbe)
		m.mu.RUnlock()
		if !due || !m.probing.CompareAndSwap(false, true) {
			continue
		}
		c.wg.Add(1)
		go func(m *member) {
			defer c.wg.Done()
			defer m.probing.Store(false)
			c.probe(ctx, m)
		}(m)
	}
}

// probeAll probes every member regardless of backoff and waits for the
// verdicts — used at construction (before the background prober
// starts) and by tests that drive health transitions explicitly.
func (c *Cluster) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range c.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			c.probe(ctx, m)
		}(m)
	}
	wg.Wait()
}

// probe runs one health check against a member and applies the verdict
// to the table.
func (c *Cluster) probe(ctx context.Context, m *member) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	st, err := m.client.Stats(pctx)
	if err != nil {
		c.noteFailure(m)
		return
	}
	ms, err := m.client.Models(pctx)
	if err != nil {
		c.noteFailure(m)
		return
	}
	c.noteSuccess(m, st, ms)
}

// noteSuccess records a passing probe: the member is (re-)admitted,
// its advertised table replaced wholesale, and the load snapshot the
// placement reads — inclusive queue depth and throughput summed over
// its pools — refreshed.
func (c *Cluster) noteSuccess(m *member, st serve.ServerStats, ms []serve.ModelInfo) {
	var depth int64
	var rate float64
	for _, ps := range st.Pools {
		depth += int64(ps.QueueDepth)
		rate += ps.Throughput
	}
	targets := make(map[string]serve.ModelInfo, len(ms))
	order := make([]string, 0, len(ms))
	for _, info := range ms {
		if _, dup := targets[info.Name]; dup {
			continue
		}
		targets[info.Name] = info
		order = append(order, info.Name)
	}
	m.mu.Lock()
	m.probed = true
	m.targets = targets
	m.order = order
	m.last = st
	m.failures = 0
	m.backoff = 0
	m.depth.Store(depth)
	m.rate.Store(math.Float64bits(rate))
	// The healthy flip happens under mu so it cannot interleave with a
	// request-path noteFailure: a transport failure recorded after this
	// probe's round trips must observe healthy=true and count its
	// ejection, not be silently overwritten.
	m.healthy.Store(true)
	m.mu.Unlock()
}

// noteFailure records a failed probe or a request-path transport
// failure: a healthy member is ejected immediately; an already ejected
// member has its re-probe backoff doubled up to the cap. The advertised
// table is kept — an ejected member is expected to come back hosting
// the same targets, and keeping the entries lets knows() distinguish
// "fleet down, retry" from "nobody hosts this".
func (c *Cluster) noteFailure(m *member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failures++
	if m.healthy.Load() {
		m.healthy.Store(false)
		m.ejections.Add(1)
		m.backoff = backoffBase
	} else if m.backoff < backoffMax {
		m.backoff *= 2
		if m.backoff > backoffMax {
			m.backoff = backoffMax
		} else if m.backoff <= 0 {
			m.backoff = backoffBase
		}
	}
	m.nextProbe = time.Now().Add(m.backoff)
}

// rateOf reads the member's probed throughput (placement tie-breaker).
func rateOf(m *member) float64 {
	return math.Float64frombits(m.rate.Load())
}
