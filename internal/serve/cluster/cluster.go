// Package cluster scales the serving tier out instead of up: a Cluster
// implements the serve.Client interface over a fleet of member
// backends — any mix of in-process LocalClients and remote
// httpapi.Clients — so code written against one server drives a fleet
// unchanged.
//
//	Request ──► member table (healthy ∧ hosts target)
//	        ──► power-of-two-choices placement (queue depth + in-flight)
//	        ──► member Client ──► Response
//	                └─ ErrOverloaded: retry once on the next-best member,
//	                   then surface the typed error with the minimum
//	                   RetryAfter over the refusals
//	                └─ transport failure: eject the member and fail the
//	                   request over to another — re-running inference is
//	                   idempotent, so a member dying mid-flight costs a
//	                   retry, not an error
//
// The member table is health-checked: a background prober snapshots
// every member's Stats() each probe interval (also refreshing the
// models it advertises via Models() and the observed queue depth the
// placement reads). A failed probe — or a transport failure on the
// request path — ejects the member; ejected members are re-probed on an
// exponential backoff and re-admitted by the first successful probe.
// Typed serving verdicts (ErrNoVariant, a member's 404 for a stale
// table entry) never eject: they are routing information, not health.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Member couples one backend Client with the name cluster statistics
// report it under (for httpapi members, conventionally the address).
type Member struct {
	// Name labels the member in ClusterStats; empty defaults to
	// "member-<index>".
	Name string
	// Client is the backend: a serve.LocalClient, an httpapi.Client, or
	// anything else speaking the Client interface (including another
	// Cluster).
	Client serve.Client
}

// Health-checking cadence and bounds.
const (
	// DefaultProbeInterval is the background prober's cadence unless
	// WithProbeInterval sets another.
	DefaultProbeInterval = 250 * time.Millisecond
	// probeTimeout bounds one member's Stats/Models probe round trip.
	probeTimeout = 2 * time.Second
	// backoffBase is the first re-probe delay after an ejection; each
	// further failed probe doubles it up to backoffMax.
	backoffBase = 250 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// member is one fleet entry: the backend client plus the health and
// load bookkeeping the placement and the prober share.
type member struct {
	name   string
	client serve.Client

	// healthy is read lock-free on the placement hot path; the prober
	// and the request-path failure handler flip it under mu.
	healthy atomic.Bool
	// probing serialises background probes per member: a probe pinned
	// at probeTimeout must not accumulate duplicates behind it.
	probing atomic.Bool

	mu        sync.RWMutex
	probed    bool                       // at least one successful probe: targets are meaningful
	targets   map[string]serve.ModelInfo // routing names this member advertises
	order     []string                   // advertised listing order, for deterministic Models
	last      serve.ServerStats          // most recent probe snapshot
	failures  int                        // consecutive probe/request failures
	backoff   time.Duration              // current re-probe delay while ejected
	nextProbe time.Time                  // earliest next probe while ejected

	depth    atomic.Int64  // probed inclusive queue depth, summed over pools
	rate     atomic.Uint64 // probed throughput (float64 bits), summed over pools
	inflight atomic.Int64  // requests this cluster currently has on the member

	served    atomic.Uint64 // images answered through the cluster
	shed      atomic.Uint64 // images refused with ErrOverloaded
	failed    atomic.Uint64 // transport failures observed on the request path
	ejections atomic.Uint64 // healthy→ejected transitions
}

// hosts reports whether the member's advertised table carries target.
func (m *member) hosts(target string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.targets[target]
	return ok
}

// dropTarget removes a stale table entry after the member itself
// refused the name with ErrUnknownTarget. The next probe's Models
// refresh restores it if the member re-hosts it.
func (m *member) dropTarget(target string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.targets[target]; !ok {
		return
	}
	delete(m.targets, target)
	for i, n := range m.order {
		if n == target {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// load is the placement's ranking key: the member's last probed
// inclusive queue depth plus the requests this cluster already has in
// flight on it (the live correction between probes).
func (m *member) load() int64 {
	return m.depth.Load() + m.inflight.Load()
}

// Cluster routes requests across a fleet of member backends. Construct
// with New; it satisfies serve.Client, so anything that drives one
// server — including the dlis-serve load generator — drives the fleet.
type Cluster struct {
	// probeInterval is the background prober's cadence; negative
	// disables the prober (tests drive probes explicitly).
	probeInterval time.Duration
	members       []*member

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	served    atomic.Uint64 // images answered by any member
	shed      atomic.Uint64 // images surfaced to callers as ErrOverloaded
	retries   atomic.Uint64 // overload retries on a next-best member
	failovers atomic.Uint64 // transport-failure re-placements
}

// New assembles a cluster over the members, probes every member once
// (members that fail the initial probe start ejected and are
// re-admitted by the background prober when they come up), and starts
// the health loop. It returns an error only for an empty or
// inconsistent member list — an unreachable fleet is a health state,
// not a construction failure.
func New(members []Member, opts ...Option) (*Cluster, error) {
	if len(members) == 0 {
		return nil, errors.New("cluster: no members configured")
	}
	c := &Cluster{stop: make(chan struct{})}
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	if c.probeInterval == 0 {
		c.probeInterval = DefaultProbeInterval
	}
	seen := make(map[string]bool, len(members))
	for i, spec := range members {
		if spec.Client == nil {
			return nil, fmt.Errorf("cluster: member %d has a nil client", i)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("member-%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate member name %q", name)
		}
		seen[name] = true
		c.members = append(c.members, &member{name: name, client: spec.Client})
	}
	c.probeAll(context.Background())
	if c.probeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// knows reports whether any member (healthy or not) advertises target,
// and whether any member has a populated table at all. With no table
// anywhere the fleet is unreachable and "unknown target" would be a
// guess — callers treat that as overload (retryable), not a 404.
func (c *Cluster) knows(target string) (hosted, tableSeen bool) {
	for _, m := range c.members {
		m.mu.RLock()
		probed := m.probed
		_, ok := m.targets[target]
		m.mu.RUnlock()
		tableSeen = tableSeen || probed
		hosted = hosted || ok
	}
	return hosted, tableSeen
}

// pick selects the member to place a request on: among healthy members
// hosting the target (and not already tried this request), two random
// candidates are compared and the less loaded wins — power-of-two-
// choices, which balances within a constant factor of optimal without
// a global scan staying coherent. Load ties break toward the member
// with the higher probed throughput (it drains its share faster).
func (c *Cluster) pick(target string, tried map[*member]bool) *member {
	var cands []*member
	for _, m := range c.members {
		if tried[m] || !m.healthy.Load() || !m.hosts(target) {
			continue
		}
		cands = append(cands, m)
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	i := rand.IntN(len(cands))
	j := rand.IntN(len(cands) - 1)
	if j >= i {
		j++
	}
	a, b := cands[i], cands[j]
	la, lb := a.load(), b.load()
	if la != lb {
		if lb < la {
			return b
		}
		return a
	}
	if rateOf(b) > rateOf(a) {
		return b
	}
	return a
}

// transportFailure classifies an error as the member (or the wire to
// it) dying rather than a serving verdict: network errors, the
// url.Error every http.Client round trip failure is wrapped in, and
// the raw connection-teardown errnos. Anything else — validation,
// typed admission verdicts — is a property of the request and must not
// eject the member.
func transportFailure(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// InferSync places the request and waits for its Response: pick,
// submit, and — on overload or member death — fail over until the
// request is answered or the candidates are exhausted.
func (c *Cluster) InferSync(ctx context.Context, req serve.Request) (*serve.Response, error) {
	if c.closed.Load() {
		return nil, serve.ErrClosed
	}
	if len(req.Images) == 0 {
		return nil, fmt.Errorf("cluster: request for %q carries no images", req.Target)
	}
	n := uint64(len(req.Images))
	tried := make(map[*member]bool, 2)
	var (
		overloads    int
		minRetry     time.Duration
		noVariant    error
		sawFailure   bool
		retryPending bool // an overload is waiting for a next-best attempt
	)
	for {
		m := c.pick(req.Target, tried)
		if m == nil {
			break
		}
		if retryPending {
			// Count the retry only once a next-best member actually
			// exists to place it on.
			c.retries.Add(1)
			retryPending = false
		}
		tried[m] = true
		m.inflight.Add(1)
		resp, err := m.client.InferSync(ctx, req)
		m.inflight.Add(-1)
		if resp != nil {
			// The member answered the exchange. Per-image execution
			// errors ride inside the Response exactly as they do on a
			// single backend — the first one is err, and the caller
			// inspects the surviving results.
			m.served.Add(n)
			c.served.Add(n)
			return resp, err
		}
		switch {
		case errors.Is(err, serve.ErrQuotaExceeded):
			// A quota verdict is about the tenant, not the member: every
			// member meters the same identity against the same budget, so
			// re-placing the request elsewhere would not succeed — it
			// would double-charge the rejection and burn a second queue
			// slot probing a verdict that is already final. Surface it
			// untouched (it is not a shed, and never an ejection). This
			// case must precede the overload branch: both arrive as HTTP
			// 429, and only the typed code keeps them apart.
			return nil, err
		case errors.Is(err, serve.ErrOverloaded):
			m.shed.Add(n)
			var ov *serve.OverloadedError
			if errors.As(err, &ov) && (minRetry == 0 || ov.RetryAfter < minRetry) {
				minRetry = ov.RetryAfter
			}
			overloads++
			if overloads >= 2 {
				// Already retried once on the next-best member: surface
				// the typed verdict with the smallest drain hint seen.
				c.shed.Add(n)
				return nil, c.overloaded(req.Target, minRetry)
			}
			retryPending = true
		case errors.Is(err, serve.ErrNoVariant):
			// An SLO verdict, not a health event — but it is member-local
			// (the live latency gate reads that member's observed batch
			// times), so try the others before surfacing it.
			noVariant = err
		case errors.Is(err, serve.ErrUnknownTarget):
			// Stale table entry: the member stopped hosting the target
			// since its last probe. Drop it and place elsewhere; the next
			// Models refresh re-adds it if the member changes its mind.
			m.dropTarget(req.Target)
		case ctx.Err() != nil:
			// The caller's deadline, not the member's failure.
			return nil, err
		case errors.Is(err, serve.ErrClosed) || transportFailure(err):
			if c.closed.Load() {
				// The member refused because the *cluster* is shutting
				// down around this in-flight request: surface the typed
				// sentinel rather than ejecting members that were closed
				// on purpose.
				return nil, serve.ErrClosed
			}
			// The member is draining or dead: eject it and fail the
			// request over. Inference is idempotent, so re-placing a
			// request the dead member may have half-executed is safe.
			m.failed.Add(n)
			c.failovers.Add(1)
			c.noteFailure(m)
			sawFailure = true
		default:
			// A request-shaped error (validation, malformed SLO): every
			// member would say the same, and it says nothing about this
			// member's health.
			return nil, err
		}
	}
	// Candidates exhausted. Prefer the retryable verdicts: a refusal
	// that drains (overload) or a fleet that may come back (members
	// died mid-request, all ejected, or none probed yet) beats a
	// terminal one; the SLO verdict surfaces only when every candidate
	// actually delivered it.
	if overloads > 0 || sawFailure {
		c.shed.Add(n)
		return nil, c.overloaded(req.Target, minRetry)
	}
	if noVariant != nil {
		return nil, noVariant
	}
	hosted, tableSeen := c.knows(req.Target)
	if hosted || !tableSeen {
		c.shed.Add(n)
		return nil, c.overloaded(req.Target, 0)
	}
	return nil, fmt.Errorf("%w: %q (cluster hosts: %v)", serve.ErrUnknownTarget, req.Target, c.targetNames())
}

// overloaded builds the cluster-level typed refusal. With no drain
// hint from any member (fleet unreachable), the probe interval is the
// soonest a re-admission could change the answer.
func (c *Cluster) overloaded(target string, retry time.Duration) *serve.OverloadedError {
	if retry <= 0 {
		retry = c.probeInterval
		if retry <= 0 {
			retry = DefaultProbeInterval
		}
	}
	return &serve.OverloadedError{Stack: target, RetryAfter: retry}
}

// targetNames lists every advertised routing name across the fleet,
// in member order, deduplicated.
func (c *Cluster) targetNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, m := range c.members {
		m.mu.RLock()
		for _, n := range m.order {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		m.mu.RUnlock()
	}
	return names
}

// Models lists the union of every member's advertised routing targets,
// in member order, deduplicated — the fleet-level discovery surface.
func (c *Cluster) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	if c.closed.Load() {
		return nil, serve.ErrClosed
	}
	var out []serve.ModelInfo
	seen := make(map[string]bool)
	for _, m := range c.members {
		m.mu.RLock()
		for _, name := range m.order {
			if !seen[name] {
				seen[name] = true
				out = append(out, m.targets[name])
			}
		}
		m.mu.RUnlock()
	}
	return out, nil
}

// Close stops the health prober and closes every member client (for
// LocalClient members that drains their servers). Close is idempotent;
// subsequent requests are refused with serve.ErrClosed.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	var errs []error
	for _, m := range c.members {
		if err := m.client.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: closing %s: %w", m.name, err))
		}
	}
	return errors.Join(errs...)
}

var _ serve.Client = (*Cluster)(nil)
