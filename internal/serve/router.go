package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pareto"
	"repro/internal/tensor"
)

// SLO-aware multi-variant routing.
//
// The paper's central result is that no single compressed variant wins
// everywhere: the right (technique × operating point) comes from a
// Pareto frontier over accuracy, latency and memory. An endpoint makes
// that frontier a serving-time decision. One logical name ("resnet18")
// fronts several pools, each running the same model compressed with a
// different technique at a known operating point; every request may
// carry an SLO, and the router places it on the *cheapest* variant that
// satisfies it:
//
//	Do ──► candidates (accuracy ≥ MinAccuracy, cheapest first)
//	   ──► live latency gate (estimated e2e ≤ MaxLatency)
//	   ──► bounded admission (trySubmitMany) ──► pool ──► futures
//
// Cheapness is the variant's warmed batch-1 plan time measured on this
// host at boot; the latency gate uses the live
// per-pool estimate (observed mean batch wall time × current backlog).
// Variants with no Pareto-curve data (the mini models) have unknown
// accuracy, and an endpoint whose variants are all unknown falls back
// to its plain variant. Admission is load-shedding, never blocking: a
// saturated candidate is skipped (priority traffic spills to the next
// costlier variant; best-effort traffic is shed immediately — the
// cheap variants shed first), and when every candidate is saturated
// the caller gets an *OverloadedError with a RetryAfter hint instead
// of an unboundedly blocking enqueue.

// ErrOverloaded is the sentinel matched by errors.Is for admission
// rejections; the concrete error carries the retry hint.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrNoVariant is the sentinel for SLOs no variant can satisfy even on
// an idle server: a MinAccuracy above every variant's modelled
// accuracy, or a MaxLatency below every candidate's observed batch
// time. Unlike ErrOverloaded it is not retryable — waiting cannot
// help.
var ErrNoVariant = errors.New("serve: no variant satisfies the SLO")

// OverloadedError reports an admission rejection: every candidate
// variant's bounded queue was full (or too slow for the request's
// MaxLatency). RetryAfter estimates when capacity frees up — the
// smallest backlog drain time over the candidates, from current queue
// depth × mean batch wall time over the replicas.
type OverloadedError struct {
	// Stack is the routing name the rejection applies to: the endpoint
	// for routed traffic, the pool for direct bounded admission.
	Stack string
	// RetryAfter is the estimated backlog drain time (≥ 1ms).
	RetryAfter time.Duration
}

// Error renders the rejection with its retry hint.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: %s overloaded, retry after %v", e.Stack, e.RetryAfter.Round(time.Millisecond))
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// SLO is a request's service-level objective. The zero value means
// "no objective": the request rides the cheapest variant.
type SLO struct {
	// MinAccuracy is the minimum modelled top-1 accuracy (percent) the
	// serving variant must reach on the Pareto curves; 0 accepts any.
	MinAccuracy float64
	// MaxLatency bounds the estimated end-to-end latency (backlog drain
	// + one forward pass) a candidate may show; 0 accepts any. The gate
	// is live: a variant that satisfies it when idle can fail it under
	// load, pushing the request to the next candidate.
	MaxLatency time.Duration
	// Priority selects the shedding class. Priority ≤ 0 (best effort)
	// tries only the cheapest SLO-satisfying variant and is shed when
	// that variant is saturated; Priority ≥ 1 may spill across every
	// satisfying variant, cheapest first, before being shed — so under
	// overload the cheap variants shed best-effort load first while
	// priority traffic escapes to the costlier pools.
	Priority int
}

// Variant couples one stack configuration with the modelled accuracy
// the router filters on (0 = unknown, no curve data).
type Variant struct {
	Spec     StackSpec
	Accuracy float64
}

// EndpointSpec is one logical endpoint fronting a set of variants of
// the same model. Variant pools are hosted like any other (Models
// lists them and they can be addressed directly); the endpoint name
// routes across them.
type EndpointSpec struct {
	// Name is the endpoint's routing key (e.g. "resnet18"). It must not
	// collide with any pool name.
	Name string
	// Variants lists the compressed stacks behind the endpoint.
	Variants []Variant
	// QueueCap, when ≥ 1, overrides Config.QueueCap for this endpoint's
	// variant pools — a per-endpoint admission budget on a server whose
	// other pools keep the global capacity. 0 inherits Config.QueueCap.
	QueueCap int
}

// Endpoint builds an EndpointSpec over base.Model: one variant per
// technique at its Table III (Pareto-elbow) operating point, with
// accuracy from the calibrated Fig. 3 curves. Models without Table III
// data (the mini models) get zero operating points and unknown
// accuracies — the router then falls back to the plain variant.
func Endpoint(name string, base core.Config, techs ...core.Technique) EndpointSpec {
	pts, _ := pareto.TableIII(base.Model) // nil for uncurved models
	return EndpointAt(name, base, pts, techs...)
}

// EndpointAt is Endpoint with explicit operating points (e.g.
// pareto.TableV's fixed-90%-accuracy points, or custom ones).
func EndpointAt(name string, base core.Config, points map[core.Technique]core.OperatingPoint, techs ...core.Technique) EndpointSpec {
	ep := EndpointSpec{Name: name}
	for _, t := range techs {
		cfg := base.WithTechnique(t, points[t])
		acc, ok := pareto.AccuracyAt(base.Model, t, cfg.Point)
		if !ok {
			acc = 0
		}
		ep.Variants = append(ep.Variants, Variant{
			Spec:     StackSpec{Name: name + "/" + t.String(), Stack: cfg},
			Accuracy: acc,
		})
	}
	return ep
}

// variant is one hosted endpoint member: its pool plus routing
// bookkeeping.
type variant struct {
	name     string
	accuracy float64 // modelled top-1 %, 0 = unknown
	pool     *pool
	routed   atomic.Uint64
	shed     atomic.Uint64
}

// endpoint routes one logical name across its variants.
type endpoint struct {
	name     string
	variants []*variant // sorted cheapest-first (measured cost)
	plain    *variant   // fallback when no variant has curve data
	routed   atomic.Uint64
	shed     atomic.Uint64
}

// newEndpoint wires instantiated variant pools into a router, ordering
// them by measured single-image cost on this host — so a "cheap"
// quantised variant must actually be cheap here to rank first.
func newEndpoint(spec EndpointSpec, vars []*variant) *endpoint {
	ep := &endpoint{name: spec.Name, variants: vars}
	sort.SliceStable(ep.variants, func(i, j int) bool {
		return ep.variants[i].pool.measuredSeconds < ep.variants[j].pool.measuredSeconds
	})
	for _, v := range ep.variants {
		if v.pool.insts[0].Config.Technique == core.Plain {
			ep.plain = v
			break
		}
	}
	return ep
}

// candidates returns the variants eligible for an SLO, cheapest first.
// Unknown-accuracy variants participate only when the request demands
// no accuracy; when it does and *no* variant has curve data, the plain
// variant is the fallback. A MinAccuracy above every known variant —
// plain included, and plain is the accuracy ceiling — is unsatisfiable
// and reported as ErrNoVariant rather than overload.
func (ep *endpoint) candidates(slo SLO) ([]*variant, error) {
	if slo.MinAccuracy <= 0 {
		return ep.variants, nil
	}
	var eligible []*variant
	known := 0
	for _, v := range ep.variants {
		if v.accuracy <= 0 {
			continue
		}
		known++
		if v.accuracy >= slo.MinAccuracy {
			eligible = append(eligible, v)
		}
	}
	if len(eligible) > 0 {
		return eligible, nil
	}
	if known == 0 {
		if ep.plain != nil {
			return []*variant{ep.plain}, nil
		}
		return nil, fmt.Errorf("%w: endpoint %q has no accuracy data and no plain fallback", ErrNoVariant, ep.name)
	}
	return nil, fmt.Errorf("%w: endpoint %q tops out below %.1f%% top-1", ErrNoVariant, ep.name, slo.MinAccuracy)
}

// routeMany places a group of images as one routing decision: the whole
// group lands on a single variant (its results are meant to coalesce in
// one batcher, and a per-image split would let half a request ride a
// less accurate stack than its SLO asked for). Candidates are tried in
// cost order with the live latency gate and all-or-nothing bounded
// admission; spillover applies to the whole group for priority traffic.
// The tenant identity rides into every candidate's admission gate, so a
// spilling group is charged against the same tenant share wherever it
// lands.
func (ep *endpoint) routeMany(tid string, imgs []*tensor.Tensor, slo SLO) ([]*future, error) {
	cands, err := ep.candidates(slo)
	if err != nil {
		return nil, err
	}
	if slo.Priority <= 0 {
		// Best effort never spills: it lives and dies on the cheapest
		// satisfying variant, so overload sheds it there first.
		cands = cands[:1]
	}
	n := uint64(len(imgs))
	retry := time.Duration(0)
	minRetry := func(d time.Duration) {
		if retry == 0 || d < retry {
			retry = d
		}
	}
	// Overload is only the right verdict when waiting could help:
	// transient tracks whether any candidate was refused for a reason
	// that drains (backlog, full queue) rather than a deadline no
	// variant can ever make.
	transient := false
	for _, v := range cands {
		if slo.MaxLatency > 0 {
			if est, ok := v.pool.estimatedLatency(len(imgs)); ok && est > slo.MaxLatency {
				if v.pool.meanBatchTime() > slo.MaxLatency {
					// Even an idle worker's single batch misses the
					// deadline: retrying can never satisfy this request
					// here. Skip without a retry hint.
					continue
				}
				// Too backlogged for this request's deadline — let
				// costlier candidates (if the request may spill) absorb
				// it, or retry once the backlog drains.
				transient = true
				minRetry(v.pool.drainEstimate())
				continue
			}
		}
		futs, err := v.pool.trySubmitMany(tid, imgs)
		if err == nil {
			v.routed.Add(n)
			ep.routed.Add(n)
			return futs, nil
		}
		var ov *OverloadedError
		if !errors.As(err, &ov) {
			return nil, err // validation / closed — not an admission verdict
		}
		transient = true
		minRetry(ov.RetryAfter)
	}
	if !transient {
		return nil, fmt.Errorf("%w: endpoint %q cannot execute a batch within %v on any candidate",
			ErrNoVariant, ep.name, slo.MaxLatency)
	}
	if retry == 0 {
		retry = time.Millisecond
	}
	cands[0].shed.Add(n) // the variant that would have served it
	ep.shed.Add(n)
	return nil, &OverloadedError{Stack: ep.name, RetryAfter: retry}
}

// VariantStats is one endpoint member's routed-traffic snapshot.
type VariantStats struct {
	// Name is the variant's pool routing name ("resnet18/quantisation").
	Name string
	// Technique is the variant's compression technique.
	Technique core.Technique
	// Accuracy is the modelled top-1 accuracy (percent, 0 = unknown).
	Accuracy float64
	// ModelledSeconds is the static per-image cost on the configured
	// (paper) platform.
	ModelledSeconds float64
	// MeasuredSeconds is the warmed batch-1 compiled-plan time probed on
	// this host at pool construction — the router's cheapest-first key.
	MeasuredSeconds float64
	// Routed counts requests the router placed on this variant; Shed
	// counts requests refused while this variant was their preferred
	// (cheapest satisfying) choice.
	Routed, Shed uint64
	// Pool is the underlying pool's full serving snapshot.
	Pool Stats
}

// EndpointStats aggregates one endpoint's routed traffic per variant.
type EndpointStats struct {
	// Endpoint is the logical routing name.
	Endpoint string
	// Routed and Shed are the endpoint-level totals.
	Routed, Shed uint64
	// Variants holds the per-variant snapshots, cheapest first.
	Variants []VariantStats
}

// snapshot assembles the endpoint's current routing statistics.
func (ep *endpoint) snapshot() EndpointStats {
	st := EndpointStats{Endpoint: ep.name, Routed: ep.routed.Load(), Shed: ep.shed.Load()}
	for _, v := range ep.variants {
		st.Variants = append(st.Variants, v.stats())
	}
	return st
}

// stats snapshots one variant, folding routing counters into the pool
// snapshot so Snapshot().Pools carries them too.
func (v *variant) stats() VariantStats {
	ps := v.pool.snapshot()
	ps.Routed, ps.Shed = v.routed.Load(), v.shed.Load()
	return VariantStats{
		Name:            v.name,
		Technique:       v.pool.insts[0].Config.Technique,
		Accuracy:        v.accuracy,
		ModelledSeconds: v.pool.modelSeconds,
		MeasuredSeconds: v.pool.measuredSeconds,
		Routed:          ps.Routed,
		Shed:            ps.Shed,
		Pool:            ps,
	}
}
