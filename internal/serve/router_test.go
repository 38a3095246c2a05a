package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// variantEndpoint builds a hand-labelled three-variant endpoint over
// mini-vgg: plain, ternary-quantised and heavily weight-pruned stacks,
// with the modelled accuracies the full-size Pareto curves would
// supply. The labels (not real measurements) make routing decisions
// deterministic.
func variantEndpoint() EndpointSpec {
	base := miniStack("mini-vgg")
	return EndpointSpec{Name: "vgg", Variants: []Variant{
		{Spec: StackSpec{Name: "vgg/plain", Stack: base}, Accuracy: 94.3},
		{Spec: StackSpec{
			Name:  "vgg/quantisation",
			Stack: base.WithTechnique(core.Quantised, core.OperatingPoint{TTQThreshold: 0.05, TTQSparsity: 0.7}),
		}, Accuracy: 92.0},
		{Spec: StackSpec{
			Name:  "vgg/weight-pruning",
			Stack: base.WithTechnique(core.WeightPruned, core.OperatingPoint{Sparsity: 0.95}),
		}, Accuracy: 90.0},
	}}
}

// endpointStats reads one endpoint's routing snapshot from the
// whole-server view.
func endpointStats(t *testing.T, s *Server, endpoint string) EndpointStats {
	t.Helper()
	st, ok := s.Snapshot().Endpoints[endpoint]
	if !ok {
		t.Fatalf("no endpoint %q in the snapshot", endpoint)
	}
	return st
}

// cheapestSatisfying returns, from the endpoint's snapshot, the
// cost-ordered first variant whose labelled accuracy meets minAcc —
// the variant the router is specified to choose on an idle server.
func cheapestSatisfying(t *testing.T, s *Server, endpoint string, minAcc float64) string {
	t.Helper()
	st := endpointStats(t, s, endpoint)
	for _, v := range st.Variants { // cheapest first
		if v.Accuracy >= minAcc {
			return v.Name
		}
	}
	t.Fatalf("no variant of %s reaches %.1f%%", endpoint, minAcc)
	return ""
}

// cheapestOf returns the endpoint's cost-ordered variant names.
func cheapestOf(t *testing.T, s *Server, endpoint string) []string {
	t.Helper()
	st := endpointStats(t, s, endpoint)
	var names []string
	for _, v := range st.Variants {
		names = append(names, v.Name)
	}
	return names
}

// TestEndpointQueueCapOverride checks that EndpointSpec.QueueCap
// rebounds the endpoint's variant pools without touching the rest of
// the server: the variant pools take the override, a plain stack
// hosted alongside keeps the server-wide capacity, and zero inherits.
func TestEndpointQueueCapOverride(t *testing.T) {
	ep := variantEndpoint()
	ep.QueueCap = 6
	s := newTestServer(t, Config{
		Stacks:    []StackSpec{{Name: "solo", Stack: miniStack("mini-vgg")}},
		Endpoints: []EndpointSpec{ep},
		QueueCap:  64,
	})
	for _, v := range ep.Variants {
		if got := s.variants[v.Spec.Name].pool.cfg.QueueCap; got != 6 {
			t.Errorf("variant %s queue cap = %d, want the endpoint override 6", v.Spec.Name, got)
		}
	}
	if got := s.pools["solo"].cfg.QueueCap; got != 64 {
		t.Errorf("plain stack queue cap = %d, want the server-wide 64", got)
	}

	inherit := variantEndpoint() // zero QueueCap inherits the server cap
	s2 := newTestServer(t, Config{Endpoints: []EndpointSpec{inherit}, QueueCap: 64})
	if got := s2.variants["vgg/plain"].pool.cfg.QueueCap; got != 64 {
		t.Errorf("uncapped endpoint variant queue cap = %d, want 64", got)
	}
}

// TestRouteHonoursMinAccuracy checks SLO-satisfying variant selection:
// a zero SLO rides the cheapest variant; MinAccuracy above the cheap
// variant's accuracy forces the accurate one; MinAccuracy above every
// variant is unsatisfiable (ErrNoVariant, not overload).
func TestRouteHonoursMinAccuracy(t *testing.T) {
	s := newTestServer(t, Config{
		Endpoints: []EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	ctx := context.Background()
	order := cheapestOf(t, s, "vgg")

	res, err := doInfer(ctx, s, "vgg", testImage(1), SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack != order[0] {
		t.Fatalf("zero SLO served by %q, want cheapest %q", res.Stack, order[0])
	}

	res, err = doInfer(ctx, s, "vgg", testImage(2), SLO{MinAccuracy: 93})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack != "vgg/plain" {
		t.Fatalf("MinAccuracy 93%% served by %q, want vgg/plain (only satisfying variant)", res.Stack)
	}

	// 91% rules out only the pruned variant; 89% admits all three. In
	// each case the cheapest variant above the bar must win.
	for _, minAcc := range []float64{91, 89} {
		want := cheapestSatisfying(t, s, "vgg", minAcc)
		res, err = doInfer(ctx, s, "vgg", testImage(3), SLO{MinAccuracy: minAcc})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stack != want {
			t.Fatalf("MinAccuracy %.0f%% served by %q, want cheapest satisfying %q", minAcc, res.Stack, want)
		}
	}

	if _, err = doInfer(ctx, s, "vgg", testImage(4), SLO{MinAccuracy: 99}); !errors.Is(err, ErrNoVariant) {
		t.Fatalf("MinAccuracy 99%% err = %v, want ErrNoVariant", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("unsatisfiable SLO must not be reported as overload")
	}
}

// TestRouteFallsBackToPlainWithoutCurves checks the no-curve-data path:
// mini models have no Pareto curves, so every variant's accuracy is
// unknown and an accuracy-demanding request must land on the plain
// variant rather than failing or guessing.
func TestRouteFallsBackToPlainWithoutCurves(t *testing.T) {
	// Endpoint/EndpointAt derive accuracies from the real curves — for
	// mini models they come back unknown (0).
	ep := Endpoint("vgg", miniStack("mini-vgg"), core.WeightPruned, core.Plain)
	for _, v := range ep.Variants {
		if v.Accuracy != 0 {
			t.Fatalf("mini model variant %q got accuracy %.1f, want unknown (0)", v.Spec.Key(), v.Accuracy)
		}
	}
	s := newTestServer(t, Config{
		Endpoints: []EndpointSpec{ep},
		Replicas:  1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	res, err := doInfer(context.Background(), s, "vgg", testImage(1), SLO{MinAccuracy: 90})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack != "vgg/plain" {
		t.Fatalf("no-curve endpoint served by %q, want the plain fallback", res.Stack)
	}
}

// TestRouteShedsWhenSaturated checks bounded admission: with the pool
// pinned (huge MaxDelay, batch never fills) and QueueCap admitted
// requests outstanding, the next request must be refused with a typed
// *OverloadedError carrying a positive RetryAfter — never block.
func TestRouteShedsWhenSaturated(t *testing.T) {
	const capacity = 3
	s, err := New(Config{
		Endpoints: []EndpointSpec{{Name: "m", Variants: []Variant{
			{Spec: StackSpec{Name: "m/plain", Stack: miniStack("mini-mobilenet")}},
		}}},
		Replicas: 1, MaxBatch: 64, MaxDelay: time.Hour, QueueCap: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var futs []*future
	for i := 0; i < capacity; i++ {
		f, err := doSubmit(ctx, s, "m", testImage(uint64(i)), SLO{})
		if err != nil {
			t.Fatalf("request %d within capacity refused: %v", i, err)
		}
		futs = append(futs, f)
	}
	_, err = doSubmit(ctx, s, "m", testImage(99), SLO{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("request beyond capacity: err = %v, want ErrOverloaded", err)
	}
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("overload error is %T, want *OverloadedError", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", ov.RetryAfter)
	}
	st := endpointStats(t, s, "m")
	if st.Shed != 1 || st.Variants[0].Shed != 1 {
		t.Fatalf("shed counters endpoint=%d variant=%d, want 1/1", st.Shed, st.Variants[0].Shed)
	}
	// The admitted requests are still answered by the shutdown drain.
	s.Close()
	for i, f := range futs {
		waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		res, werr := f.wait(waitCtx)
		cancel()
		if werr != nil || res.Output == nil {
			t.Fatalf("admitted request %d not drained: %v", i, werr)
		}
	}
}

// TestRoutePrioritySpillsBestEffortSheds saturates the cheapest variant
// and checks the shedding classes: best-effort traffic (Priority 0) is
// shed even though the costlier variant has room — the cheap variants
// shed first — while priority traffic spills onto the next variant.
func TestRoutePrioritySpillsBestEffortSheds(t *testing.T) {
	const capacity = 2
	s, err := New(Config{
		Endpoints: []EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 64, MaxDelay: time.Hour, QueueCap: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	order := cheapestOf(t, s, "vgg")

	// Saturate the cheapest variant with best-effort traffic.
	for i := 0; i < capacity; i++ {
		if _, err := doSubmit(ctx, s, "vgg", testImage(uint64(i)), SLO{}); err != nil {
			t.Fatalf("filling cheapest variant: %v", err)
		}
	}
	// Best effort: shed, despite free capacity on the other variant.
	if _, err := doSubmit(ctx, s, "vgg", testImage(10), SLO{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("best-effort beyond capacity: err = %v, want ErrOverloaded", err)
	}
	// Priority: spills to the second-cheapest variant.
	if _, err := doSubmit(ctx, s, "vgg", testImage(11), SLO{Priority: 1}); err != nil {
		t.Fatalf("priority request did not spill: %v", err)
	}
	st := endpointStats(t, s, "vgg")
	byName := map[string]VariantStats{}
	for _, v := range st.Variants {
		byName[v.Name] = v
	}
	if got := byName[order[0]]; got.Routed != capacity || got.Shed != 1 {
		t.Fatalf("cheapest variant routed/shed = %d/%d, want %d/1", got.Routed, got.Shed, capacity)
	}
	if got := byName[order[1]]; got.Routed != 1 {
		t.Fatalf("spill variant routed = %d, want 1", got.Routed)
	}
	if st.Routed != capacity+1 || st.Shed != 1 {
		t.Fatalf("endpoint routed/shed = %d/%d, want %d/1", st.Routed, st.Shed, capacity+1)
	}
}

// TestPerVariantStatsRouting drives routed traffic to both variants and
// checks the per-variant aggregation everywhere it surfaces: the
// endpoint snapshot and the pool snapshots.
func TestPerVariantStatsRouting(t *testing.T) {
	s := newTestServer(t, Config{
		Endpoints: []EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 2, MaxDelay: time.Millisecond,
	})
	ctx := context.Background()
	const accurate, cheap = 3, 2
	// 93% is satisfied by the plain variant alone.
	for i := 0; i < accurate; i++ {
		if _, err := doInfer(ctx, s, "vgg", testImage(uint64(i)), SLO{MinAccuracy: 93}); err != nil {
			t.Fatal(err)
		}
	}
	order := cheapestOf(t, s, "vgg")
	for i := 0; i < cheap; i++ {
		if _, err := doInfer(ctx, s, "vgg", testImage(uint64(10+i)), SLO{}); err != nil {
			t.Fatal(err)
		}
	}
	st := endpointStats(t, s, "vgg")
	wantPlain := uint64(accurate)
	wantCheap := uint64(cheap)
	if order[0] == "vgg/plain" {
		wantPlain += cheap
		wantCheap = 0
	}
	byName := map[string]VariantStats{}
	for _, v := range st.Variants {
		byName[v.Name] = v
		if v.Pool.Completed != v.Routed {
			t.Fatalf("%s completed %d != routed %d (no direct traffic was offered)", v.Name, v.Pool.Completed, v.Routed)
		}
	}
	if byName["vgg/plain"].Routed != wantPlain {
		t.Fatalf("plain routed = %d, want %d", byName["vgg/plain"].Routed, wantPlain)
	}
	if order[0] != "vgg/plain" && byName[order[0]].Routed != wantCheap {
		t.Fatalf("cheap routed = %d, want %d", byName[order[0]].Routed, wantCheap)
	}
	if st.Routed != accurate+cheap {
		t.Fatalf("endpoint routed = %d, want %d", st.Routed, accurate+cheap)
	}
	// The same counters must surface on the pool snapshots.
	if ps := s.Snapshot().Pools["vgg/plain"]; ps.Routed != wantPlain {
		t.Fatalf("Snapshot().Pools routed = %d, want %d", ps.Routed, wantPlain)
	}
	// Endpoint names resolve through the plain request path too.
	if res, err := doInfer(ctx, s, "vgg", testImage(42), SLO{}); err != nil || res.Stack != order[0] {
		t.Fatalf("Infer on endpoint name: res.Stack=%q err=%v, want cheapest %q", res.Stack, err, order[0])
	}
}

// TestRouteMaxLatencyGate checks the live latency gate: a backlogged
// variant whose estimated end-to-end latency exceeds the request's
// MaxLatency is skipped (priority traffic spills past it; best-effort
// is shed) even though its queue still has admission capacity.
func TestRouteMaxLatencyGate(t *testing.T) {
	s, err := New(Config{
		Endpoints: []EndpointSpec{variantEndpoint()},
		Replicas:  1, MaxBatch: 64, MaxDelay: time.Hour, QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	order := cheapestOf(t, s, "vgg")

	// Fake live load on the cheapest pool: one observed 50ms batch and a
	// 60-deep backlog (white-box — the gate only reads these counters).
	// The 100ms budget is achievable by an idle worker (one 50ms batch)
	// but not through the backlog, so the refusal is transient, not
	// ErrNoVariant.
	cheapPool := s.pools[order[0]]
	cheapPool.batchNanos.Store(int64(50 * time.Millisecond))
	cheapPool.batchesTimed.Store(1)
	cheapPool.pending.Store(100) // 2 waves of 64 → est ≈ 100ms > budget
	defer cheapPool.pending.Store(0)
	const budget = 60 * time.Millisecond

	// Best effort: the only candidate it may use is too backlogged — shed.
	if _, err := doSubmit(ctx, s, "vgg", testImage(1), SLO{MaxLatency: budget}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("latency-gated best effort: err = %v, want ErrOverloaded", err)
	}
	// Priority with the same budget spills to the idle costlier variant
	// (cold pools pass the gate: no live estimate yet).
	f, err := doSubmit(ctx, s, "vgg", testImage(2), SLO{MaxLatency: budget, Priority: 1})
	if err != nil {
		t.Fatalf("latency-gated priority did not spill: %v", err)
	}
	_ = f
	st := endpointStats(t, s, "vgg")
	byName := map[string]VariantStats{}
	for _, v := range st.Variants {
		byName[v.Name] = v
	}
	if byName[order[1]].Routed != 1 {
		t.Fatalf("spill variant routed = %d, want 1", byName[order[1]].Routed)
	}
	if byName[order[0]].Routed != 0 {
		t.Fatalf("gated variant routed = %d, want 0", byName[order[0]].Routed)
	}

	// A deadline below every candidate's observed batch time can never
	// be met, no matter how long the caller retries: that is
	// ErrNoVariant, not a retryable overload.
	for _, name := range order {
		p := s.pools[name]
		p.batchNanos.Store(int64(50 * time.Millisecond))
		p.batchesTimed.Store(1)
	}
	_, err = doSubmit(ctx, s, "vgg", testImage(3), SLO{MaxLatency: time.Millisecond, Priority: 1})
	if !errors.Is(err, ErrNoVariant) {
		t.Fatalf("impossible deadline: err = %v, want ErrNoVariant", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("impossible deadline must not be reported as retryable overload")
	}
}

// TestQueueDepthCountsOpenBatch is the regression test for depth-based
// admission undercounting: requests pulled into the batcher's open
// batch (out of the queue channel, waiting on the delay timer) must
// still count toward QueueDepth.
func TestQueueDepthCountsOpenBatch(t *testing.T) {
	s := newTestServer(t, Config{
		Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
		Replicas: 1, MaxBatch: 8, MaxDelay: time.Hour,
	})
	ctx := context.Background()
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := doSubmit(ctx, s, "m", testImage(uint64(i)), SLO{}); err != nil {
			t.Fatal(err)
		}
	}
	// The batcher drains the channel into its open batch almost at once;
	// either way the inclusive depth must report all n as waiting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Snapshot().Pools["m"]; st.QueueDepth == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want %d (open-batch requests missing)", s.Snapshot().Pools["m"].QueueDepth, n)
		}
		time.Sleep(time.Millisecond)
	}
	// Give the batcher time to coalesce everything out of the channel:
	// the naive len(queue) depth would now read 0.
	time.Sleep(50 * time.Millisecond)
	if st := s.Snapshot().Pools["m"]; st.QueueDepth != n {
		t.Fatalf("QueueDepth after coalescing = %d, want %d", st.QueueDepth, n)
	}
}

// TestWindowedThroughputSurvivesIdleGap is the regression test for the
// lifetime-rate bug: an idle gap between two bursts must not deflate
// the steady-state Throughput figure the way it necessarily deflates
// LifetimeThroughput.
func TestWindowedThroughputSurvivesIdleGap(t *testing.T) {
	ctx := context.Background()
	// With bursts of wall time b1 and b2, the windowed rate is about
	// 6/b2 and the lifetime rate 12/(b1 + gap + b2), so their ratio is
	// about (b1 + gap + b2)/(2·b2). A fixed gap loses that margin once
	// the service time grows (a loaded host under -race); a gap of
	// twice the first burst keeps the ratio at 2 or more however slow
	// the host is, provided the second burst is no slower than the
	// first. A second burst slowed by load that arrived in the gap can
	// break that premise: below b1 + gap = 2.5·b2 the expected ratio
	// leaves the 1.5× assertion too little margin, the run says
	// nothing about the property, and it is repeated on a fresh
	// server, at most three times.
	var st Stats
	for attempt := 1; ; attempt++ {
		s := newTestServer(t, Config{
			Stacks:   []StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
			Replicas: 1, MaxBatch: 1, MaxDelay: time.Millisecond,
			// A 4-sample window: the second burst pushes the idle gap out
			// of the window entirely, which is the property under test.
			LatencyWindow: 4,
		})
		burst := func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := doInfer(ctx, s, "m", testImage(uint64(i)), SLO{}); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
		first := burst(6)
		gap := max(600*time.Millisecond, 2*first)
		time.Sleep(gap) // idle gap
		second := burst(6)
		st = s.Snapshot().Pools["m"]
		if 2*(first+gap) >= 5*second || attempt == 3 {
			break
		}
		t.Logf("attempt %d: bursts of %v and %v around a %v gap; repeating", attempt, first, second, gap)
	}
	if st.LifetimeThroughput <= 0 || st.Throughput <= 0 {
		t.Fatalf("rates not populated: %+v", st)
	}
	// Once the gap has aged out of the 4-sample window the windowed
	// figure must sit well above the lifetime one. A conservative 1.5×
	// separates them without flaking on a noisy host.
	if st.Throughput < 1.5*st.LifetimeThroughput {
		t.Fatalf("windowed %.1f req/s not above lifetime %.1f req/s — idle gap still deflating",
			st.Throughput, st.LifetimeThroughput)
	}
}
