package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// fakeBackend is a scripted serve.Client: deterministic placement and
// failure-path tests drive the cluster against it without real model
// execution. All mutators are safe against the concurrent prober.
type fakeBackend struct {
	mu       sync.Mutex
	models   []serve.ModelInfo
	stats    serve.ServerStats
	probeErr error // fails Stats/Models (the health probe)
	inferErr error // fails InferSync with exactly this error
	inferred atomic.Int64
	closed   atomic.Bool
}

// newFakeBackend hosts the targets with the given probed queue depth
// (spread over one pool per target).
func newFakeBackend(depth int, targets ...string) *fakeBackend {
	f := &fakeBackend{stats: serve.ServerStats{Pools: map[string]serve.Stats{}}}
	for i, t := range targets {
		d := 0
		if i == 0 {
			d = depth
		}
		f.models = append(f.models, serve.ModelInfo{Name: t, Kind: "stack", InputShape: []int{3, 32, 32}})
		f.stats.Pools[t] = serve.Stats{Stack: t, QueueDepth: d}
	}
	return f
}

func (f *fakeBackend) set(fn func(*fakeBackend)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeBackend) InferSync(ctx context.Context, req serve.Request) (*serve.Response, error) {
	f.inferred.Add(1)
	f.mu.Lock()
	err := f.inferErr
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	results := make([]serve.Result, len(req.Images))
	for i := range results {
		results[i] = serve.Result{Stack: req.Target, Class: 1, BatchSize: len(req.Images)}
	}
	return &serve.Response{Results: results}, nil
}

func (f *fakeBackend) Stats(ctx context.Context) (serve.ServerStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats, f.probeErr
}

func (f *fakeBackend) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.models, f.probeErr
}

func (f *fakeBackend) Session(ctx context.Context) (serve.Session, error) {
	return serve.NewPipelinedSession(ctx, f)
}

func (f *fakeBackend) Close() error {
	f.closed.Store(true)
	return nil
}

var _ serve.Client = (*fakeBackend)(nil)

// noProber disables the background prober: tests drive probeAll
// explicitly, and probeAll ignores the re-probe backoff.
var noProber = WithProbeInterval(-1)

func testReq(target string) serve.Request {
	img := tensor.New(3, 32, 32)
	return serve.Request{Target: target, Images: []*tensor.Tensor{img}}
}

// memberStats fetches one member's snapshot entry by name.
func memberStats(t *testing.T, c *Cluster, name string) MemberStats {
	t.Helper()
	for _, ms := range c.Snapshot().Members {
		if ms.Member == name {
			return ms
		}
	}
	t.Fatalf("no member %q in snapshot", name)
	return MemberStats{}
}

// TestPlacementPrefersLeastLoaded pins the p2c ranking: with two
// healthy members hosting the target, every comparison sees both, so
// all traffic must land on the one with the lower observed queue
// depth.
func TestPlacementPrefersLeastLoaded(t *testing.T) {
	busy := newFakeBackend(10, "m")
	idle := newFakeBackend(0, "m")
	c, err := New([]Member{{Name: "busy", Client: busy}, {Name: "idle", Client: idle}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := c.InferSync(ctx, testReq("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := idle.inferred.Load(); got != n {
		t.Fatalf("idle member served %d of %d requests", got, n)
	}
	if got := busy.inferred.Load(); got != 0 {
		t.Fatalf("busy member (queue depth 10) served %d requests, want 0", got)
	}
	if ms := memberStats(t, c, "idle"); ms.Served != n || ms.QueueDepth != 0 {
		t.Fatalf("idle member stats = %+v", ms)
	}
}

// TestOverloadFailsOverThenSurfacesMinRetryAfter pins the overload
// contract: a refused request is retried once on the next-best member;
// when both refuse, the surfaced error is the typed *OverloadedError
// carrying the minimum RetryAfter over the refusals.
func TestOverloadFailsOverThenSurfacesMinRetryAfter(t *testing.T) {
	// The overloaded member advertises the lower queue depth, so p2c
	// deterministically tries it first and the retry lands on b.
	a := newFakeBackend(0, "m")
	b := newFakeBackend(5, "m")
	a.set(func(f *fakeBackend) {
		f.inferErr = &serve.OverloadedError{Stack: "m", RetryAfter: 40 * time.Millisecond}
	})
	c, err := New([]Member{{Name: "a", Client: a}, {Name: "b", Client: b}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// One member overloaded: the retry lands on the other and succeeds.
	resp, err := c.InferSync(ctx, testReq("m"))
	if err != nil {
		t.Fatalf("failover after one overload: %v", err)
	}
	if resp.First().Stack != "m" {
		t.Fatalf("failover response = %+v", resp.First())
	}
	if got := b.inferred.Load(); got != 1 {
		t.Fatalf("healthy member served %d, want 1", got)
	}
	if snap := c.Snapshot(); snap.OverloadRetries != 1 || snap.Shed != 0 {
		t.Fatalf("snapshot after failover = %+v", snap)
	}

	// Both overloaded: typed surface with the minimum hint.
	b.set(func(f *fakeBackend) {
		f.inferErr = &serve.OverloadedError{Stack: "m", RetryAfter: 10 * time.Millisecond}
	})
	_, err = c.InferSync(ctx, testReq("m"))
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("both overloaded: err = %v, want ErrOverloaded", err)
	}
	var ov *serve.OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("error is %T, want *OverloadedError", err)
	}
	if ov.RetryAfter != 10*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want the 10ms minimum over the refusals", ov.RetryAfter)
	}
	if ov.Stack != "m" {
		t.Fatalf("Stack = %q, want the routing target", ov.Stack)
	}
	if snap := c.Snapshot(); snap.Shed != 1 {
		t.Fatalf("cluster shed = %d, want 1", snap.Shed)
	}
	// Overload never ejects: both members stay in the healthy table.
	for _, name := range []string{"a", "b"} {
		if ms := memberStats(t, c, name); !ms.Healthy {
			t.Fatalf("member %s ejected by overload", name)
		}
	}
}

// TestOverloadWithoutAlternative pins the retry accounting: with no
// next-best member to place the refused request on, no retry happened
// and none may be counted — the typed refusal surfaces directly.
func TestOverloadWithoutAlternative(t *testing.T) {
	only := newFakeBackend(0, "m")
	only.set(func(f *fakeBackend) {
		f.inferErr = &serve.OverloadedError{Stack: "m", RetryAfter: 7 * time.Millisecond}
	})
	c, err := New([]Member{{Name: "only", Client: only}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.InferSync(context.Background(), testReq("m"))
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("lone overloaded member: err = %v, want ErrOverloaded", err)
	}
	var ov *serve.OverloadedError
	if !errors.As(err, &ov) || ov.RetryAfter != 7*time.Millisecond {
		t.Fatalf("hint = %v, want the member's 7ms", err)
	}
	snap := c.Snapshot()
	if snap.OverloadRetries != 0 {
		t.Fatalf("OverloadRetries = %d, want 0 — no next-best member existed to retry on", snap.OverloadRetries)
	}
	if snap.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", snap.Shed)
	}
}

// TestEjectionAndReadmission pins the health lifecycle: a member whose
// probe fails is ejected (traffic avoids it), and the first passing
// probe after recovery re-admits it.
func TestEjectionAndReadmission(t *testing.T) {
	flaky := newFakeBackend(0, "m")
	steady := newFakeBackend(0, "m")
	c, err := New([]Member{{Name: "flaky", Client: flaky}, {Name: "steady", Client: steady}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	flaky.set(func(f *fakeBackend) { f.probeErr = errors.New("probe: connection refused") })
	c.probeAll(ctx)
	ms := memberStats(t, c, "flaky")
	if ms.Healthy || ms.Ejections != 1 {
		t.Fatalf("after failed probe: %+v, want ejected once", ms)
	}
	if len(ms.Targets) == 0 {
		t.Fatal("ejection dropped the advertised table — knows() can no longer distinguish down from unknown")
	}

	// All traffic flows to the survivor while the member is out.
	base := flaky.inferred.Load()
	for i := 0; i < 6; i++ {
		if _, err := c.InferSync(ctx, testReq("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := flaky.inferred.Load(); got != base {
		t.Fatalf("ejected member still placed %d requests", got-base)
	}

	// Recovery: the next probe re-admits, and placement uses it again
	// (the survivor is made expensive so p2c must prefer the returnee).
	flaky.set(func(f *fakeBackend) { f.probeErr = nil })
	steady.set(func(f *fakeBackend) {
		st := f.stats.Pools["m"]
		st.QueueDepth = 50
		f.stats.Pools["m"] = st
	})
	c.probeAll(ctx)
	if ms := memberStats(t, c, "flaky"); !ms.Healthy {
		t.Fatalf("recovered member not re-admitted: %+v", ms)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.InferSync(ctx, testReq("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := flaky.inferred.Load(); got != base+4 {
		t.Fatalf("re-admitted member served %d, want all 4", got-base)
	}
}

// TestMidflightDeathFailsOver pins the transport-failure path: a
// member whose exchange dies on the wire is ejected and the request is
// re-placed on another member — the caller sees a success, and the
// dead member's advertised table survives for re-admission.
func TestMidflightDeathFailsOver(t *testing.T) {
	// The dying member advertises the lower depth so the first attempt
	// of request 0 deterministically lands on it.
	dying := newFakeBackend(0, "m")
	alive := newFakeBackend(5, "m")
	dying.set(func(f *fakeBackend) {
		f.inferErr = &url.Error{Op: "Post", URL: "http://dying/v1/infer", Err: io.EOF}
	})
	c, err := New([]Member{{Name: "dying", Client: dying}, {Name: "alive", Client: alive}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 5
	for i := 0; i < n; i++ {
		resp, err := c.InferSync(context.Background(), testReq("m"))
		if err != nil {
			t.Fatalf("request %d not failed over: %v", i, err)
		}
		if resp.First().Stack != "m" {
			t.Fatalf("request %d response = %+v", i, resp.First())
		}
	}
	snap := c.Snapshot()
	if snap.Served != n || snap.Failovers == 0 {
		t.Fatalf("snapshot = %+v, want %d served with at least one failover", snap, n)
	}
	ms := memberStats(t, c, "dying")
	if ms.Healthy {
		t.Fatal("mid-flight death did not eject the member")
	}
	if ms.Ejections != 1 {
		t.Fatalf("ejections = %d, want exactly 1 (re-deaths while ejected must not re-count)", ms.Ejections)
	}
	if len(ms.Targets) == 0 {
		t.Fatal("mid-flight death poisoned the member table")
	}
	if got := alive.inferred.Load(); got != n {
		t.Fatalf("survivor served %d, want %d", got, n)
	}
}

// TestErrorContracts pins errors.Is through the cluster layer for the
// verdicts failover cannot (or must not) mask.
func TestErrorContracts(t *testing.T) {
	a := newFakeBackend(0, "m")
	b := newFakeBackend(0, "m")
	c, err := New([]Member{{Name: "a", Client: a}, {Name: "b", Client: b}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Unknown target: typed at placement.
	if _, err := c.InferSync(ctx, testReq("nope")); !errors.Is(err, serve.ErrUnknownTarget) {
		t.Fatalf("unknown target: err = %v, want ErrUnknownTarget", err)
	}

	// ErrNoVariant from every member surfaces as ErrNoVariant — it is
	// an SLO verdict, and it must not be converted into overload.
	noVar := fmt.Errorf("%w: endpoint tops out below 99%%", serve.ErrNoVariant)
	a.set(func(f *fakeBackend) { f.inferErr = noVar })
	b.set(func(f *fakeBackend) { f.inferErr = noVar })
	if _, err := c.InferSync(ctx, testReq("m")); !errors.Is(err, serve.ErrNoVariant) {
		t.Fatalf("no-variant: err = %v, want ErrNoVariant", err)
	} else if errors.Is(err, serve.ErrOverloaded) {
		t.Fatal("no-variant verdict reported as overload")
	}

	// A request-shaped error (validation) surfaces as-is and must not
	// eject the member that reported it.
	valErr := errors.New("serve: m: image shape mismatch")
	a.set(func(f *fakeBackend) { f.inferErr = valErr })
	b.set(func(f *fakeBackend) { f.inferErr = valErr })
	if _, err := c.InferSync(ctx, testReq("m")); err == nil || errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("validation error: err = %v, want the member's own error", err)
	}
	for _, name := range []string{"a", "b"} {
		if ms := memberStats(t, c, name); !ms.Healthy {
			t.Fatalf("validation error ejected member %s", name)
		}
	}

	// Closed cluster: the typed sentinel, and the members are closed.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InferSync(ctx, testReq("m")); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("after close: err = %v, want ErrClosed", err)
	}
	if _, err := c.Stats(ctx); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("stats after close: err = %v, want ErrClosed", err)
	}
	if !a.closed.Load() || !b.closed.Load() {
		t.Fatal("cluster close did not close the member clients")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestUnreachableFleetIsRetryable pins the cold-start verdict: with no
// member ever probed, "unknown target" would be a guess — the cluster
// must refuse with the retryable typed overload instead.
func TestUnreachableFleetIsRetryable(t *testing.T) {
	down := newFakeBackend(0, "m")
	down.set(func(f *fakeBackend) { f.probeErr = errors.New("probe: connection refused") })
	c, err := New([]Member{{Name: "down", Client: down}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.InferSync(context.Background(), testReq("m"))
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("unreachable fleet: err = %v, want retryable ErrOverloaded", err)
	}
	var ov *serve.OverloadedError
	if !errors.As(err, &ov) || ov.RetryAfter <= 0 {
		t.Fatalf("unreachable fleet hint = %v, want a positive RetryAfter", err)
	}
}

// TestStaleTargetEntrySkipsWithoutEjection pins the table-refresh
// path: a member answering ErrUnknownTarget for a name it advertised
// is skipped (and the entry dropped) without a health penalty.
func TestStaleTargetEntrySkipsWithoutEjection(t *testing.T) {
	// The stale member advertises the lower depth so the first attempt
	// deterministically lands on it (a load tie would make p2c flip a
	// coin and could leave the stale entry unexercised).
	stale := newFakeBackend(0, "m")
	fresh := newFakeBackend(5, "m")
	stale.set(func(f *fakeBackend) { f.inferErr = fmt.Errorf("%w: %q", serve.ErrUnknownTarget, "m") })
	c, err := New([]Member{{Name: "stale", Client: stale}, {Name: "fresh", Client: fresh}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := c.InferSync(context.Background(), testReq("m")); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := fresh.inferred.Load(); got != n {
		t.Fatalf("fresh member served %d, want %d", got, n)
	}
	ms := memberStats(t, c, "stale")
	if !ms.Healthy || ms.Ejections != 0 {
		t.Fatalf("stale table entry cost a health penalty: %+v", ms)
	}
	// The dropped entry stays dropped until a probe re-advertises it.
	if hasTarget(ms.Targets, "m") {
		t.Fatalf("stale entry not dropped: %v", ms.Targets)
	}
	c.probeAll(context.Background())
	if ms := memberStats(t, c, "stale"); !hasTarget(ms.Targets, "m") {
		t.Fatalf("probe did not restore the advertised entry: %v", ms.Targets)
	}
}

func hasTarget(targets []string, want string) bool {
	for _, t := range targets {
		if t == want {
			return true
		}
	}
	return false
}

// miniStack is the fast host-executable configuration the end-to-end
// tests serve.
func miniStack(model string) core.Config {
	return core.Config{
		Model: model, Technique: core.Plain,
		Backend: core.OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	}
}

func testImage(seed uint64) *tensor.Tensor {
	img := tensor.New(3, 32, 32)
	img.FillNormal(tensor.NewRNG(2*seed+1), 0, 1)
	return img
}

// TestClusterOverRealServers is the end-to-end check: a cluster over
// two in-process servers hosting the same stack is a drop-in Client —
// every request is answered with the logits a solo instance produces,
// the merged Stats fold both members' pools into one view, and Close
// drains both servers.
func TestClusterOverRealServers(t *testing.T) {
	newServer := func() *serve.Server {
		s, err := serve.New(serve.Config{
			Stacks:   []serve.StackSpec{{Name: "m", Stack: miniStack("mini-mobilenet")}},
			Replicas: 1, MaxBatch: 4, MaxDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := newServer(), newServer()
	c, err := New([]Member{
		{Name: "s1", Client: serve.NewLocalClient(s1)},
		{Name: "s2", Client: serve.NewLocalClient(s2)},
	}, WithProbeInterval(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	solo, err := core.Instantiate(miniStack("mini-mobilenet"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Name != "m" {
		t.Fatalf("fleet models = %+v, want the deduplicated union [m]", ms)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := testImage(uint64(i))
			resp, err := c.InferSync(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{img}})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			want := solo.Run(img.Reshape(1, 3, 32, 32)).Output
			if d := tensor.MaxAbsDiff(resp.First().Output.Reshape(want.Shape()...), want); d > 1e-5 {
				errs <- fmt.Errorf("client %d: cluster logits diverge from solo run by %g", i, d)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Pools["m"].Completed; got != clients {
		t.Fatalf("merged Completed = %d, want %d", got, clients)
	}
	if got := st.Pools["m"].Replicas; got != 2 {
		t.Fatalf("merged Replicas = %d, want 2 (1 per member)", got)
	}
	snap := c.Snapshot()
	if snap.Served != clients {
		t.Fatalf("cluster served = %d, want %d", snap.Served, clients)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The member servers were drained by Close: direct submission is
	// refused with the typed sentinel.
	if _, err := s1.Do(ctx, serve.Request{Target: "m", Images: []*tensor.Tensor{testImage(1)}}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("member server after cluster close: err = %v, want ErrClosed", err)
	}
}
