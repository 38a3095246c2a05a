package dlis

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBuildModelPublicAPI(t *testing.T) {
	for _, name := range ModelNames() {
		if name == "vgg16" || name == "resnet18" {
			continue // exercised by internal suites; slow to build here
		}
		net, err := BuildModel(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if net.ParamCount() == 0 {
			t.Fatalf("%s has no parameters", name)
		}
	}
	if _, err := BuildModel("lenet", 1); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestStackRoundtrip(t *testing.T) {
	inst, err := Instantiate(StackConfig{
		Model:     "mini-resnet",
		Technique: Plain,
		Backend:   OMP,
		Threads:   2,
		Platform:  "odroid-xu4",
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	img := NewImage(1, 32, 32, 7)
	res := inst.Run(img)
	if res.Output.Shape()[1] != 10 {
		t.Fatalf("logit shape %v", res.Output.Shape())
	}
	if sim := inst.Simulate(); sim <= 0 {
		t.Fatalf("simulated time %v", sim)
	}
	if mb := inst.MemoryMB(); mb <= 0 {
		t.Fatalf("memory %v", mb)
	}
}

func TestPlatformsPublicAPI(t *testing.T) {
	if len(Platforms()) != 2 {
		t.Fatalf("expected the paper's two platforms, got %d", len(Platforms()))
	}
	p, err := PlatformByName("odroid-xu4")
	if err != nil || p.GPU == nil {
		t.Fatalf("odroid lookup failed: %v", err)
	}
}

func TestTablesPublicAPI(t *testing.T) {
	for _, model := range ModelNames() {
		t3, err := TableIII(model)
		if err != nil {
			t.Fatal(err)
		}
		t5, err := TableV(model)
		if err != nil {
			t.Fatal(err)
		}
		if t3[WeightPruned].Sparsity <= 0 || t5[ChannelPruned].CompressionRate <= 0 {
			t.Fatalf("%s: implausible operating points %+v %+v", model, t3, t5)
		}
	}
}

func TestSyntheticCIFARAndTraining(t *testing.T) {
	trainSet, testSet := SyntheticCIFAR(64, 16, 3)
	if trainSet.Len() != 64 || testSet.Len() != 16 {
		t.Fatalf("split %d/%d", trainSet.Len(), testSet.Len())
	}
	net, err := BuildModel("mini-mobilenet", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	res := Train(net, trainSet, testSet, cfg)
	if res.Steps == 0 {
		t.Fatal("training took no steps")
	}
	acc := Evaluate(net, testSet, 1)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

func TestExperimentsPublicAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 12 {
		t.Fatalf("expected ≥12 experiments, got %v", ids)
	}
	var buf bytes.Buffer
	if err := RunExperiment("tab3", &buf, DefaultExperimentOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "76.54") {
		t.Fatalf("tab3 output missing paper anchor:\n%s", buf.String())
	}
}

func TestGPUBackendConfigs(t *testing.T) {
	// The GPU backends are valid only for plain models on the Odroid.
	inst, err := Instantiate(StackConfig{
		Model: "mini-mobilenet", Technique: Plain,
		Backend: OCL, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ocl := inst.Simulate()
	inst2, err := Instantiate(StackConfig{
		Model: "mini-mobilenet", Technique: Plain,
		Backend: CLBlast, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clb := inst2.Simulate()
	if ocl <= 0 || clb <= 0 {
		t.Fatalf("GPU simulations must be positive: ocl=%v clblast=%v", ocl, clb)
	}
	if clb <= ocl {
		t.Fatalf("CLBlast must lose to hand-tuned OpenCL at CIFAR scale: %v vs %v", clb, ocl)
	}
}

func TestConcurrentInferenceIsSafe(t *testing.T) {
	// After Instantiate (which freezes CSR views), concurrent Run calls
	// on separate inputs must be race-free: inference touches no layer
	// caches. Run with -race to enforce.
	inst, err := Instantiate(StackConfig{
		Model: "mini-resnet", Technique: WeightPruned,
		Point:   OperatingPoint{Sparsity: 0.5},
		Backend: OMP, Threads: 1, Platform: "intel-i7", Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Tensor, 4)
	for i := 0; i < 4; i++ {
		go func(seed uint64) {
			done <- inst.Run(NewImage(1, 32, 32, seed)).Output
		}(uint64(i + 1))
	}
	for i := 0; i < 4; i++ {
		out := <-done
		if !out.AllFinite() {
			t.Fatal("concurrent inference produced non-finite output")
		}
	}
}

func TestServerPublicAPI(t *testing.T) {
	// The serving subsystem end to end through the facade: two stacks
	// side by side, concurrent clients, statistics, graceful close.
	cfg := DefaultServerConfig()
	cfg.Stacks = []ServerStack{
		{Stack: StackConfig{Model: "mini-resnet", Technique: Plain,
			Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1}},
		{Name: "mobile-wp", Stack: StackConfig{Model: "mini-mobilenet", Technique: WeightPruned,
			Point:   OperatingPoint{Sparsity: 0.5},
			Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1}},
	}
	cfg.Replicas, cfg.MaxBatch, cfg.MaxDelay = 2, 4, time.Millisecond
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			img := NewImage(1, 32, 32, uint64(c+1))
			for _, stack := range []string{"mini-resnet/plain", "mobile-wp"} {
				resp, err := srv.Do(ctx, Request{Target: stack, Images: []*Tensor{img}})
				if err != nil {
					t.Errorf("%s: %v", stack, err)
					return
				}
				r, err := resp.Wait(ctx)
				if err != nil {
					t.Errorf("%s: %v", stack, err)
					return
				}
				res := r.First()
				if !res.Output.AllFinite() || res.Output.NumElements() != 10 {
					t.Errorf("%s: implausible logits %v", stack, res.Output)
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Close()
	for stack, st := range srv.Snapshot().Pools {
		if st.Completed != 6 || st.Failed != 0 {
			t.Fatalf("%s: %d completed / %d failed, want 6/0", stack, st.Completed, st.Failed)
		}
		if st.Latency.P99 <= 0 || st.ReplicaMemoryMB <= 0 {
			t.Fatalf("%s: empty stats %+v", stack, st)
		}
	}
	if _, err := srv.Do(ctx, Request{Target: "mobile-wp", Images: []*Tensor{NewImage(1, 32, 32, 1)}}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("infer after close: %v, want ErrServerClosed", err)
	}
}

func TestDeterministicInstantiation(t *testing.T) {
	cfg := StackConfig{
		Model: "mini-vgg", Technique: Quantised,
		Point:   OperatingPoint{TTQThreshold: 0.1},
		Backend: OMP, Threads: 1, Platform: "intel-i7", Seed: 7,
	}
	a, err := Instantiate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instantiate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same config, same seed → identical logits across builds.
	img := NewImage(1, 32, 32, 9)
	outA := a.Run(img).Output
	outB := b.Run(img).Output
	for i, v := range outA.Data() {
		if v != outB.Data()[i] {
			t.Fatal("same seed must produce identical instances")
		}
	}
}

func TestEndpointPublicAPI(t *testing.T) {
	// SLO-routed multi-variant serving end to end through the facade:
	// one endpoint over three compressed variants of one mini model,
	// routed requests, per-variant statistics, typed overload handling.
	base := StackConfig{Model: "mini-vgg", Technique: Plain,
		Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1}
	cfg := DefaultServerConfig()
	cfg.Endpoints = []ServerEndpoint{NewEndpoint("vgg", base, Plain, WeightPruned, Quantised)}
	cfg.Replicas, cfg.MaxBatch, cfg.MaxDelay = 1, 2, time.Millisecond
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if ms := srv.Models(); len(ms) == 0 || ms[0].Name != "vgg" || ms[0].Kind != "endpoint" {
		t.Fatalf("models = %+v, want the vgg endpoint first", ms)
	}
	rf, err := srv.Do(ctx, Request{
		Target: "vgg", Images: []*Tensor{NewImage(1, 32, 32, 3)},
		SLO: SLO{MinAccuracy: 90, Priority: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rf.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res := resp.First()
	// mini models have no Pareto curves: the router must have fallen
	// back to the plain variant rather than guessed.
	if res.Stack != "vgg/plain" {
		t.Fatalf("served by %q, want the plain fallback", res.Stack)
	}
	if !res.Output.AllFinite() || res.Output.NumElements() != 10 {
		t.Fatalf("implausible logits %v", res.Output)
	}
	snap := srv.Snapshot()
	st := snap.Endpoints["vgg"]
	if len(snap.Endpoints) != 1 || len(st.Variants) != 3 || st.Routed != 1 {
		t.Fatalf("endpoint stats = %+v, want 3 variants / 1 routed", st)
	}
	var sawPlain bool
	for _, v := range st.Variants {
		if v.Name == "vgg/plain" {
			sawPlain = v.Routed == 1
		}
	}
	if !sawPlain {
		t.Fatal("routed request not attributed to the plain variant")
	}
	if ps := srv.Snapshot().Pools["vgg/plain"]; ps.Routed != 1 {
		t.Fatalf("pool snapshot missing routed traffic: %+v", ps)
	}
}

func TestClientPublicAPI(t *testing.T) {
	// The transport-agnostic Client surface end to end through the
	// facade: the same Request answered by a LocalClient, by an
	// HTTPClient over a loopback listener, and by a MuxClient over a
	// loopback DLW2 session — with identical logits and with the typed
	// sentinels surviving both wires under errors.Is.
	base := StackConfig{Model: "mini-vgg", Technique: Plain,
		Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1}
	cfg := DefaultServerConfig()
	cfg.Endpoints = []ServerEndpoint{NewEndpoint("vgg", base, Plain, WeightPruned)}
	cfg.Replicas, cfg.MaxBatch, cfg.MaxDelay = 1, 2, time.Millisecond
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocalClient(srv)
	defer local.Close() // owns the server shutdown
	ts := httptest.NewServer(NewHTTPHandler(srv, 0))
	defer ts.Close()
	remote := NewHTTPClient(ts.URL)
	defer remote.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ml := NewMuxListener(srv, MuxListenerConfig{})
	go ml.Serve(ln)
	defer ml.Close()
	mux := NewMuxClient(ln.Addr().String())
	defer mux.Close()

	ctx := context.Background()
	img := NewImage(1, 32, 32, 3)
	req := Request{Target: "vgg", Images: []*Tensor{img}, SLO: SLO{MinAccuracy: 90, Priority: 1}}
	want, err := local.InferSync(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Client{"remote": remote, "mux": mux} {
		got, err := c.InferSync(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wf, gf := want.First(), got.First()
		if wf.Stack != gf.Stack || wf.Class != gf.Class {
			t.Fatalf("transports disagree: local %s/%d, %s %s/%d", wf.Stack, wf.Class, name, gf.Stack, gf.Class)
		}
		for i, v := range wf.Output.Data() {
			if v != gf.Output.Data()[i] {
				t.Fatalf("%s logits differ from local logits", name)
			}
		}
	}

	// Session streaming through the facade: Send pipelines without
	// awaiting, Recv collects in completion order, ids match up — the
	// same contract in process and over a DLW2 connection.
	for name, c := range map[string]Client{"local": local, "mux": mux} {
		sess, err := c.Session(ctx)
		if err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
		sent := map[uint64]bool{}
		for i := 0; i < 3; i++ {
			id, err := sess.Send(req)
			if err != nil {
				t.Fatalf("%s send %d: %v", name, i, err)
			}
			if sent[id] {
				t.Fatalf("%s reused session id %d", name, id)
			}
			sent[id] = true
		}
		for i := 0; i < 3; i++ {
			res, err := sess.Recv()
			if err != nil {
				t.Fatalf("%s recv %d: %v", name, i, err)
			}
			if !sent[res.ID] {
				t.Fatalf("%s recv unknown id %d", name, res.ID)
			}
			if res.Err != nil {
				t.Fatalf("%s session result %d: %v", name, res.ID, res.Err)
			}
			if res.Resp.First().Class != want.First().Class {
				t.Fatalf("%s session logits disagree with sync path", name)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("%s session close: %v", name, err)
		}
	}

	// The unified option vocabulary: the same slice configures either
	// transport DialBackend picks, and the Request's tenant is what
	// the server's meter sees over each.
	opts := []ClientOption{WithPoolSize(2)}
	tenanted := req
	tenanted.Tenant = "opted"
	for _, addr := range []string{ts.URL, DLW2Scheme + "://" + ln.Addr().String()} {
		c := DialBackend(addr, opts...)
		if _, err := c.InferSync(ctx, tenanted); err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		c.Close()
	}
	if st, err := local.Stats(ctx); err != nil || st.Tenants["opted"].Requests != 2 {
		t.Fatalf("request tenant not metered over both transports: tenants %+v, %v", st.Tenants, err)
	}

	// Discovery parity: both transports list the same targets.
	lm, err := local.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := remote.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lm) != len(rm) || lm[0].Name != rm[0].Name || lm[0].Kind != rm[0].Kind {
		t.Fatalf("Models disagree: local %+v, remote %+v", lm, rm)
	}

	// The acceptance contract: typed sentinels hold across every
	// transport exactly as for local calls.
	for name, c := range map[string]Client{"local": local, "remote": remote, "mux": mux} {
		if _, err := c.InferSync(ctx, Request{Target: "gone", Images: []*Tensor{img}}); !errors.Is(err, ErrUnknownTarget) {
			t.Fatalf("%s unknown target: err = %v, want ErrUnknownTarget", name, err)
		}
	}
	// Give every variant pool an observed batch time, then demand a
	// deadline no batch can make: the latency gate must answer
	// ErrNoVariant — across the wire too.
	for _, m := range lm {
		if m.Kind == "stack" {
			if _, err := remote.InferSync(ctx, Request{Target: m.Name, Images: []*Tensor{img}}); err != nil {
				t.Fatalf("warming %s: %v", m.Name, err)
			}
		}
	}
	impossible := Request{Target: "vgg", Images: []*Tensor{img}, SLO: SLO{MaxLatency: time.Nanosecond, Priority: 1}}
	if _, err := remote.InferSync(ctx, impossible); !errors.Is(err, ErrNoVariant) {
		t.Fatalf("impossible deadline over HTTP: err = %v, want ErrNoVariant", err)
	}
	if _, err := mux.InferSync(ctx, impossible); !errors.Is(err, ErrNoVariant) {
		t.Fatalf("impossible deadline over DLW2: err = %v, want ErrNoVariant", err)
	}
	srv.Close()
	if _, err := remote.InferSync(ctx, req); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("closed server over HTTP: err = %v, want ErrServerClosed", err)
	}
	if _, err := mux.InferSync(ctx, req); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("closed server over DLW2: err = %v, want ErrServerClosed", err)
	}
}

func TestClusterPublicAPI(t *testing.T) {
	// The sharded serving tier through the facade: a Cluster over two
	// in-process servers is a drop-in Client — requests are answered,
	// the merged stats fold both members, the snapshot reports health,
	// and Close drains the fleet.
	newServer := func() *Server {
		cfg := DefaultServerConfig()
		cfg.Stacks = []ServerStack{{Name: "m", Stack: StackConfig{
			Model: "mini-mobilenet", Technique: Plain,
			Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
		}}}
		cfg.Replicas, cfg.MaxBatch, cfg.MaxDelay = 1, 4, time.Millisecond
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	cl, err := NewCluster([]ClusterMember{
		{Name: "a", Client: NewLocalClient(newServer())},
		{Name: "b", Client: NewLocalClient(newServer())},
	}, WithProbeInterval(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var _ Client = cl // the acceptance contract: Cluster is a Client verbatim

	ctx := context.Background()

	ms, err := cl.Models(ctx)
	if err != nil || len(ms) != 1 || ms[0].Name != "m" {
		t.Fatalf("cluster models = %+v, %v", ms, err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		resp, err := cl.InferSync(ctx, Request{Target: "m", Images: []*Tensor{NewImage(1, 32, 32, uint64(i+1))}})
		if err != nil {
			t.Fatal(err)
		}
		if res := resp.First(); !res.Output.AllFinite() || res.Output.NumElements() != 10 {
			t.Fatalf("request %d: implausible logits %v", i, res.Output)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pools["m"].Completed != n {
		t.Fatalf("merged completed = %d, want %d", st.Pools["m"].Completed, n)
	}
	snap := cl.Snapshot()
	if len(snap.Members) != 2 || snap.Served != n {
		t.Fatalf("cluster snapshot = %+v", snap)
	}
	for _, m := range snap.Members {
		if !m.Healthy {
			t.Fatalf("member %s unhealthy in a loopback cluster", m.Member)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InferSync(ctx, Request{Target: "m", Images: []*Tensor{NewImage(1, 32, 32, 1)}}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("closed cluster: err = %v, want ErrServerClosed", err)
	}
}

// TestDialBackendPicksTransportFromAddress pins the one transport
// switch: dlw2:// is the mux client, and http://, https:// or a bare
// host:port is the HTTP client. Nothing is dialed to decide.
func TestDialBackendPicksTransportFromAddress(t *testing.T) {
	for _, tc := range []struct {
		addr string
		mux  bool
	}{
		{"dlw2://127.0.0.1:18091", true},
		{"http://127.0.0.1:18080", false},
		{"https://127.0.0.1:18443", false},
		{"127.0.0.1:18080", false},
		{"backend:18080", false},
	} {
		c := DialBackend(tc.addr)
		switch c.(type) {
		case *MuxClient:
			if !tc.mux {
				t.Errorf("DialBackend(%q) = *MuxClient, want *HTTPClient", tc.addr)
			}
		case *HTTPClient:
			if tc.mux {
				t.Errorf("DialBackend(%q) = *HTTPClient, want *MuxClient", tc.addr)
			}
		default:
			t.Errorf("DialBackend(%q) = %T", tc.addr, c)
		}
		c.Close()
	}
}

// TestClusterBareMemberHealthyAtBoot regresses a slow, ejected boot: a
// bare member address naming an HTTP listener is healthy as soon as
// NewCluster returns, because the boot probe goes straight to HTTP
// instead of first waiting out an unanswered DLW2 hello.
func TestClusterBareMemberHealthyAtBoot(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Stacks = []ServerStack{{Name: "m", Stack: StackConfig{
		Model: "mini-mobilenet", Technique: Plain,
		Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	}}}
	cfg.Replicas, cfg.MaxBatch, cfg.MaxDelay = 1, 2, time.Millisecond
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewHTTPHandler(srv, 0))
	defer ts.Close()
	addr := ts.Listener.Addr().String() // bare host:port, no scheme
	// A negative interval stops the background prober, so the health
	// read below is the boot probe's verdict alone.
	cl, err := NewCluster([]ClusterMember{{Name: addr, Client: DialBackend(addr)}},
		WithProbeInterval(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if m := cl.Snapshot().Members[0]; !m.Healthy {
		t.Fatalf("bare HTTP member %s not healthy after NewCluster: %+v", addr, m)
	}
	resp, err := cl.InferSync(context.Background(), Request{Target: "m", Images: []*Tensor{NewImage(1, 32, 32, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.First(); res.Stack != "m" {
		t.Fatalf("response metadata: %+v", res)
	}
}

// TestFleetConfigPublicAPI exercises the declarative-config surface
// end-to-end through the facade: parse a fleet file, validate it with
// a typed error on the broken variant, resolve defaults, lower it to a
// ServerConfig and serve one request through it.
func TestFleetConfigPublicAPI(t *testing.T) {
	cfg, err := ParseFleetConfig([]byte(`{
		"pool": {"replicas": 1, "batch": 4},
		"models": [{"kind": "mini-vgg"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Mode(); got != FleetModeLocal {
		t.Fatalf("mode = %v, want FleetModeLocal", got)
	}
	r := cfg.Resolve()
	if r.Load == nil || len(r.Load.Targets) != 1 || r.Load.Targets[0] != "mini-vgg/plain" {
		t.Fatalf("resolved load = %+v, want the derived mini-vgg/plain target", r.Load)
	}
	if cfg.Topology() == "" {
		t.Fatal("Topology must render the resolved fleet")
	}

	scfg, err := cfg.ServerConfig()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	client := NewLocalClient(srv)
	defer client.Close()
	res, err := client.InferSync(context.Background(), Request{
		Target: "mini-vgg/plain", Images: []*Tensor{NewImage(1, 32, 32, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("results = %+v, want one", res.Results)
	}

	// A broken config must reject with the typed, field-path error.
	bad, err := ParseFleetConfig([]byte(`{"models": [{"kind": "alexnet"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ferr *FleetConfigError
	if err := bad.Validate(); !errors.As(err, &ferr) || ferr.Path != "models[0].kind" {
		t.Fatalf("validate error = %v, want *FleetConfigError at models[0].kind", err)
	}

	// Unknown fields must be parse errors, not silently dropped config.
	if _, err := ParseFleetConfig([]byte(`{"modles": []}`)); err == nil {
		t.Fatal("ParseFleetConfig accepted an unknown field")
	}
}
