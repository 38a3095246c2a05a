package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	dlis "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/tensor"
)

// topology names the path one op takes through the stack — which layers
// a workload exercises and which it bypasses.
type topology int

const (
	// topoEngine calls core.Instance.Run directly: no serving layer.
	topoEngine topology = iota
	// topoLocal drives a pool through serve.LocalClient: intake, batcher
	// and workers, no transport.
	topoLocal
	// topoDLW2 drives the same pool through one dlw2:// session.
	topoDLW2
	// topoCluster fronts one http:// and one dlw2:// backend with a
	// cluster.Cluster.
	topoCluster
)

// weightSeed fixes every workload's weights; only images and arrival
// schedules follow --seed, so two runs differ in inputs, never in model.
const weightSeed = 1

// platform is the modelled target every stack names; host execution
// ignores it beyond validation.
const platform = "odroid-xu4"

// workload is one named traffic mix. The fields are the whole
// definition: nothing about a workload is decided anywhere else.
type workload struct {
	workloadDef
	topo topology
	// stacks are the stack configurations involved. An engine op runs its
	// input through every stack in turn; a serving workload hosts
	// stacks[0] as its one pool.
	stacks []core.Config
	// batch is the images per op: the N of an engine input, or the
	// images one request carries.
	batch int
	// callers is the closed-loop concurrency; rate > 0 makes the
	// workload open-loop at that many requests per second instead.
	callers int
	rate    float64
	// replicas, maxBatch and maxDelay tune the serving pool.
	replicas, maxBatch int
	maxDelay           time.Duration
	// tenants, when set, registers both as equal-weight tenants and
	// offers them in a 3:1 mix.
	tenants []string
	// images is how many distinct seeded inputs the ops cycle through:
	// each needs an eager reference forward pass for the oracle, which
	// on resnet18 costs 0.65 s apiece.
	images int
	// setupRepeats is how many times set-up is measured (one child
	// process each); setup_s is their median.
	setupRepeats int
}

func plain(model string, backend core.Backend, threads int) core.Config {
	return core.Config{Model: model, Technique: core.Plain, Backend: backend,
		Threads: threads, Platform: platform, Seed: weightSeed}
}

// tableIII returns model's stack at the paper's Table III operating
// point for tech.
func tableIII(model string, tech core.Technique) core.Config {
	pts, err := dlis.TableIII(model)
	if err != nil {
		panic(err) // a model name typed into the table below
	}
	c := plain(model, core.OMP, 1)
	c.Technique, c.Point = tech, pts[tech]
	return c
}

// dlw2OpenRate is serve.dlw2.open's fixed offered rate: about 60 % of
// the 80 req/s its pool sustains on the reference host (`sweep`), which
// keeps the worker ≈ 40 % busy (see README.md, "Freezing the open-loop
// rate").
const dlw2OpenRate = 50.0

// workloads is the benchmark: six traffic mixes from kernel to cluster.
// AutoAlgo is false everywhere so plan algorithms cannot flip between
// runs.
func workloads() []workload {
	return []workload{
		{
			workloadDef: workloadDef{"engine.dense.b1", "resnet18/plain as im2col+GEMM at batch 1 on one thread: the paper's model at paper-scale conv geometry, all time in blas+nn, bypassing every serving layer."},
			topo:        topoEngine,
			stacks:      []core.Config{plain("resnet18", core.CLBlast, 1)},
			batch:       1, callers: 1, images: 2, setupRepeats: 3,
		},
		{
			workloadDef: workloadDef{"engine.compressed.b1", "resnet18 at Table III: one image through the weight-pruned (CSR) then the quantised (int8) stack. The only workload where sparse and blas.QGEMMInt8Into do the work."},
			topo:        topoEngine,
			stacks:      []core.Config{tableIII("resnet18", core.WeightPruned), tableIII("resnet18", core.Quantised)},
			batch:       1, callers: 1, images: 2, setupRepeats: 3,
		},
		{
			workloadDef: workloadDef{"engine.dense.b8", "mini-vgg/plain direct conv at batch 8 on one thread (the BENCH_7 plan/batch=8 configuration): the batched N dimension, where a batch-1-only kernel tweak that hurts batched plans shows."},
			topo:        topoEngine,
			stacks:      []core.Config{plain("mini-vgg", core.OMP, 1)},
			batch:       8, callers: 1, images: 16, setupRepeats: 7,
		},
		{
			workloadDef: workloadDef{"serve.local.closed", "mini-vgg pool (1 replica, MaxBatch 4) saturated by 8 closed-loop LocalClient callers: intake+batcher+worker at occupancy 4 with no transport, so wire changes must read no change."},
			topo:        topoLocal,
			stacks:      []core.Config{plain("mini-vgg", core.OMP, 1)},
			batch:       1, callers: 8, replicas: 1, maxBatch: 4, maxDelay: time.Millisecond,
			images: 16, setupRepeats: 7,
		},
		{
			workloadDef: workloadDef{"serve.dlw2.open", "the same pool behind one dlw2:// session under open-loop Poisson arrivals at a fixed 50 req/s (~40% busy): partial load is where batch delay, queueing and the DLW2 hot path show."},
			topo:        topoDLW2,
			stacks:      []core.Config{plain("mini-vgg", core.OMP, 1)},
			batch:       1, rate: dlw2OpenRate, replicas: 1, maxBatch: 4, maxDelay: time.Millisecond,
			images: 16, setupRepeats: 7,
		},
		{
			workloadDef: workloadDef{"cluster.mixed.closed", "two mini-mobilenet backends, one over http:// and one over dlw2://, behind a Cluster; 2 callers, 4-image requests, two tenants 3:1: fat payloads, HTTP beside DLW2, DRR intake, p2c placement."},
			topo:        topoCluster,
			stacks:      []core.Config{plain("mini-mobilenet", core.OMP, 1)},
			batch:       4, callers: 2, replicas: 1, maxBatch: 4, maxDelay: time.Millisecond,
			tenants: []string{"tenant-a", "tenant-b"},
			images:  16, setupRepeats: 7,
		},
	}
}

func workloadNames() []string {
	ws := workloads()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return &w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload name: %s (have %v)", name, workloadNames())
}

// selectWorkloads returns the named workload, or all six for "".
func selectWorkloads(name string) ([]workload, error) {
	if name == "" {
		return workloads(), nil
	}
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	return []workload{*w}, nil
}

// poolName is the routing name stack s is hosted under. A serving
// workload's ops target pool 0; the ladder hosts one pool per stack.
func poolName(s int) string { return fmt.Sprintf("m%d", s) }

// tenantFor returns the tenant op i is offered as: a 3:1 mix of the
// workload's two tenants, empty for single-tenant workloads.
func (w *workload) tenantFor(i int) string {
	if len(w.tenants) == 0 {
		return ""
	}
	if i%4 == 3 {
		return w.tenants[1]
	}
	return w.tenants[0]
}

// env is a workload set up and ready: the instances, servers, listeners
// and clients an op runs through. close tears everything down and waits
// for every goroutine the harness started.
type env struct {
	w       *workload
	insts   []*core.Instance // topoEngine: one per stack
	servers []*serve.Server
	client  serve.Client // serving topologies: what an op calls
	cluster *cluster.Cluster
	// instantiateS is the time spent in core.Instantiate (engine) or
	// serve.New (serving), the share of set-up the core layer owns.
	instantiateS float64
	closers      []func()
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// newServer boots one server hosting every stack of w as its own pool.
func newServer(w *workload) (*serve.Server, error) {
	scfg := serve.Config{Replicas: w.replicas, MaxBatch: w.maxBatch, MaxDelay: w.maxDelay}
	for s, cfg := range w.stacks {
		scfg.Stacks = append(scfg.Stacks, serve.StackSpec{Name: poolName(s), Stack: cfg})
	}
	if len(w.tenants) > 0 {
		specs := make(map[string]serve.TenantSpec, len(w.tenants))
		for _, id := range w.tenants {
			specs[id] = serve.TenantSpec{Weight: 1}
		}
		// A negative interval keeps the meter from writing anywhere.
		scfg.Tenants = &serve.TenantConfig{SnapshotInterval: -1, Tenants: specs}
	}
	return serve.New(scfg)
}

// listenMux serves srv over DLW2 on a loopback port of the kernel's
// choosing and returns the dlw2:// address.
func (e *env) listenMux(srv *serve.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ml := dlis.NewMuxListener(srv, dlis.MuxListenerConfig{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ml.Serve(ln) // returns once Close below closes ln
	}()
	e.closers = append(e.closers, func() {
		_ = ml.Close() // every client is closed by now: nothing in flight
		wg.Wait()
	})
	return dlis.DLW2Scheme + "://" + ln.Addr().String(), nil
}

// listenHTTP serves srv over HTTP on a loopback port and returns the
// http:// address.
func (e *env) listenHTTP(srv *serve.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: dlis.NewHTTPHandler(srv, 0)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // http.ErrServerClosed after Shutdown
	}()
	e.closers = append(e.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		wg.Wait()
	})
	return "http://" + ln.Addr().String(), nil
}

func (e *env) addServer() (*serve.Server, error) {
	start := time.Now()
	srv, err := newServer(e.w)
	if err != nil {
		return nil, err
	}
	e.instantiateS += time.Since(start).Seconds()
	e.servers = append(e.servers, srv)
	e.closers = append(e.closers, srv.Close)
	return srv, nil
}

func (e *env) addClient(c serve.Client) serve.Client {
	e.closers = append(e.closers, func() { _ = c.Close() })
	return c
}

// setUp builds the workload's environment up to "ready": stacks
// instantiated, listeners up, clients connected. Warm-up ops are the
// caller's, since they need inputs.
func setUp(w *workload) (*env, error) {
	e := &env{w: w}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	switch w.topo {
	case topoEngine:
		for _, cfg := range w.stacks {
			start := time.Now()
			inst, err := core.Instantiate(cfg)
			if err != nil {
				return fail(err)
			}
			e.instantiateS += time.Since(start).Seconds()
			e.insts = append(e.insts, inst)
		}
	case topoLocal:
		srv, err := e.addServer()
		if err != nil {
			return fail(err)
		}
		// Not addClient: LocalClient.Close would close the server twice.
		e.client = serve.NewLocalClient(srv)
	case topoDLW2:
		srv, err := e.addServer()
		if err != nil {
			return fail(err)
		}
		addr, err := e.listenMux(srv)
		if err != nil {
			return fail(err)
		}
		e.client = e.addClient(dlis.NewMuxClient(addr, dlis.WithPoolSize(1)))
	case topoCluster:
		var members []cluster.Member
		for i, listen := range []func(*serve.Server) (string, error){e.listenHTTP, e.listenMux} {
			srv, err := e.addServer()
			if err != nil {
				return fail(err)
			}
			addr, err := listen(srv)
			if err != nil {
				return fail(err)
			}
			// One pooled connection per member: callers ≤ nproc share it.
			members = append(members, cluster.Member{
				Name:   fmt.Sprintf("member-%d-%s", i, addr),
				Client: dlis.DialBackend(addr, dlis.WithPoolSize(1)),
			})
		}
		cl, err := dlis.NewCluster(members)
		if err != nil {
			for _, m := range members {
				_ = m.Client.Close()
			}
			return fail(err)
		}
		e.cluster = cl
		e.client = e.addClient(cl) // Cluster.Close closes its members
	}
	return e, nil
}

// inputs are a workload's seeded images and, per op index, the prebuilt
// engine input or request, so the measured loop allocates nothing of
// its own.
type inputs struct {
	images  []*tensor.Tensor   // C×H×W each
	batches []*tensor.Tensor   // topoEngine: N×C×H×W, batches[k] = images k … k+N-1
	groups  [][]*tensor.Tensor // serving: groups[k] = images k … k+batch-1
}

// imageIndex is the image row j of op k reads.
func (in *inputs) imageIndex(k, j int) int { return (k + j) % len(in.images) }

// makeInputs draws the workload's images from seed: the same seed gives
// the same inputs, bit for bit.
func makeInputs(w *workload, shape tensor.Shape, seed uint64) *inputs {
	rng := tensor.NewRNG(seed*0x9E3779B97F4A7C15 + 0x6a09e667f3bcc909)
	in := &inputs{images: make([]*tensor.Tensor, w.images)}
	for i := range in.images {
		in.images[i] = tensor.New(shape...)
		in.images[i].FillNormal(rng, 0, 1)
	}
	per := shape.NumElements()
	for k := range in.images {
		group := make([]*tensor.Tensor, w.batch)
		b := tensor.New(w.batch, shape[0], shape[1], shape[2])
		for j := range group {
			group[j] = in.images[in.imageIndex(k, j)]
			copy(b.Data()[j*per:(j+1)*per], group[j].Data())
		}
		in.groups = append(in.groups, group)
		in.batches = append(in.batches, b)
	}
	return in
}

// inputShape is the per-image C×H×W shape of the workload's model.
func (e *env) inputShape() (tensor.Shape, error) {
	if len(e.insts) > 0 {
		return e.insts[0].Net.InputShape, nil
	}
	return e.servers[0].InputShape(poolName(0))
}

// request builds op i's request.
func (e *env) request(in *inputs, i int) serve.Request {
	return serve.Request{Target: poolName(0), Images: in.groups[i%len(in.groups)], Tenant: e.w.tenantFor(i)}
}

// do performs op i synchronously and logs every output row for the
// oracle. It is the one place an op is defined, shared by warm-up, the
// measured loops and the ladder. Only a structurally wrong answer (an
// error, a missing row) fails here; logits are judged after the clock
// stops (see outLog).
func (e *env) do(ctx context.Context, in *inputs, i int, log *outLog) error {
	k := i % len(in.images)
	if e.w.topo == topoEngine {
		for s, inst := range e.insts {
			out := inst.Run(in.batches[k]).Output
			if err := log.addRows(out.Data(), e.w.batch, i, s, k, in); err != nil {
				return err
			}
		}
		return nil
	}
	resp, err := e.client.InferSync(ctx, e.request(in, i))
	if err != nil {
		return err
	}
	return log.addResponse(resp, e.w.batch, i, 0, k, in)
}

// warmUp runs the ops that finish lazy set-up: every engine plan
// compiles on its first Run, and a pool compiles one plan per batch
// size it meets, so each size 1…MaxBatch is offered to every replica.
func (e *env) warmUp(ctx context.Context, in *inputs) error {
	if e.w.topo == topoEngine {
		return e.do(ctx, in, 0, nil)
	}
	for size := 1; size <= e.w.maxBatch; size++ {
		errs := make(chan error, 2*e.w.replicas*len(e.servers))
		var wg sync.WaitGroup
		for r := 0; r < cap(errs); r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				imgs := make([]*tensor.Tensor, size)
				for j := range imgs {
					imgs[j] = in.images[in.imageIndex(r, j)]
				}
				resp, err := e.client.InferSync(ctx, serve.Request{Target: poolName(0), Images: imgs, Tenant: e.w.tenantFor(r)})
				if err == nil {
					err = resp.Err()
				}
				errs <- err
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return fmt.Errorf("%s: warm-up: %w", e.w.Name, err)
			}
		}
	}
	return nil
}
