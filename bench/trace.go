package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	dlis "repro"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// The traced run. End-to-end metrics are measured with tracing off; a
// separate traced run of the same workload gives the per-layer numbers:
//
//  1. the workload itself, untraced then traced, which prices the
//     tracing and reads the serving layers' own counters;
//  2. the layer ladder — the same seeded op at concurrency 1 through
//     nn.Plan.Execute → core.Instance.Run → serve.LocalClient → dlw2://
//     and http:// → a one-member Cluster; each rung's median minus the
//     rung below is the time that layer adds;
//  3. the kernels (blas, sparse, parallel) on the heaviest conv geometry
//     of the workload's own model.

// rung is one step of the layer ladder.
type rung struct {
	Layer string `json:"layer"` // module name
	Below string `json:"below"` // the rung this one is stacked on; "" for the first
	spread
	// AddedMS is this rung's median minus the median of the rung below.
	// Resolved is false when that difference is inside the spread (IQR)
	// of the rung below — the layer's cost then cannot be told from
	// noise and is reported as unresolved, never as zero.
	AddedMS  float64 `json:"added_ms"`
	Resolved bool    `json:"resolved"`
}

// tenantLine is one tenant's view of the traced phase.
type tenantLine struct {
	Admitted uint64  `json:"admitted"`
	Images   uint64  `json:"images"`
	Rejected uint64  `json:"rejected"` // shed + quota
	P50MS    float64 `json:"p50_ms"`
}

// memberLine is one cluster member's share of the traced phase.
type memberLine struct {
	Member    string  `json:"member"`
	Share     float64 `json:"share"`
	Served    uint64  `json:"served"`
	Failed    uint64  `json:"failed"`
	Ejections uint64  `json:"ejections"`
}

// traceResult is everything one traced run of one workload produced.
type traceResult struct {
	Layers      map[string]float64    `json:"per_layer"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	Untraced    *phase                `json:"untraced"`
	Traced      *phase                `json:"traced"`
	OverheadPct float64               `json:"tracing_overhead_pct"`
	SelfMS      map[string]spread     `json:"span_self_ms"`
	Serve       *serveDelta           `json:"serve,omitempty"`
	Tenants     map[string]tenantLine `json:"tenants,omitempty"`
	Members     []memberLine          `json:"members,omitempty"`
	Retries     uint64                `json:"cluster_overload_retries"`
	Failovers   uint64                `json:"cluster_failovers"`
	Ladder      []rung                `json:"ladder"`
	Kernels     *kernelResult         `json:"kernels"`
	EagerMS     spread                `json:"eager_ms"`
	Spans       []span                `json:"spans"`
}

func msOf(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	return out
}

// runTrace is the "trace" child mode.
func runTrace(ctx context.Context, r *ready, o options) (*traceResult, error) {
	w, e := r.env.w, r.env
	t := &traceResult{Layers: make(map[string]float64)}
	d := time.Duration(o.seconds * float64(time.Second) / 4)

	// 1. The workload, untraced then traced.
	var err error
	if t.Untraced, err = runPhase(ctx, e, r.in, d, o.seed, nil); err != nil {
		return nil, err
	}
	tr := newTracer()
	before := e.counters()
	var clusterBefore cluster.Stats
	if e.cluster != nil {
		clusterBefore = e.cluster.Snapshot()
	}
	if t.Traced, err = runPhase(ctx, e, r.in, d, o.seed, tr); err != nil {
		return nil, err
	}
	t.OverheadPct = 100 * (t.Untraced.OpsPerS() - t.Traced.OpsPerS()) / t.Untraced.OpsPerS()
	if len(e.servers) > 0 {
		t.Serve = e.counters().since(before, t.Traced.WallS)
	}
	t.tenants(e, tr)
	if e.cluster != nil {
		t.members(clusterBefore, e.cluster.Snapshot())
	}

	// 2. The ladder, on a quiet machine: the workload's servers go first.
	insts := e.insts
	instantiateS := e.instantiateS
	e.close()
	if len(insts) == 0 {
		instantiateS = 0
		for _, cfg := range w.stacks {
			start := time.Now()
			inst, err := core.Instantiate(cfg)
			if err != nil {
				return nil, err
			}
			instantiateS += time.Since(start).Seconds()
			insts = append(insts, inst)
		}
	}
	t.Layers["core.instantiate_s"] = instantiateS
	ladderLog := newOutLog(maxLadderRounds*6, w.batch*len(w.stacks))
	if err := t.ladder(ctx, r, insts, tr, ladderLog, time.Duration(o.seconds*float64(time.Second)/2)); err != nil {
		return nil, err
	}

	// 3. Kernels and the eager path on the workload's own model.
	t.Kernels = measureKernels(insts[0].Net, kernelReps)
	t.Layers["blas.gemm_gflops"] = t.Kernels.GEMM.GFLOPS
	t.Layers["blas.qgemm_gops"] = t.Kernels.QGEMM.GFLOPS
	t.Layers["sparse.conv_gflops"] = t.Kernels.Sparse.GFLOPS
	t.Layers["parallel.gemm_speedup"] = t.Kernels.ParallelSpeedup
	t.eager(r, insts)

	// Every output of the run is judged now, after all timing.
	nets := make([]*nn.Network, len(insts))
	for s, inst := range insts {
		nets[s] = inst.Net
	}
	orc := newOracle(w.stacks, nets, r.in.images)
	t.Untraced.judge(orc)
	t.Traced.judge(orc)
	wrong, first := orc.verify(ladderLog)
	if first != nil {
		fmt.Fprintln(os.Stderr, "ladder:", first)
	}
	t.Attempted += t.Untraced.Attempted + t.Traced.Attempted
	t.Failed += t.Untraced.Failed + t.Traced.Failed + wrong

	t.SelfMS = make(map[string]spread)
	for name, ds := range tr.selfTimes() {
		t.SelfMS[name] = summarise(msOf(ds))
	}
	t.Spans = tr.spans
	return t, nil
}

// tenants reads each tenant's counters from the servers' meters and its
// median latency from the traced spans.
func (t *traceResult) tenants(e *env, tr *tracer) {
	if len(e.w.tenants) == 0 {
		return
	}
	t.Tenants = make(map[string]tenantLine)
	lat := make(map[string][]float64)
	for _, s := range tr.spans {
		id := e.w.tenantFor(s.Op)
		lat[id] = append(lat[id], float64(s.EndNS-s.StartNS)/1e6)
	}
	for _, id := range e.w.tenants {
		var line tenantLine
		for _, srv := range e.servers {
			u := srv.TenantUsageSnapshot()[id]
			line.Admitted += u.Requests
			line.Images += u.Images
			line.Rejected += u.Shed + u.QuotaRejected
		}
		line.P50MS = summarise(lat[id]).Median
		t.Tenants[id] = line
	}
}

// members reads the cluster's own counters over the traced phase.
func (t *traceResult) members(before, after cluster.Stats) {
	t.Retries = after.OverloadRetries - before.OverloadRetries
	t.Failovers = after.Failovers - before.Failovers
	var total uint64
	for i, m := range after.Members {
		total += m.Served - before.Members[i].Served
	}
	for i, m := range after.Members {
		line := memberLine{
			Member:    m.Member,
			Served:    m.Served - before.Members[i].Served,
			Failed:    m.Failed - before.Members[i].Failed,
			Ejections: m.Ejections - before.Members[i].Ejections,
		}
		if total > 0 {
			line.Share = float64(line.Served) / float64(total)
		}
		t.Members = append(t.Members, line)
	}
}

// ladderRounds bounds how many times the ladder visits every rung.
const (
	minLadderRounds = 5
	maxLadderRounds = 40
)

// ladder measures the layer ladder for the workload's own op: its
// stacks, its images per op, its pool tuning, one replica, one caller.
func (t *traceResult) ladder(ctx context.Context, r *ready, insts []*core.Instance, tr *tracer, log *outLog, budget time.Duration) error {
	w := *r.env.w
	w.replicas, w.tenants = 1, nil
	if w.maxBatch < w.batch {
		w.maxBatch = w.batch
	}
	if w.maxDelay == 0 {
		w.maxDelay = time.Millisecond
	}
	e := &env{w: &w}
	defer e.close()
	srv, err := e.addServer()
	if err != nil {
		return err
	}
	muxAddr, err := e.listenMux(srv)
	if err != nil {
		return err
	}
	httpAddr, err := e.listenHTTP(srv)
	if err != nil {
		return err
	}
	local := serve.NewLocalClient(srv) // srv is closed by e.close
	mux := e.addClient(dlis.NewMuxClient(muxAddr, dlis.WithPoolSize(1)))
	httpc := e.addClient(dlis.NewHTTPClient(httpAddr))
	// The cluster rung fronts one bare dlw2:// member of its own, so the
	// rung below it is exactly that member reached directly.
	cl, err := dlis.NewCluster([]cluster.Member{{Name: "member", Client: dlis.NewMuxClient(muxAddr, dlis.WithPoolSize(1))}})
	if err != nil {
		return err
	}
	e.addClient(cl)

	plans := make([]*nn.Plan, len(insts))
	for s, inst := range insts {
		if plans[s], err = inst.PlanFor(w.batch); err != nil {
			return err
		}
	}
	in := r.in
	n := 0 // the round under way, the op id of everything it logs
	viaClient := func(c serve.Client) func() error {
		return func() error {
			for s := range insts {
				resp, err := c.InferSync(ctx, serve.Request{Target: poolName(s), Images: in.groups[0]})
				if err != nil {
					return err
				}
				if err := log.addResponse(resp, w.batch, n, s, 0, in); err != nil {
					return err
				}
			}
			return nil
		}
	}
	type step struct {
		layer, below string
		op           func() error
		ms           []float64
	}
	steps := []*step{
		{layer: "nn", op: func() error {
			for s, p := range plans {
				if err := log.addRows(p.Execute(in.batches[0]).Data(), w.batch, n, s, 0, in); err != nil {
					return err
				}
			}
			return nil
		}},
		{layer: "core", below: "nn", op: func() error {
			for s, inst := range insts {
				if err := log.addRows(inst.Run(in.batches[0]).Output.Data(), w.batch, n, s, 0, in); err != nil {
					return err
				}
			}
			return nil
		}},
		{layer: "serve", below: "core", op: viaClient(local)},
		{layer: "serve/muxwire", below: "serve", op: viaClient(mux)},
		{layer: "serve/httpapi", below: "serve", op: viaClient(httpc)},
		{layer: "serve/cluster", below: "serve/muxwire", op: viaClient(cl)},
	}
	// Booting the ladder's server leaves a heap's worth of garbage
	// (pruning alone allocates hundreds of MB); collect it now, not
	// concurrently with the first rounds.
	runtime.GC()
	// One unrecorded round warms every path (plans, connections), and
	// prices a round so the budget can be turned into a round count.
	// Rungs are then visited round-robin so that drift on the host lands
	// on all of them alike.
	round := func(record bool) error {
		parent := tr.begin("ladder", noSpan, n)
		defer tr.end(parent)
		for _, st := range steps {
			sp := tr.begin(st.layer, parent, n)
			start := time.Now()
			err := st.op()
			took := time.Since(start)
			tr.end(sp)
			t.Attempted++
			if err != nil {
				t.Failed++
				return fmt.Errorf("ladder rung %s: %w", st.layer, err)
			}
			if record {
				st.ms = append(st.ms, float64(took)/float64(time.Millisecond))
			}
		}
		return nil
	}
	start := time.Now()
	if err := round(false); err != nil {
		return err
	}
	rounds := int(budget / time.Since(start))
	rounds = min(max(rounds, minLadderRounds), maxLadderRounds)
	for n = 1; n <= rounds; n++ {
		if err := round(true); err != nil {
			return err
		}
	}
	byLayer := make(map[string]spread)
	for _, st := range steps {
		rg := rung{Layer: st.layer, Below: st.below, spread: summarise(st.ms)}
		byLayer[st.layer] = rg.spread
		if below, ok := byLayer[st.below]; ok {
			rg.AddedMS = rg.Median - below.Median
			rg.Resolved = rg.AddedMS > below.IQR()
		}
		t.Ladder = append(t.Ladder, rg)
	}
	t.Layers["nn.plan_ms"] = byLayer["nn"].Median
	t.Layers["core.run_ms"] = byLayer["core"].Median
	t.Layers["serve.local_ms"] = byLayer["serve"].Median
	t.Layers["serve.muxwire.dlw2_ms"] = byLayer["serve/muxwire"].Median
	t.Layers["serve.httpapi.http_ms"] = byLayer["serve/httpapi"].Median
	t.Layers["serve.cluster.member_ms"] = byLayer["serve/cluster"].Median
	return nil
}

// eagerReps is how often the eager path is timed; on resnet18 one pass
// costs half a second.
const eagerReps = 5

// eager times the allocating Network.Forward path under the same
// algorithm the plans run, on the ladder's op.
func (t *traceResult) eager(r *ready, insts []*core.Instance) {
	var ms []float64
	for i := 0; i < eagerReps; i++ {
		start := time.Now()
		for _, inst := range insts {
			ctx := nn.Inference()
			ctx.Threads, ctx.Algo = inst.Config.Threads, inst.Config.ExecAlgo()
			inst.Net.Forward(&ctx, r.in.batches[0])
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	t.EagerMS = summarise(ms)
	t.Layers["nn.eager_ms"] = t.EagerMS.Median
}

// print writes the traced run for a human.
func (t *traceResult) print(w io.Writer) {
	fmt.Fprintf(w, "tracing overhead: untraced %.2f op/s, traced %.2f op/s → %.2f%%\n",
		t.Untraced.OpsPerS(), t.Traced.OpsPerS(), t.OverheadPct)
	if s := t.Serve; s != nil {
		fmt.Fprintf(w, "serve (Server.Snapshot over the traced phase): batches=%d occupancy=%.2f batch=%.3fms utilisation=%.1f%% queue_at_end=%d shed=%d failed=%d\n",
			s.Batches, s.MeanOccupancy, s.MeanBatchMS, 100*s.Utilisation, s.QueueDepth, s.Shed, s.Failed)
	}
	ids := make([]string, 0, len(t.Tenants))
	for id := range t.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := t.Tenants[id]
		fmt.Fprintf(w, "serve/tenant %s: admitted=%d images=%d rejected=%d p50=%.3fms\n", id, l.Admitted, l.Images, l.Rejected, l.P50MS)
	}
	for _, m := range t.Members {
		fmt.Fprintf(w, "serve/cluster %s: share=%.1f%% served=%d failed=%d ejections=%d\n", m.Member, 100*m.Share, m.Served, m.Failed, m.Ejections)
	}
	if len(t.Members) > 0 {
		fmt.Fprintf(w, "serve/cluster: overload retries=%d failovers=%d\n", t.Retries, t.Failovers)
	}
	fmt.Fprintf(w, "layer ladder (same op, concurrency 1, n=%d per rung):\n", t.Ladder[0].N)
	fmt.Fprintf(w, "  %-14s %10s %10s   %s\n", "layer", "median ms", "IQR ms", "added over the rung below")
	for _, rg := range t.Ladder {
		added := ""
		switch {
		case rg.Below == "":
		case rg.Resolved:
			added = fmt.Sprintf("%+.4f ms over %s", rg.AddedMS, rg.Below)
		default:
			added = fmt.Sprintf("unresolved over %s (%+.4f ms is inside its spread)", rg.Below, rg.AddedMS)
		}
		fmt.Fprintf(w, "  %-14s %10.4f %10.4f   %s\n", rg.Layer, rg.Median, rg.IQR(), added)
	}
	fmt.Fprintf(w, "nn: eager Forward %.4f ms (IQR %.4f, n=%d) vs plan %.4f ms → eager/plan = %.3f\n",
		t.EagerMS.Median, t.EagerMS.IQR(), t.EagerMS.N, t.Layers["nn.plan_ms"], t.EagerMS.Median/t.Layers["nn.plan_ms"])
	t.Kernels.print(w)
	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-26s %12.4f %s\n", d.Name, t.Layers[d.Name], d.Unit)
	}
}
