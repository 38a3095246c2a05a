package dlis

// Benchmark harness: one benchmark per paper artifact (tables and
// figures). Each benchmark does real work on the host — executing the
// engine kernels, instantiating stack configurations, or evaluating the
// platform models — and attaches the projected full-size platform
// seconds as custom metrics ("sim-sec"), since the paper's absolute
// numbers come from hardware this container does not have (DESIGN.md §2).
//
// Regenerate the full text artifacts with: go run ./cmd/dlis-bench

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/compress/channel"
	"repro/internal/compress/huffman"
	"repro/internal/compress/prune"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// benchCache memoises full-size instantiations across benchmarks.
var benchCache sync.Map

func benchInstance(b *testing.B, model string, tech core.Technique, pts map[core.Technique]core.OperatingPoint) *core.Instance {
	b.Helper()
	key := fmt.Sprintf("%s/%v/%+v", model, tech, pts[tech])
	if v, ok := benchCache.Load(key); ok {
		return v.(*core.Instance)
	}
	inst, err := core.Instantiate(core.Config{
		Model: model, Technique: tech, Point: pts[tech],
		Backend: core.OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchCache.Store(key, inst)
	return inst
}

func tableIII(b *testing.B, model string) map[core.Technique]core.OperatingPoint {
	b.Helper()
	pts, err := pareto.TableIII(model)
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

func tableV(b *testing.B, model string) map[core.Technique]core.OperatingPoint {
	b.Helper()
	pts, err := pareto.TableV(model)
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

// BenchmarkFig1ExpectedVsObserved executes the real dense and CSR
// convolution kernels of a weight-pruned network (mini-VGG on the host)
// and reports the simulated full-size VGG-16/i7 numbers of Fig. 1.
func BenchmarkFig1ExpectedVsObserved(b *testing.B) {
	i7, _ := hw.ByName("intel-i7")
	for _, sparsity := range []float64{0.2, 0.5, 0.8} {
		for _, algo := range []nn.Algo{nn.Direct, nn.SparseDirect} {
			b.Run(fmt.Sprintf("sparsity=%.0f%%/%s", sparsity*100, algo), func(b *testing.B) {
				net, err := models.ByName("mini-vgg", tensor.NewRNG(1))
				if err != nil {
					b.Fatal(err)
				}
				prune.NetworkToSparsity(net, sparsity)
				full := benchInstance(b, "vgg16", core.WeightPruned,
					map[core.Technique]core.OperatingPoint{core.WeightPruned: {Sparsity: sparsity}})
				format := metrics.Dense
				if algo == nn.SparseDirect {
					format = metrics.CSR
				}
				sim := i7.NetworkTime(core.Workload(full.Net, 1, algo, format), 1)
				in := tensor.New(1, 3, 32, 32)
				in.FillNormal(tensor.NewRNG(2), 0, 1)
				ctx := nn.Inference()
				ctx.Algo = algo
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = net.Forward(&ctx, in)
				}
				b.ReportMetric(sim, "sim-sec")
			})
		}
	}
}

// BenchmarkFig3aWeightPruning measures the magnitude-pruning kernel
// itself (mask construction over a full-size layer) and reports the
// calibrated accuracy at the resulting sparsity.
func BenchmarkFig3aWeightPruning(b *testing.B) {
	for _, model := range models.Names() {
		b.Run(model, func(b *testing.B) {
			curve, err := pareto.WeightPruningCurve(model)
			if err != nil {
				b.Fatal(err)
			}
			p := nn.NewParam("w", 512, 512, 3, 3)
			p.W.FillNormal(tensor.NewRNG(3), 0, 0.05)
			orig := p.W.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p.W.CopyFrom(orig)
				p.Mask = nil
				b.StartTimer()
				prune.ToSparsity(p, 0.8)
			}
			b.ReportMetric(curve.At(0.8), "acc-%@80")
		})
	}
}

// BenchmarkFig3bChannelPruning measures channel-surgery throughput on a
// mini model and reports the calibrated accuracy at the paper's elbow.
func BenchmarkFig3bChannelPruning(b *testing.B) {
	for _, model := range models.Names() {
		b.Run(model, func(b *testing.B) {
			curve, err := pareto.ChannelPruningCurve(model)
			if err != nil {
				b.Fatal(err)
			}
			pts := tableIII(b, model)
			rate := pts[core.ChannelPruned].CompressionRate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mini, _ := models.ByName("mini-vgg", tensor.NewRNG(4))
				b.StartTimer()
				// Real surgery: shrink the mini network to the rate.
				channel.UniformShrink(mini, rate)
			}
			b.ReportMetric(curve.At(rate), "acc-%@elbow")
		})
	}
}

// BenchmarkFig3cQuantisation measures the ternary-quantisation kernel
// over a full-size layer and reports calibrated accuracy at the elbow.
func BenchmarkFig3cQuantisation(b *testing.B) {
	for _, model := range models.Names() {
		b.Run(model, func(b *testing.B) {
			curve, err := pareto.QuantisationCurve(model)
			if err != nil {
				b.Fatal(err)
			}
			pts := tableIII(b, model)
			thr := pts[core.Quantised].TTQThreshold
			w := tensor.New(512, 512, 3, 3)
			w.FillNormal(tensor.NewRNG(5), 0, 0.05)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta := float32(thr) * w.AbsMax()
				count := 0
				for _, v := range w.Data() {
					if v > delta || v < -delta {
						count++
					}
				}
				_ = count
			}
			b.ReportMetric(curve.At(thr), "acc-%@thr")
		})
	}
}

// BenchmarkFig4Baselines evaluates the platform cost model for every
// model × technique × platform of Fig. 4 and reports the simulated
// seconds at the maximum thread count.
func BenchmarkFig4Baselines(b *testing.B) {
	for _, model := range models.Names() {
		pts := tableIII(b, model)
		for _, tech := range core.Techniques() {
			inst := benchInstance(b, model, tech, pts)
			work := core.Workload(inst.Net, 1, inst.Config.Algo(), inst.Config.Format())
			for _, platform := range hw.Platforms() {
				name := fmt.Sprintf("%s/%s/%s", model, tech, platform.Name)
				b.Run(name, func(b *testing.B) {
					var sim float64
					for i := 0; i < b.N; i++ {
						sim = platform.NetworkTime(work, platform.CPU.MaxThreads)
					}
					b.ReportMetric(sim, "sim-sec")
				})
			}
		}
	}
}

// BenchmarkFig4HostExecution really executes each technique's kernel
// path on the host engine (mini models) — the wall-clock complement to
// the simulated Fig. 4 numbers.
func BenchmarkFig4HostExecution(b *testing.B) {
	type variant struct {
		name string
		algo nn.Algo
		prep func(*nn.Network)
	}
	variants := []variant{
		{"plain", nn.Direct, func(*nn.Network) {}},
		{"weight-pruning", nn.SparseDirect, func(n *nn.Network) { prune.NetworkToSparsity(n, 0.77) }},
		{"quantisation", nn.SparseDirect, func(n *nn.Network) { prune.NetworkToSparsity(n, 0.70) }},
	}
	for _, v := range variants {
		b.Run("mini-vgg/"+v.name, func(b *testing.B) {
			net, err := models.ByName("mini-vgg", tensor.NewRNG(6))
			if err != nil {
				b.Fatal(err)
			}
			v.prep(net)
			net.Freeze()
			in := tensor.New(1, 3, 32, 32)
			in.FillNormal(tensor.NewRNG(7), 0, 1)
			ctx := nn.Inference()
			ctx.Algo = v.algo
			_ = net.Forward(&ctx, in) // build the lazy weight views untimed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = net.Forward(&ctx, in)
			}
		})
	}
}

// BenchmarkFig5FixedAccuracy reports the simulated Fig. 5 bars: the
// Table V operating points on the Odroid at 8 threads.
func BenchmarkFig5FixedAccuracy(b *testing.B) {
	od, _ := hw.ByName("odroid-xu4")
	for _, model := range models.Names() {
		pts := tableV(b, model)
		for _, tech := range []core.Technique{core.WeightPruned, core.ChannelPruned, core.Quantised} {
			inst := benchInstance(b, model, tech, pts)
			work := core.Workload(inst.Net, 1, inst.Config.Algo(), inst.Config.Format())
			b.Run(fmt.Sprintf("%s/%s", model, tech), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					sim = od.NetworkTime(work, 8)
				}
				b.ReportMetric(sim, "sim-sec")
			})
		}
	}
}

// BenchmarkTab4Memory measures the footprint-accounting walk over the
// real full-size networks and reports the Table IV megabytes.
func BenchmarkTab4Memory(b *testing.B) {
	for _, model := range models.Names() {
		pts := tableIII(b, model)
		for _, tech := range core.Techniques() {
			inst := benchInstance(b, model, tech, pts)
			b.Run(fmt.Sprintf("%s/%s", model, tech), func(b *testing.B) {
				var mb float64
				for i := 0; i < b.N; i++ {
					mb = metrics.Measure(inst.Net, 1, inst.Config.Format()).MB()
				}
				b.ReportMetric(mb, "MB")
			})
		}
	}
}

// BenchmarkTab6Memory reports the Table VI megabytes (Table V points).
func BenchmarkTab6Memory(b *testing.B) {
	for _, model := range models.Names() {
		pts := tableV(b, model)
		for _, tech := range []core.Technique{core.WeightPruned, core.ChannelPruned, core.Quantised} {
			inst := benchInstance(b, model, tech, pts)
			b.Run(fmt.Sprintf("%s/%s", model, tech), func(b *testing.B) {
				var mb float64
				for i := 0; i < b.N; i++ {
					mb = metrics.Measure(inst.Net, 1, inst.Config.Format()).MB()
				}
				b.ReportMetric(mb, "MB")
			})
		}
	}
}

// BenchmarkFig6Backends reports the simulated backend comparison and the
// ImageNet-scale extension.
func BenchmarkFig6Backends(b *testing.B) {
	od, _ := hw.ByName("odroid-xu4")
	for _, model := range models.Names() {
		inst := benchInstance(b, model, core.Plain, map[core.Technique]core.OperatingPoint{core.Plain: {}})
		work := core.Workload(inst.Net, 1, nn.Direct, metrics.Dense)
		b.Run(model+"/openmp", func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = od.NetworkTime(work, 8)
			}
			b.ReportMetric(sim, "sim-sec")
		})
		b.Run(model+"/opencl", func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = core.SimulateGPUHandTuned(inst.Net, od.GPU)
			}
			b.ReportMetric(sim, "sim-sec")
		})
		b.Run(model+"/clblast", func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = core.SimulateGPUCLBlast(inst.Net, od.GPU)
			}
			b.ReportMetric(sim, "sim-sec")
		})
	}
}

// BenchmarkGEMMTilingAblation measures the real host GEMM kernels across
// blocking configurations (DESIGN.md §5).
func BenchmarkGEMMTilingAblation(b *testing.B) {
	r := tensor.NewRNG(8)
	const m, k, n = 128, 128, 128
	A := tensor.New(m, k)
	B := tensor.New(k, n)
	A.FillNormal(r, 0, 1)
	B.FillNormal(r, 0, 1)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = blas.GEMMNaive(A, B)
		}
	})
	for _, tile := range []blas.Tiling{{MC: 8, KC: 8, NC: 8}, blas.DefaultTiling(), {MC: 256, KC: 256, NC: 256}} {
		b.Run(fmt.Sprintf("blocked/%s", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = blas.GEMMBlocked(A, B, tile)
			}
		})
	}
}

// BenchmarkCSRPenaltyAblation measures the real host dense-vs-CSR
// convolution penalty that underlies F1/F2 (DESIGN.md §5).
func BenchmarkCSRPenaltyAblation(b *testing.B) {
	for _, sparsity := range []float64{0.5, 0.9, 0.99} {
		for _, algo := range []nn.Algo{nn.Direct, nn.SparseDirect} {
			b.Run(fmt.Sprintf("sparsity=%.0f%%/%s", sparsity*100, algo), func(b *testing.B) {
				r := tensor.NewRNG(9)
				conv := nn.NewConv2D("c", benchConvGeom(), r)
				prune.ToSparsity(conv.W, sparsity)
				conv.Freeze()
				in := tensor.New(1, 64, 16, 16)
				in.FillNormal(r, 0, 1)
				ctx := nn.Inference()
				ctx.Algo = algo
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = conv.Forward(&ctx, in)
				}
			})
		}
	}
}

// BenchmarkSchedulingAblation measures real host static-vs-dynamic
// parallel-for scheduling over imbalanced work (DESIGN.md §5).
func BenchmarkSchedulingAblation(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		for _, sched := range []string{"static", "dynamic"} {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, sched), func(b *testing.B) {
				r := tensor.NewRNG(10)
				conv := nn.NewConv2D("c", benchConvGeom(), r)
				in := tensor.New(1, 64, 16, 16)
				in.FillNormal(r, 0, 1)
				ctx := nn.Inference()
				ctx.Threads = threads
				if sched == "static" {
					ctx.Sched = 0 // parallel.Static
				} else {
					ctx.Sched = 1 // parallel.Dynamic
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = conv.Forward(&ctx, in)
				}
			})
		}
	}
}

// benchConvGeom is the 64→64 3×3 layer used by the kernel ablations.
func benchConvGeom() sparse.ConvParams {
	return sparse.ConvParams{InC: 64, OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1}
}

// BenchmarkWinogradAblation measures the real host wall-clock of the
// three dense convolution algorithms on a Winograd-eligible layer — the
// Data Formats and Algorithms extension experiment.
func BenchmarkWinogradAblation(b *testing.B) {
	for _, algo := range []nn.Algo{nn.Direct, nn.Winograd, nn.Im2colGEMM} {
		b.Run(algo.String(), func(b *testing.B) {
			r := tensor.NewRNG(11)
			conv := nn.NewConv2D("c", benchConvGeom(), r)
			in := tensor.New(1, 64, 32, 32)
			in.FillNormal(r, 0, 1)
			ctx := nn.Inference()
			ctx.Algo = algo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = conv.Forward(&ctx, in)
			}
		})
	}
}

// BenchmarkServeThroughput drives the batched serving subsystem
// (internal/serve, DESIGN.md §6) with a closed loop of concurrent
// clients over a mini model. ns/op is the per-request cost at the
// server; the custom metric is aggregate requests per second. Compare
// against BenchmarkFig4HostExecution's mini-vgg/plain single-image
// wall time for the batching overhead/gain.
func BenchmarkServeThroughput(b *testing.B) {
	srv, err := serve.New(serve.Config{
		Stacks: []serve.StackSpec{{Name: "m", Stack: core.Config{
			Model: "mini-vgg", Technique: core.Plain,
			Backend: core.OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
		}}},
		Replicas: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const clients = 8
	imgs := make([]*tensor.Tensor, clients)
	for c := range imgs {
		imgs[c] = tensor.New(3, 32, 32)
		imgs[c].FillNormal(tensor.NewRNG(uint64(2*c+1)), 0, 1)
	}
	ctx := context.Background()
	var budget atomic.Int64
	budget.Store(int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := serve.Request{Target: "m", Images: []*tensor.Tensor{imgs[c]}}
			for budget.Add(-1) >= 0 {
				rf, err := srv.Do(ctx, req)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := rf.Wait(ctx); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}

// BenchmarkPlanInference compares the compiled-plan hot path against
// the eager allocating Forward on the same network and batch —
// allocs/op is the headline: the plan rows must report 0 B/op after
// warm-up, the eager rows the full per-inference churn.
func BenchmarkPlanInference(b *testing.B) {
	for _, batch := range []int{1, 8} {
		net, err := models.ByName("mini-vgg", tensor.NewRNG(13))
		if err != nil {
			b.Fatal(err)
		}
		in := tensor.New(batch, 3, 32, 32)
		in.FillNormal(tensor.NewRNG(14), 0, 1)
		b.Run(fmt.Sprintf("eager/batch=%d", batch), func(b *testing.B) {
			ctx := nn.Inference()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = net.Forward(&ctx, in)
			}
		})
		b.Run(fmt.Sprintf("plan/batch=%d", batch), func(b *testing.B) {
			plan, err := nn.Compile(net, nn.Inference(), in.Shape())
			if err != nil {
				b.Fatal(err)
			}
			plan.Execute(in) // warm-up outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = plan.Execute(in)
			}
		})
		// The int8 path rides the same /plan/ 0-alloc CI gate: after
		// compilation a quantised plan must also run allocation-free.
		b.Run(fmt.Sprintf("plan/int8/batch=%d", batch), func(b *testing.B) {
			ctx := nn.Inference()
			ctx.Algo = nn.QuantInt8
			plan, err := nn.Compile(net, ctx, in.Shape())
			if err != nil {
				b.Fatal(err)
			}
			plan.Execute(in)
			// Compiling the quantised plan churns enough garbage that at
			// -benchtime 1x the deferred GC byproducts (≈48 B) otherwise
			// land inside the timed window and trip the 0-alloc gate.
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = plan.Execute(in)
			}
		})
	}
}

// BenchmarkDeepCompressionStorage measures the prune→ternary→Huffman
// storage estimator over a full-size network (the deepcomp experiment).
func BenchmarkDeepCompressionStorage(b *testing.B) {
	net, err := models.ByName("mobilenet", tensor.NewRNG(12))
	if err != nil {
		b.Fatal(err)
	}
	prune.NetworkToSparsity(net, 0.2346)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := huffman.Measure(net)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(st.Dense) / float64(st.Huffman)
	}
	b.ReportMetric(ratio, "compression-x")
}

// BenchmarkTransportParity measures the wire overhead of every client
// transport against the in-process LocalClient on one loopback host:
// the same pool, the same closed loop (8 concurrent callers), the same
// images — only the transport changes. The DLW2 rows are the
// acceptance gate for the multiplexed session protocol: the mux path
// must land within ~1% of LocalClient and strictly above HTTP/1
// (EXPERIMENTS.md, transport section). The pipeline row replaces the
// closed loop with ONE streaming session keeping a 32-request window
// in flight — a single connection, single submitter saturating the
// backend.
func BenchmarkTransportParity(b *testing.B) {
	cfg := DefaultServerConfig()
	cfg.Stacks = []ServerStack{{Name: "m", Stack: StackConfig{
		Model: "mini-vgg", Technique: Plain,
		Backend: OMP, Threads: 1, Platform: "odroid-xu4", Seed: 1,
	}}}
	cfg.Replicas, cfg.MaxBatch, cfg.MaxDelay = 2, 4, time.Millisecond
	srv, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewHTTPHandler(srv, 0))
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ml := NewMuxListener(srv, MuxListenerConfig{MaxInFlight: 256})
	go ml.Serve(ln)
	defer ml.Close()

	const clients = 8
	imgs := make([]*Tensor, clients)
	for c := range imgs {
		imgs[c] = NewImage(1, 32, 32, uint64(2*c+1))
	}
	ctx := context.Background()

	closed := func(b *testing.B, client Client) {
		var budget atomic.Int64
		budget.Store(int64(b.N))
		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				req := Request{Target: "m", Images: []*Tensor{imgs[c]}}
				for budget.Add(-1) >= 0 {
					if _, err := client.InferSync(ctx, req); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
	}

	b.Run("local", func(b *testing.B) {
		// Note: not Closed — the LocalClient owns the server shutdown.
		closed(b, NewLocalClient(srv))
	})
	b.Run("http", func(b *testing.B) {
		client := NewHTTPClient(ts.URL)
		defer client.Close()
		closed(b, client)
	})
	b.Run("dlw2", func(b *testing.B) {
		client := NewMuxClient(ln.Addr().String())
		defer client.Close()
		closed(b, client)
	})
	b.Run("dlw2-pipeline", func(b *testing.B) {
		client := NewMuxClient(ln.Addr().String())
		defer client.Close()
		sess, err := client.Session(ctx)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		req := Request{Target: "m", Images: []*Tensor{imgs[0]}}
		const window = 32
		b.ResetTimer()
		start := time.Now()
		inflight := 0
		for done := 0; done < b.N; {
			for inflight < window && done+inflight < b.N {
				if _, err := sess.Send(req); err != nil {
					b.Fatal(err)
				}
				inflight++
			}
			res, err := sess.Recv()
			if err != nil {
				b.Fatal(err)
			}
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			inflight--
			done++
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
	})
}
