package dlis

// Benchmark harness: one benchmark per paper artifact (tables and
// figures). Each benchmark does real work on the host — executing the
// engine kernels, instantiating stack configurations, or evaluating the
// platform models — and attaches the projected full-size platform
// seconds as custom metrics ("sim-sec"), since the paper's absolute
// numbers come from hardware this container does not have (DESIGN.md §2).
//
// Regenerate the full text artifacts with: go run ./cmd/dlis-paper

import (
	"fmt"
	"sync"
	"testing"

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
