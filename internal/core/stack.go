// Package core implements the paper's primary contribution: the Deep
// Learning Inference Stack (DLIS, Table I) — a five-layer configuration
// space spanning
//
//  1. Neural Network Models     (VGG-16 / ResNet-18 / MobileNet)
//  2. Machine Learning Techniques (plain / weight pruning / channel
//     pruning / ternary quantisation)
//  3. Data Formats & Algorithms  (dense direct / CSR sparse / im2col+GEMM)
//  4. Systems Techniques         (thread count & schedule, OpenMP-style
//     CPU, OpenCL-style GPU, CLBlast-style GEMM library)
//  5. Hardware                   (Odroid-XU4 / Intel i7 platform models)
//
// A Config picks one candidate per layer; Instantiate builds the real
// network at the requested compression operating point; Run executes it
// on the host engine; Simulate projects its execution time onto the
// modelled platform; MemoryMB accounts its runtime footprint. The
// experiments in internal/experiments are thin sweeps over Configs.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/compress/channel"
	"repro/internal/compress/prune"
	"repro/internal/compress/quant"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Technique is stack layer 2: the compression technique.
type Technique int

const (
	// Plain is the uncompressed dense baseline.
	Plain Technique = iota
	// WeightPruned is Deep-Compression-style magnitude pruning,
	// executed in CSR format.
	WeightPruned
	// ChannelPruned is Fisher channel pruning, executed densely with a
	// reduced architecture.
	ChannelPruned
	// Quantised is trained ternary quantisation, executed in CSR.
	Quantised
)

// String names the technique as the paper's figures do.
func (t Technique) String() string {
	switch t {
	case Plain:
		return "plain"
	case WeightPruned:
		return "weight-pruning"
	case ChannelPruned:
		return "channel-pruning"
	case Quantised:
		return "quantisation"
	default:
		return "unknown"
	}
}

// Techniques lists all four in the paper's legend order.
func Techniques() []Technique { return []Technique{Plain, WeightPruned, ChannelPruned, Quantised} }

// Backend is stack layer 4: the parallel execution substrate.
type Backend int

const (
	// OMP is CPU thread parallelism (the OpenMP implementation).
	OMP Backend = iota
	// OCL is the hand-tuned OpenCL GPU implementation.
	OCL
	// CLBlast is convolution-as-GEMM through the tuned BLAS library.
	CLBlast
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case OMP:
		return "openmp"
	case OCL:
		return "opencl"
	case CLBlast:
		return "clblast"
	default:
		return "unknown"
	}
}

// OperatingPoint is the compression level of a technique: exactly one
// field is meaningful, matching Tables III and V.
type OperatingPoint struct {
	// Sparsity is the weight-pruning zero fraction.
	Sparsity float64
	// CompressionRate is the channel-pruning parameter-removal rate.
	CompressionRate float64
	// TTQThreshold is the quantisation threshold; TTQSparsity the zero
	// fraction it induces (reported alongside in the paper).
	TTQThreshold float64
	TTQSparsity  float64
}

// Config selects one candidate per stack layer.
type Config struct {
	// Model is the network name ("vgg16", "resnet18", "mobilenet").
	Model string
	// Technique is the compression technique.
	Technique Technique
	// Point is the compression operating point.
	Point OperatingPoint
	// Backend is the execution substrate.
	Backend Backend
	// Threads is the CPU thread count (OMP backend).
	Threads int
	// Platform is the modelled hardware ("odroid-xu4", "intel-i7").
	Platform string
	// Seed drives deterministic weight initialisation.
	Seed uint64
	// AutoAlgo compiles execution plans with per-layer algorithm
	// selection (nn.Auto): plan compilation times direct, im2col+GEMM,
	// Winograd and CSR-sparse on every conv geometry and bakes the
	// winner in, instead of deriving one global algorithm from the
	// technique and backend. OMP backend only.
	AutoAlgo bool
}

// Validate rejects inconsistent configurations.
func (c *Config) Validate() error {
	if !models.Known(c.Model) {
		return fmt.Errorf("models: unknown network %q", c.Model)
	}
	if _, err := hw.ByName(c.Platform); err != nil {
		return err
	}
	if c.Threads < 1 {
		return fmt.Errorf("core: thread count %d must be ≥ 1", c.Threads)
	}
	p, _ := hw.ByName(c.Platform)
	if c.Threads > p.CPU.MaxThreads {
		return fmt.Errorf("core: platform %s supports at most %d threads, got %d",
			c.Platform, p.CPU.MaxThreads, c.Threads)
	}
	if c.Backend != OMP && p.GPU == nil {
		return fmt.Errorf("core: platform %s has no GPU for backend %s", c.Platform, c.Backend)
	}
	if c.Backend != OMP && c.Technique != Plain {
		return fmt.Errorf("core: the GPU backends are evaluated on plain models only (§V-F)")
	}
	if c.AutoAlgo && c.Backend != OMP {
		return fmt.Errorf("core: per-layer algorithm selection (AutoAlgo) applies to the OMP backend only")
	}
	return nil
}

// Algo returns the convolution algorithm implied by technique+backend,
// or nn.Auto when per-layer selection is requested.
func (c *Config) Algo() nn.Algo {
	if c.AutoAlgo {
		return nn.Auto
	}
	if c.Backend == CLBlast {
		return nn.Im2colGEMM
	}
	switch c.Technique {
	case WeightPruned, Quantised:
		return nn.SparseDirect
	default:
		return nn.Direct
	}
}

// ExecAlgo returns the algorithm host execution actually uses, which
// may be newer than what the cost model projects: Quantised
// configurations on the OMP backend run the genuinely quantised int8
// kernel path (per-channel scales, i32 accumulate, ternary zero-skip)
// rather than the CSR path Algo reports for the modelled platforms.
// Everything else — including the simulated backends and the golden
// paper figures built on Algo — is unchanged.
func (c *Config) ExecAlgo() nn.Algo {
	if !c.AutoAlgo && c.Backend == OMP && c.Technique == Quantised {
		return nn.QuantInt8
	}
	return c.Algo()
}

// Format returns the weight storage format implied by the technique.
func (c *Config) Format() metrics.Format {
	switch c.Technique {
	case WeightPruned, Quantised:
		return metrics.CSR
	default:
		return metrics.Dense
	}
}

// baseAlgo is the technique/backend-derived algorithm with AutoAlgo
// ignored — what the cost model projects, since the modelled platforms
// predate per-layer selection.
func (c *Config) baseAlgo() nn.Algo {
	d := *c
	d.AutoAlgo = false
	return d.Algo()
}

// Instance is a fully-built stack configuration ready to run. Run
// executes through compiled plans cached per batch size (see PlanFor).
// Run stays safe for concurrent use — calls serialize on the instance
// and return private logit copies — but serialized means no parallel
// throughput: concurrent serving gives each worker its own replica
// (see Replicate and internal/serve), which also unlocks the
// zero-allocation PlanFor fast path.
type Instance struct {
	Config   Config
	Net      *nn.Network
	Platform *hw.Platform

	// plans caches compiled execution plans keyed by batch size (the
	// per-image shape is fixed by the network). planMu guards the map
	// and plansVersion; runMu serializes Run's executions over the
	// shared plan buffers. plansVersion is the Net.Version the cached
	// plans were compiled against: PlanFor drops the cache whenever the
	// network has structurally mutated since (pruning surgery,
	// re-frozen CSR views), so a technique transform applied to a live
	// instance can never leave it serving stale plans.
	planMu       sync.Mutex
	plans        map[int]*nn.Plan
	plansVersion uint64
	runMu        sync.Mutex
}

// Instantiate builds the network at the configured operating point:
// weight pruning applies magnitude masks at the target sparsity, channel
// pruning performs FLOP-aware architecture surgery at the target rate,
// and quantisation converts weights to ternary at the target threshold.
// (Accuracy at these operating points is the subject of the Pareto
// machinery in internal/pareto; here the *architecture and format* are
// what the hardware experiments consume.)
func Instantiate(cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := tensor.NewRNG(cfg.Seed | 1)
	net, err := models.ByName(cfg.Model, r)
	if err != nil {
		return nil, err
	}
	switch cfg.Technique {
	case WeightPruned:
		prune.NetworkToSparsity(net, cfg.Point.Sparsity)
	case ChannelPruned:
		channel.UniformShrink(net, cfg.Point.CompressionRate)
	case Quantised:
		quant.Quantize(net, cfg.Point.TTQThreshold)
		// The paper reports the achieved sparsity per threshold (Table
		// III); when the caller pins one, prune down to it so the CSR
		// cost matches the reported operating point.
		if s := cfg.Point.TTQSparsity; s > 0 && net.WeightSparsity() < s {
			prune.NetworkToSparsity(net, s)
		}
	}
	net.Freeze()
	platform, _ := hw.ByName(cfg.Platform)
	return &Instance{
		Config: cfg, Net: net, Platform: platform,
		plans: make(map[int]*nn.Plan), plansVersion: net.Version(),
	}, nil
}

// WithTechnique returns a copy of the configuration re-pointed at a
// different compression technique and operating point — the variant
// instantiation helper the multi-variant serving layer uses to derive
// one stack per technique from a shared base (model, backend, threads,
// platform, seed).
func (c Config) WithTechnique(t Technique, pt OperatingPoint) Config {
	c.Technique, c.Point = t, pt
	return c
}

// Replicate builds an independent Instance from the same configuration:
// identical architecture and (deterministically seeded) weights, but
// entirely separate parameter storage — including separate compiled
// plans and their arenas. That isolation is now load-bearing: an
// instance executes over shared plan buffers (activation slabs,
// padding and im2col scratch), so Run calls serialize and a single
// shared Instance yields no parallelism. Each serving worker owns a
// replica — the unit of concurrency, and the unit future sharding can
// move onto another process or machine (see internal/serve).
func (in *Instance) Replicate() (*Instance, error) { return Instantiate(in.Config) }

// RunResult is one real host execution.
type RunResult struct {
	Output  *tensor.Tensor
	Elapsed time.Duration
}

// PlanFor returns the compiled execution plan for the given batch
// size, compiling and caching it on first use. The first call per
// batch size pays the compile (shape walk, arena allocation, and — for
// AutoAlgo configurations — per-geometry kernel timing); every later
// call is a map lookup, and executing the cached plan performs zero
// steady-state heap allocations. Safe for concurrent lookup; the
// returned plan itself is single-owner (one replica = one worker).
func (in *Instance) PlanFor(batch int) (*nn.Plan, error) {
	if batch < 1 {
		return nil, fmt.Errorf("core: plan batch %d must be ≥ 1", batch)
	}
	in.planMu.Lock()
	defer in.planMu.Unlock()
	if v := in.Net.Version(); v != in.plansVersion {
		// The network structurally mutated since these plans were
		// compiled (technique transform, re-freeze): drop them all so no
		// execution path can serve stale structure.
		in.plans = make(map[int]*nn.Plan)
		in.plansVersion = v
	}
	if p, ok := in.plans[batch]; ok {
		return p, nil
	}
	ctx := nn.Inference()
	ctx.Threads = in.Config.Threads
	ctx.Algo = in.Config.ExecAlgo()
	shape := tensor.Shape{batch, in.Net.InputShape[0], in.Net.InputShape[1], in.Net.InputShape[2]}
	p, err := nn.Compile(in.Net, ctx, shape)
	if err != nil {
		return nil, err
	}
	in.plans[batch] = p
	return p, nil
}

// Run executes a real inference on the host engine with the configured
// algorithm and thread count, returning the logits and wall time. The
// input may carry any batch size N (shape N×C×H×W); the output then
// holds one logit row per image, which is how the serving layer's
// dynamic batcher amortises per-request overhead (see internal/serve).
//
// Batched NCHW inputs matching the network's image shape execute
// through the cached plan for their batch size; other input shapes
// fall back to the eager Forward path. Run is safe for concurrent use:
// executions serialize on the instance (plan buffers are shared) and
// the returned logits are a private copy, so results from concurrent
// calls stay independent. The only steady-state allocation is that
// logit copy; allocation-free serving drives PlanFor's plans directly,
// one replica per worker (see internal/serve).
func (in *Instance) Run(input *tensor.Tensor) RunResult {
	s := input.Shape()
	if s.Rank() == 4 && s[1] == in.Net.InputShape[0] && s[2] == in.Net.InputShape[1] && s[3] == in.Net.InputShape[2] {
		if plan, err := in.PlanFor(s[0]); err == nil {
			in.runMu.Lock()
			start := time.Now()
			out := plan.Execute(input).Clone()
			elapsed := time.Since(start)
			in.runMu.Unlock()
			return RunResult{Output: out, Elapsed: elapsed}
		}
	}
	ctx := nn.Inference()
	ctx.Threads = in.Config.Threads
	ctx.Algo = in.Config.ExecAlgo()
	start := time.Now()
	out := in.Net.Forward(&ctx, input)
	return RunResult{Output: out, Elapsed: time.Since(start)}
}

// Simulate projects the configuration's single-image inference time (in
// seconds) onto the modelled platform.
func (in *Instance) Simulate() float64 {
	switch in.Config.Backend {
	case OCL:
		return SimulateGPUHandTuned(in.Net, in.Platform.GPU)
	case CLBlast:
		return SimulateGPUCLBlast(in.Net, in.Platform.GPU)
	default:
		// The cost model projects the technique-derived algorithm;
		// AutoAlgo is a host-engine compile-time decision the modelled
		// platforms know nothing about.
		work := Workload(in.Net, 1, in.Config.baseAlgo(), in.Config.Format())
		return in.Platform.NetworkTime(work, in.Config.Threads)
	}
}

// MemoryMB accounts the configuration's runtime memory footprint.
func (in *Instance) MemoryMB() float64 {
	return metrics.Measure(in.Net, 1, in.Config.Format()).MB()
}
