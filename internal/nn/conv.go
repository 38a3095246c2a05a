package nn

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Conv2D is a (possibly grouped) 2-D convolution layer. It owns three
// execution paths selected by Context.Algo:
//
//   - Direct: dense nested loops, parallelised over output channels —
//     the paper's OpenMP implementation ("the outer for loop of the
//     convolutional layers is parallelised using dynamic scheduling").
//   - Im2colGEMM: lowering to matrix multiplication, the CLBlast path.
//   - SparseDirect: direct convolution over CSR-stored filters, used for
//     weight-pruned and ternary-quantised models.
//
// Weights are stored dense in W (OutC, InC/Groups, KH, KW); the CSR and
// reduced-precision views are built lazily on first use and invalidated
// by any training step or Network.Freeze.
type Conv2D struct {
	LayerName string
	Geom      sparse.ConvParams
	W         *Param
	B         *Param

	// csr, qw and wf16 cache the CSR, int8 and binary16 views of the
	// flattened filters for the SparseDirect, QuantInt8 and QuantF16
	// paths. Each is built on first use and dropped by Invalidate.
	csr  view[sparse.CSR]
	qw   view[blas.QMatrix]
	wf16 view[blas.F16Matrix]

	// FisherRecord enables Fisher-information accumulation for channel
	// pruning: during training the forward output is cached and every
	// backward pass folds activation×gradient sums into FisherScores
	// (one per output channel), following Theis et al. (paper [34]).
	FisherRecord bool
	// FisherScores accumulates the per-channel saliency estimates.
	FisherScores []float64

	// Training caches.
	lastIn  *tensor.Tensor
	lastOut *tensor.Tensor
}

// NewConv2D builds a convolution layer with He-initialised weights.
func NewConv2D(name string, geom sparse.ConvParams, r *tensor.RNG) *Conv2D {
	if geom.Groups <= 0 {
		geom.Groups = 1
	}
	if geom.InC%geom.Groups != 0 || geom.OutC%geom.Groups != 0 {
		panic(fmt.Sprintf("nn: conv %q channels (%d→%d) not divisible by groups %d",
			name, geom.InC, geom.OutC, geom.Groups))
	}
	cpg := geom.InC / geom.Groups
	c := &Conv2D{
		LayerName: name,
		Geom:      geom,
		W:         NewParam(name+".weight", geom.OutC, cpg, geom.KH, geom.KW),
		B:         NewParam(name+".bias", geom.OutC),
	}
	c.B.Decay = false
	if r != nil {
		c.W.W.FillHe(r, cpg*geom.KH*geom.KW)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// flatShape is the shape of the filter bank flattened to one row per
// output channel.
func (c *Conv2D) flatShape() (rows, cols int) {
	return c.Geom.OutC, c.Geom.InC / c.Geom.Groups * c.Geom.KH * c.Geom.KW
}

// Freeze drops the layer's cached views and returns a freshly built CSR
// view of the current weights.
func (c *Conv2D) Freeze() *sparse.CSR {
	c.Invalidate()
	return c.CSR()
}

// CSR returns the sparse view of the flattened filters, building it on
// first use.
func (c *Conv2D) CSR() *sparse.CSR { return c.csr.get(c.buildCSR) }

// QWeights returns the int8 per-output-channel-scaled view of the
// flattened filters, building it on first use. Rows are output
// channels, so per-group and per-row-block addressing is RowView.
func (c *Conv2D) QWeights() *blas.QMatrix { return c.qw.get(c.buildQWeights) }

// F16Weights returns the binary16 view of the flattened filters,
// building it on first use.
func (c *Conv2D) F16Weights() *blas.F16Matrix { return c.wf16.get(c.buildF16Weights) }

func (c *Conv2D) buildCSR() *sparse.CSR {
	return sparse.FromDense(c.W.W.Reshape(c.flatShape()))
}

func (c *Conv2D) buildQWeights() *blas.QMatrix {
	rows, cols := c.flatShape()
	return blas.QuantizeRowsInt8(c.W.W.Data(), rows, cols)
}

func (c *Conv2D) buildF16Weights() *blas.F16Matrix {
	rows, cols := c.flatShape()
	return blas.QuantizeRowsF16(c.W.W.Data(), rows, cols)
}

// Invalidate drops the CSR and reduced-precision caches; training steps
// call this via the optimiser so stale views are never executed.
func (c *Conv2D) Invalidate() {
	c.csr.drop()
	c.qw.drop()
	c.wf16.drop()
}

// OutShape returns the NCHW output shape for the given input shape.
func (c *Conv2D) OutShape(in tensor.Shape) tensor.Shape {
	oh, ow := c.Geom.OutSize(in[2], in[3])
	return tensor.Shape{in[0], c.Geom.OutC, oh, ow}
}

// Forward implements Layer.
func (c *Conv2D) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	checkRank4(c.LayerName, in)
	if in.Shape()[1] != c.Geom.InC {
		panic(fmt.Sprintf("nn: conv %q expects %d input channels, got %v",
			c.LayerName, c.Geom.InC, in.Shape()))
	}
	if ctx.Training {
		c.lastIn = in
	}
	var out *tensor.Tensor
	switch ctx.Algo {
	case SparseDirect:
		out = sparse.Conv2D(in, c.CSR(), c.B.W.Data(), c.Geom)
	case Im2colGEMM:
		out = c.forwardGEMM(ctx, in)
	case Winograd:
		out = c.forwardWinograd(ctx, in)
	case QuantInt8:
		out = c.forwardQuantInt8(ctx, in)
	case QuantF16:
		out = c.forwardQuantF16(ctx, in)
	default:
		out = c.forwardDirect(ctx, in)
	}
	if ctx.Training && c.FisherRecord {
		c.lastOut = out
	}
	return out
}

// forwardDirect is the dense nested-loop kernel, parallelised over the
// outer (output-channel) loop exactly as the paper's OpenMP version.
func (c *Conv2D) forwardDirect(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n, _, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	padded := tensor.Pad2D(in, g.Pad)
	oh, ow := g.OutSize(h, w)
	out := tensor.New(n, g.OutC, oh, ow)
	parallel.For(n*g.OutC, ctx.Threads, ctx.Sched, c.directBody(padded, out))
	return out
}

// directBody builds the per-(image, output-channel) kernel body of the
// direct algorithm over a pre-padded input. It closes over the buffers'
// backing slices, so the plan path builds it once at compile time and
// replays it allocation-free.
func (c *Conv2D) directBody(padded, out *tensor.Tensor) func(job int) {
	g := c.Geom
	ph, pw := padded.Shape()[2], padded.Shape()[3]
	oh, ow := out.Shape()[2], out.Shape()[3]
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	wd, pd, od, bias := c.W.W.Data(), padded.Data(), out.Data(), c.B.W.Data()
	kArea := g.KH * g.KW

	return func(job int) {
		ni, oc := job/g.OutC, job%g.OutC
		group := oc / opg
		dst := od[(ni*g.OutC+oc)*oh*ow : (ni*g.OutC+oc+1)*oh*ow]
		b := bias[oc]
		for i := range dst {
			dst[i] = b
		}
		wBase := oc * cpg * kArea
		inBase := ni * g.InC * ph * pw
		for icl := 0; icl < cpg; icl++ {
			ic := group*cpg + icl
			src := pd[inBase+ic*ph*pw:]
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					// Note: zero weights are NOT skipped. A real dense
					// kernel is branch-free, which is exactly why pruned
					// networks executed densely see no speedup (Fig. 1).
					v := wd[wBase+(icl*g.KH+ky)*g.KW+kx]
					for y := 0; y < oh; y++ {
						srcRow := src[(y*g.Stride+ky)*pw+kx:]
						dstRow := dst[y*ow : (y+1)*ow]
						if g.Stride == 1 {
							for x := range dstRow {
								dstRow[x] += v * srcRow[x]
							}
						} else {
							for x := range dstRow {
								dstRow[x] += v * srcRow[x*g.Stride]
							}
						}
					}
				}
			}
		}
	}
}

// winogradOK reports whether the geometry supports the F(2×2,3×3)
// transform: 3×3, stride 1, pad 1, ungrouped.
func (c *Conv2D) winogradOK() bool {
	g := c.Geom
	return g.KH == 3 && g.KW == 3 && g.Stride == 1 && g.Pad == 1 && g.Groups == 1
}

// forwardWinograd uses the F(2×2,3×3) transform when the geometry
// supports it and falls back to the direct kernel otherwise, so whole
// networks can run under the Winograd algorithm without per-layer
// configuration.
func (c *Conv2D) forwardWinograd(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	if !c.winogradOK() {
		return c.forwardDirect(ctx, in)
	}
	return blas.WinogradConv2D(in, c.W.W, c.B.W.Data())
}

// forwardGEMM lowers the convolution through im2col and GEMM. The
// outer (image × group) loop is parallelised so multi-image batches
// from the serve batcher scale across threads; a lone image/group
// instead parallelises inside the GEMM.
func (c *Conv2D) forwardGEMM(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n, _, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	out := tensor.New(n, g.OutC, oh, ow)
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	kArea := g.KH * g.KW
	p := blas.Im2colParams{C: cpg, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	flatW := c.W.W.Reshape(g.OutC, cpg*kArea)
	bias := c.B.W.Data()
	jobs := n * g.Groups

	parallel.For(jobs, ctx.Threads, ctx.Sched, func(job int) {
		ni, grp := job/g.Groups, job%g.Groups
		// Slice this group's input channels as a (cpg,h,w) view.
		base := (ni*g.InC + grp*cpg) * h * w
		sub := tensor.FromSlice(in.Data()[base:base+cpg*h*w], cpg, h, w)
		cols := blas.Im2col(sub, p)
		// This group's filters: rows [grp*opg, (grp+1)*opg).
		wBase := grp * opg * cpg * kArea
		wSub := tensor.FromSlice(flatW.Data()[wBase:wBase+opg*cpg*kArea], opg, cpg*kArea)
		// With several jobs in flight the outer loop owns the threads;
		// a single job hands them to the GEMM instead.
		var prod *tensor.Tensor
		if jobs > 1 {
			prod = blas.GEMMBlocked(wSub, cols, blas.DefaultTiling())
		} else {
			prod = blas.GEMMParallel(wSub, cols, blas.DefaultTiling(), ctx.Threads)
		}
		// Scatter into the output with bias.
		for ol := 0; ol < opg; ol++ {
			oc := grp*opg + ol
			dst := out.Data()[(ni*g.OutC+oc)*oh*ow : (ni*g.OutC+oc+1)*oh*ow]
			src := prod.Data()[ol*oh*ow : (ol+1)*oh*ow]
			b := bias[oc]
			for i := range dst {
				dst[i] = src[i] + b
			}
		}
	})
	return out
}

// PlanStep implements PlanLayer: it resolves the layer's algorithm
// (timing candidates under Auto), reserves exactly the scratch that
// algorithm needs from the plan arena, and returns an allocation-free
// closure over the reserved buffers.
func (c *Conv2D) PlanStep(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	checkRank4(c.LayerName, in)
	if in.Shape()[1] != c.Geom.InC {
		panic(fmt.Sprintf("nn: conv %q expects %d input channels, got %v",
			c.LayerName, c.Geom.InC, in.Shape()))
	}
	algo := pc.convAlgo(c, in)
	pc.plan.algos = append(pc.plan.algos, PlanAlgo{Layer: c.LayerName, Algo: algo})
	switch algo {
	case SparseDirect:
		return c.planSparse(pc, in, out)
	case Im2colGEMM:
		return c.planGEMM(pc, in, out)
	case Winograd:
		return c.planWinograd(pc, in, out)
	case QuantInt8:
		return c.planQuantInt8(pc, in, out)
	case QuantF16:
		return c.planQuantF16(pc, in, out)
	default:
		return c.planDirect(pc, in, out)
	}
}

// padPlan reserves the padded-input scratch for pad > 0 geometries.
// Pad-0 layers read the input directly — no scratch slot, no copy.
func (c *Conv2D) padPlan(pc *PlanCompiler, in *tensor.Tensor) (src, scratch *tensor.Tensor) {
	g := c.Geom
	if g.Pad == 0 {
		return in, nil
	}
	n, h, w := in.Shape()[0], in.Shape()[2], in.Shape()[3]
	scratch = pc.Scratch(n, g.InC, h+2*g.Pad, w+2*g.Pad)
	return scratch, scratch
}

// planDirect compiles the dense nested-loop algorithm.
func (c *Conv2D) planDirect(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	g := c.Geom
	src, padScratch := c.padPlan(pc, in)
	body := c.directBody(src, out)
	jobs := in.Shape()[0] * g.OutC
	threads, sched := pc.ctx.Threads, pc.ctx.Sched
	//dlis:noalloc
	return func() {
		if padScratch != nil {
			tensor.Pad2DInto(padScratch, in, g.Pad)
		}
		parallel.For(jobs, threads, sched, body)
	}
}

// planWinograd compiles the F(2×2,3×3) algorithm; the compiler only
// selects it for eligible geometries.
func (c *Conv2D) planWinograd(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	n, h, w := in.Shape()[0], in.Shape()[2], in.Shape()[3]
	scratch := blas.NewWinogradScratch(pc.Arena(), n, c.Geom.InC, h, w, c.Geom.OutC)
	weights, bias := c.W.W, c.B.W.Data()
	//dlis:noalloc
	return func() {
		blas.WinogradConv2DInto(out, in, weights, bias, scratch)
	}
}

// planSparse compiles CSR-sparse direct execution over the frozen
// weights. The CSR view is captured at compile time — recompile after
// re-freezing.
func (c *Conv2D) planSparse(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	csr := c.CSR()
	_, padScratch := c.padPlan(pc, in)
	bias := c.B.W.Data()
	geom := c.Geom
	//dlis:noalloc
	return func() {
		sparse.Conv2DInto(out, in, csr, bias, geom, padScratch)
	}
}

// planGEMM compiles the im2col+GEMM lowering with per-worker column
// and product scratch: worker w, and only worker w, uses scratch slot
// w (parallel.ForWorker's contract), so the outer image×group loop
// scales without synchronisation or allocation.
func (c *Conv2D) planGEMM(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	g := c.Geom
	n, h, w := in.Shape()[0], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	kArea := g.KH * g.KW
	p := blas.Im2colParams{C: cpg, H: h, W: w, KH: g.KH, KW: g.KW, Stride: g.Stride, Pad: g.Pad}
	jobs := n * g.Groups
	workers := pc.ctx.Threads
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	colRows, colCols := p.ColShape()
	cols := make([]*tensor.Tensor, workers)
	prod := make([]*tensor.Tensor, workers)
	for i := range cols {
		cols[i] = pc.Scratch(colRows, colCols)
		prod[i] = pc.Scratch(opg, oh*ow)
	}
	// Per-job input views and per-group weight views, fixed at compile
	// time (the plan's input buffer and the weights never move).
	flatW := c.W.W.Reshape(g.OutC, cpg*kArea)
	inSub := make([]*tensor.Tensor, jobs)
	wSub := make([]*tensor.Tensor, g.Groups)
	for job := 0; job < jobs; job++ {
		ni, grp := job/g.Groups, job%g.Groups
		base := (ni*g.InC + grp*cpg) * h * w
		inSub[job] = tensor.FromSlice(in.Data()[base:base+cpg*h*w], cpg, h, w)
	}
	for grp := 0; grp < g.Groups; grp++ {
		wBase := grp * opg * cpg * kArea
		wSub[grp] = tensor.FromSlice(flatW.Data()[wBase:wBase+opg*cpg*kArea], opg, cpg*kArea)
	}
	od := out.Data()
	bias := c.B.W.Data()
	tile := blas.DefaultTiling()
	threads, sched := pc.ctx.Threads, pc.ctx.Sched

	// Mirror the eager path's thread hand-off: several jobs in flight
	// own the threads at the outer loop; a single job hands them to the
	// GEMM instead, so batch-1 plans don't regress to one thread.
	gemm := func(worker, grp int) {
		blas.GEMMInto(prod[worker], wSub[grp], cols[worker], tile)
	}
	if jobs == 1 && threads > 1 {
		gemm = func(worker, grp int) {
			blas.GEMMParallelInto(prod[worker], wSub[grp], cols[worker], tile, threads)
		}
	}
	body := func(worker, job int) {
		ni, grp := job/g.Groups, job%g.Groups
		blas.Im2colInto(cols[worker], inSub[job], p)
		gemm(worker, grp)
		pd := prod[worker].Data()
		for ol := 0; ol < opg; ol++ {
			oc := grp*opg + ol
			dst := od[(ni*g.OutC+oc)*oh*ow : (ni*g.OutC+oc+1)*oh*ow]
			src := pd[ol*oh*ow : (ol+1)*oh*ow]
			b := bias[oc]
			for i := range dst {
				dst[i] = src[i] + b
			}
		}
	}
	//dlis:noalloc
	return func() {
		parallel.ForWorker(jobs, threads, sched, body)
	}
}

// Backward implements Layer using direct-loop gradient kernels that
// support arbitrary groups and strides. Training always runs dense:
// compression methods fine-tune with masks applied after each step.
func (c *Conv2D) Backward(ctx *Context, gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic(fmt.Sprintf("nn: conv %q Backward called before training Forward", c.LayerName))
	}
	g := c.Geom
	in := c.lastIn
	n, _, h, w := in.Shape()[0], in.Shape()[1], in.Shape()[2], in.Shape()[3]
	oh, ow := g.OutSize(h, w)
	if !gradOut.Shape().Equal(tensor.Shape{n, g.OutC, oh, ow}) {
		panic(fmt.Sprintf("nn: conv %q gradOut shape %v, want %v",
			c.LayerName, gradOut.Shape(), tensor.Shape{n, g.OutC, oh, ow}))
	}
	c.Invalidate()
	if c.FisherRecord && c.lastOut != nil {
		c.accumulateFisher(gradOut)
	}

	padded := tensor.Pad2D(in, g.Pad)
	ph, pw := h+2*g.Pad, w+2*g.Pad
	cpg := g.InC / g.Groups
	opg := g.OutC / g.Groups
	kArea := g.KH * g.KW

	pd, god := padded.Data(), gradOut.Data()
	gw, gb := c.W.Grad.Data(), c.B.Grad.Data()
	wd := c.W.W.Data()

	// Bias gradient: sum of output gradients per channel.
	for oc := 0; oc < g.OutC; oc++ {
		var acc float32
		for ni := 0; ni < n; ni++ {
			src := god[(ni*g.OutC+oc)*oh*ow : (ni*g.OutC+oc+1)*oh*ow]
			for _, v := range src {
				acc += v
			}
		}
		gb[oc] += acc
	}

	// Weight gradient, parallel over output channels (independent rows).
	parallel.For(g.OutC, ctx.Threads, ctx.Sched, func(oc int) {
		group := oc / opg
		wBase := oc * cpg * kArea
		for ni := 0; ni < n; ni++ {
			gsrc := god[(ni*g.OutC+oc)*oh*ow:]
			inBase := ni * g.InC * ph * pw
			for icl := 0; icl < cpg; icl++ {
				ic := group*cpg + icl
				src := pd[inBase+ic*ph*pw:]
				for ky := 0; ky < g.KH; ky++ {
					for kx := 0; kx < g.KW; kx++ {
						var acc float32
						for y := 0; y < oh; y++ {
							gr := gsrc[y*ow : (y+1)*ow]
							sr := src[(y*g.Stride+ky)*pw+kx:]
							if g.Stride == 1 {
								for x, gv := range gr {
									acc += gv * sr[x]
								}
							} else {
								for x, gv := range gr {
									acc += gv * sr[x*g.Stride]
								}
							}
						}
						gw[wBase+(icl*g.KH+ky)*g.KW+kx] += acc
					}
				}
			}
		}
	})

	// Input gradient in padded coordinates, then crop.
	gpad := tensor.New(n, g.InC, ph, pw)
	gpd := gpad.Data()
	parallel.For(n*g.InC, ctx.Threads, ctx.Sched, func(job int) {
		ni, ic := job/g.InC, job%g.InC
		group := ic / cpg
		icl := ic % cpg
		dst := gpd[(ni*g.InC+ic)*ph*pw:]
		for ol := 0; ol < opg; ol++ {
			oc := group*opg + ol
			wBase := oc*cpg*kArea + icl*kArea
			gsrc := god[(ni*g.OutC+oc)*oh*ow:]
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					v := wd[wBase+ky*g.KW+kx]
					if v == 0 {
						continue
					}
					for y := 0; y < oh; y++ {
						gr := gsrc[y*ow : (y+1)*ow]
						dr := dst[(y*g.Stride+ky)*pw+kx:]
						if g.Stride == 1 {
							for x, gv := range gr {
								dr[x] += v * gv
							}
						} else {
							for x, gv := range gr {
								dr[x*g.Stride] += v * gv
							}
						}
					}
				}
			}
		}
	})
	if g.Pad == 0 {
		return gpad
	}
	return tensor.Crop2D(gpad, g.Pad)
}

// accumulateFisher folds one batch's activation-gradient products into
// the per-channel Fisher saliency estimates: for each sample n and
// channel c, score[c] += (Σ_{h,w} act·grad)², the empirical Fisher
// approximation of the loss change from deleting the channel.
func (c *Conv2D) accumulateFisher(gradOut *tensor.Tensor) {
	if c.FisherScores == nil || len(c.FisherScores) != c.Geom.OutC {
		c.FisherScores = make([]float64, c.Geom.OutC)
	}
	s := gradOut.Shape()
	n, ch, hw := s[0], s[1], s[2]*s[3]
	ad, gd := c.lastOut.Data(), gradOut.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < ch; ci++ {
			base := (ni*ch + ci) * hw
			var acc float64
			for i := 0; i < hw; i++ {
				acc += float64(ad[base+i]) * float64(gd[base+i])
			}
			c.FisherScores[ci] += 0.5 * acc * acc
		}
	}
}

// ResetFisher clears accumulated saliencies (called after each pruning
// decision so scores reflect the current architecture).
func (c *Conv2D) ResetFisher() {
	for i := range c.FisherScores {
		c.FisherScores[i] = 0
	}
}

// Describe implements Layer.
func (c *Conv2D) Describe(in tensor.Shape) (Stats, tensor.Shape) {
	g := c.Geom
	out := c.OutShape(in)
	cpg := g.InC / g.Groups
	kArea := g.KH * g.KW
	oh, ow := out[2], out[3]
	nnz := c.W.W.NumElements() - c.W.W.CountZeros()
	macsPerImage := int64(g.OutC) * int64(cpg) * int64(kArea) * int64(oh) * int64(ow)
	padBytes := 0
	if g.Pad > 0 {
		padBytes = 4 * in[0] * g.InC * (in[2] + 2*g.Pad) * (in[3] + 2*g.Pad)
	}
	return Stats{
		Name:        c.LayerName,
		Kind:        "conv",
		Params:      c.W.W.NumElements() + g.OutC,
		NNZ:         nnz + g.OutC,
		MACs:        int64(in[0]) * macsPerImage,
		SparseMACs:  int64(in[0]) * int64(nnz) * int64(oh) * int64(ow),
		InBytes:     activationBytes(in),
		OutBytes:    activationBytes(out),
		WeightBytes: 4 * (c.W.W.NumElements() + g.OutC),
		PadBytes:    padBytes,
		Groups:      g.Groups,
		OutShape:    out,
	}, out
}
