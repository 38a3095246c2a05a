package nn

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Linear is a fully-connected layer y = W·x + b operating on flattened
// inputs. Input tensors of rank 4 are flattened implicitly — the paper's
// networks all end with a flatten-then-dense classifier head.
type Linear struct {
	LayerName string
	In, Out   int
	W         *Param // (Out, In)
	B         *Param // (Out)

	// csr and qw cache the CSR and int8 views of W, built on first use
	// and dropped by Invalidate.
	csr    view[sparse.CSR]
	qw     view[blas.QMatrix]
	lastIn *tensor.Tensor // flattened (N, In)
}

// NewLinear builds a fully-connected layer with He initialisation.
func NewLinear(name string, in, out int, r *tensor.RNG) *Linear {
	l := &Linear{
		LayerName: name,
		In:        in,
		Out:       out,
		W:         NewParam(name+".weight", out, in),
		B:         NewParam(name+".bias", out),
	}
	l.B.Decay = false
	if r != nil {
		l.W.W.FillHe(r, in)
	}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// CSR returns the sparse view of W, building it on first use.
func (l *Linear) CSR() *sparse.CSR { return l.csr.get(l.buildCSR) }

// QWeights returns the int8 per-output-neuron-scaled weight view,
// building it on first use.
func (l *Linear) QWeights() *blas.QMatrix { return l.qw.get(l.buildQWeights) }

func (l *Linear) buildCSR() *sparse.CSR { return sparse.FromDense(l.W.W) }

func (l *Linear) buildQWeights() *blas.QMatrix {
	return blas.QuantizeRowsInt8(l.W.W.Data(), l.Out, l.In)
}

// Invalidate drops the CSR and int8 caches.
func (l *Linear) Invalidate() {
	l.csr.drop()
	l.qw.drop()
}

func (l *Linear) flatten(in *tensor.Tensor) *tensor.Tensor {
	n := in.Shape()[0]
	per := in.NumElements() / n
	if per != l.In {
		panic(fmt.Sprintf("nn: linear %q expects %d features, got %d (shape %v)",
			l.LayerName, l.In, per, in.Shape()))
	}
	return in.Reshape(n, l.In)
}

// Forward implements Layer.
func (l *Linear) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	x := l.flatten(in)
	if ctx.Training {
		l.lastIn = x
	}
	n := x.Shape()[0]
	out := tensor.New(n, l.Out)
	bias := l.B.W.Data()

	if ctx.Algo == SparseDirect {
		c := l.CSR()
		for ni := 0; ni < n; ni++ {
			row := out.Data()[ni*l.Out : (ni+1)*l.Out]
			c.MatVec(x.Data()[ni*l.In:(ni+1)*l.In], row)
			for i := range row {
				row[i] += bias[i]
			}
		}
		return out
	}

	if ctx.Algo == QuantInt8 {
		qw := l.QWeights()
		xd, od := x.Data(), out.Data()
		xq := make([]int8, n*l.In)
		xs := make([]float32, n)
		for ni := 0; ni < n; ni++ {
			xs[ni] = blas.QuantizeInt8(xq[ni*l.In:(ni+1)*l.In], xd[ni*l.In:(ni+1)*l.In])
		}
		parallel.For(n*l.Out, ctx.Threads, ctx.Sched, linearInt8Body(qw, xq, xs, od, bias, l.In, l.Out))
		return out
	}

	// QuantF16 has no dedicated linear kernel — binary16 is a conv
	// storage optimisation here — so it runs the dense f32 path.
	wd, xd, od := l.W.W.Data(), x.Data(), out.Data()
	parallel.For(n*l.Out, ctx.Threads, ctx.Sched, func(job int) {
		ni, o := job/l.Out, job%l.Out
		wrow := wd[o*l.In : (o+1)*l.In]
		xrow := xd[ni*l.In : (ni+1)*l.In]
		acc := bias[o]
		for i, wv := range wrow {
			acc += wv * xrow[i]
		}
		od[ni*l.Out+o] = acc
	})
	return out
}

// linearInt8Body builds the per-(image, output) int8 dot-product body:
// int32 accumulation, exact-zero weight codes skipped (the TTQ ternary
// zeros), dequantised by the product of the weight-row and activation
// scales. Closing over fixed slices keeps the plan path allocation-free.
func linearInt8Body(qw *blas.QMatrix, xq []int8, xs []float32, od, bias []float32, in, out int) func(job int) {
	return func(job int) {
		ni, o := job/out, job%out
		wrow := qw.Data[o*in : (o+1)*in]
		xrow := xq[ni*in : (ni+1)*in]
		var acc int32
		for i, wv := range wrow {
			if wv == 0 {
				continue
			}
			acc += int32(wv) * int32(xrow[i])
		}
		od[ni*out+o] = float32(acc)*(qw.Scales[o]*xs[ni]) + bias[o]
	}
}

// PlanStep implements PlanLayer. Under SparseDirect the frozen CSR
// view executes row-by-row; under Auto the layer goes sparse when at
// least half its weights are zero (fully-connected layers are where
// CSR wins earliest — paper Fig. 1) and dense otherwise.
func (l *Linear) PlanStep(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	x := l.flatten(in)
	n := x.Shape()[0]
	bias := l.B.W.Data()
	xd, od := x.Data(), out.Data()

	algo := pc.ctx.Algo
	if algo == Auto {
		switch {
		case pc.net != nil && pc.net.Quantised():
			// A quantised network's rows are ternary: the int8 kernel
			// gets both the zero-skip and the 4× weight bandwidth.
			algo = QuantInt8
		case l.W.W.Sparsity() >= 0.5:
			algo = SparseDirect
		default:
			algo = Direct
		}
	}
	if algo == QuantF16 {
		// No dedicated f16 linear kernel; run the dense f32 path.
		algo = Direct
	}
	if algo == QuantInt8 {
		qw := l.QWeights()
		// int8 activation staging is compile-time make(): the arena only
		// serves float32, and these persist across runs all the same.
		xq := make([]int8, n*l.In)
		xs := make([]float32, n)
		body := linearInt8Body(qw, xq, xs, od, bias, l.In, l.Out)
		threads, sched := pc.ctx.Threads, pc.ctx.Sched
		//dlis:noalloc
		return func() {
			for ni := 0; ni < n; ni++ {
				xs[ni] = blas.QuantizeInt8(xq[ni*l.In:(ni+1)*l.In], xd[ni*l.In:(ni+1)*l.In])
			}
			parallel.For(n*l.Out, threads, sched, body)
		}
	}
	if algo == SparseDirect {
		csr := l.CSR()
		//dlis:noalloc
		return func() {
			for ni := 0; ni < n; ni++ {
				row := od[ni*l.Out : (ni+1)*l.Out]
				csr.MatVec(xd[ni*l.In:(ni+1)*l.In], row)
				for i := range row {
					row[i] += bias[i]
				}
			}
		}
	}

	wd := l.W.W.Data()
	threads, sched := pc.ctx.Threads, pc.ctx.Sched
	body := func(job int) {
		ni, o := job/l.Out, job%l.Out
		wrow := wd[o*l.In : (o+1)*l.In]
		xrow := xd[ni*l.In : (ni+1)*l.In]
		acc := bias[o]
		for i, wv := range wrow {
			acc += wv * xrow[i]
		}
		od[ni*l.Out+o] = acc
	}
	//dlis:noalloc
	return func() {
		parallel.For(n*l.Out, threads, sched, body)
	}
}

// Backward implements Layer.
func (l *Linear) Backward(ctx *Context, gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastIn == nil {
		panic(fmt.Sprintf("nn: linear %q Backward before training Forward", l.LayerName))
	}
	l.Invalidate()
	x := l.lastIn
	n := x.Shape()[0]
	if !gradOut.Shape().Equal(tensor.Shape{n, l.Out}) {
		panic(fmt.Sprintf("nn: linear %q gradOut shape %v, want (%d, %d)",
			l.LayerName, gradOut.Shape(), n, l.Out))
	}
	gd, xd := gradOut.Data(), x.Data()
	gw, gb, wd := l.W.Grad.Data(), l.B.Grad.Data(), l.W.W.Data()

	// dW[o,i] += Σ_n g[n,o]·x[n,i]; db[o] += Σ_n g[n,o].
	parallel.For(l.Out, ctx.Threads, ctx.Sched, func(o int) {
		grow := gw[o*l.In : (o+1)*l.In]
		var bacc float32
		for ni := 0; ni < n; ni++ {
			g := gd[ni*l.Out+o]
			bacc += g
			if g == 0 {
				continue
			}
			xrow := xd[ni*l.In : (ni+1)*l.In]
			for i := range grow {
				grow[i] += g * xrow[i]
			}
		}
		gb[o] += bacc
	})

	// dX[n,i] = Σ_o g[n,o]·W[o,i].
	gradIn := tensor.New(n, l.In)
	gid := gradIn.Data()
	parallel.For(n, ctx.Threads, ctx.Sched, func(ni int) {
		dst := gid[ni*l.In : (ni+1)*l.In]
		for o := 0; o < l.Out; o++ {
			g := gd[ni*l.Out+o]
			if g == 0 {
				continue
			}
			wrow := wd[o*l.In : (o+1)*l.In]
			for i := range dst {
				dst[i] += g * wrow[i]
			}
		}
	})
	return gradIn
}

// Describe implements Layer.
func (l *Linear) Describe(in tensor.Shape) (Stats, tensor.Shape) {
	n := in[0]
	out := tensor.Shape{n, l.Out}
	nnz := l.W.W.NumElements() - l.W.W.CountZeros()
	return Stats{
		Name:        l.LayerName,
		Kind:        "linear",
		Params:      l.W.W.NumElements() + l.Out,
		NNZ:         nnz + l.Out,
		MACs:        int64(n) * int64(l.In) * int64(l.Out),
		SparseMACs:  int64(n) * int64(nnz),
		InBytes:     activationBytes(in),
		OutBytes:    activationBytes(out),
		WeightBytes: 4 * (l.W.W.NumElements() + l.Out),
		OutShape:    out,
	}, out
}
