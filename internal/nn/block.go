package nn

import (
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// ResidualBlock is the two-convolution basic block of ResNet-18 with an
// identity or 1×1-projection skip connection:
//
//	out = ReLU( BN2(Conv2( ReLU(BN1(Conv1(x))) )) + shortcut(x) )
//
// The shortcut is identity when shape is preserved and a strided 1×1
// convolution + batch-norm otherwise.
type ResidualBlock struct {
	LayerName string

	Conv1 *Conv2D
	BN1   *BatchNorm
	Relu1 *ReLU
	Conv2 *Conv2D
	BN2   *BatchNorm

	// Projection shortcut (nil for identity skips).
	SkipConv *Conv2D
	SkipBN   *BatchNorm

	lastSum *tensor.Tensor // pre-activation sum cached for backward
}

// NewResidualBlock builds a basic block mapping inC→outC at the given
// stride. Midway channels equal outC, as in the CIFAR ResNet-18.
func NewResidualBlock(name string, inC, outC, stride int, r *tensor.RNG) *ResidualBlock {
	b := &ResidualBlock{
		LayerName: name,
		Conv1: NewConv2D(name+".conv1", sparse.ConvParams{
			InC: inC, OutC: outC, KH: 3, KW: 3, Stride: stride, Pad: 1, Groups: 1}, r),
		BN1:   NewBatchNorm(name+".bn1", outC),
		Relu1: NewReLU(name + ".relu1"),
		Conv2: NewConv2D(name+".conv2", sparse.ConvParams{
			InC: outC, OutC: outC, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1}, r),
		BN2: NewBatchNorm(name+".bn2", outC),
	}
	if stride != 1 || inC != outC {
		b.SkipConv = NewConv2D(name+".skip", sparse.ConvParams{
			InC: inC, OutC: outC, KH: 1, KW: 1, Stride: stride, Pad: 0, Groups: 1}, r)
		b.SkipBN = NewBatchNorm(name+".skipbn", outC)
	}
	return b
}

// Name implements Layer.
func (b *ResidualBlock) Name() string { return b.LayerName }

// Params implements Layer.
func (b *ResidualBlock) Params() []*Param {
	ps := append(b.Conv1.Params(), b.BN1.Params()...)
	ps = append(ps, b.Conv2.Params()...)
	ps = append(ps, b.BN2.Params()...)
	if b.SkipConv != nil {
		ps = append(ps, b.SkipConv.Params()...)
		ps = append(ps, b.SkipBN.Params()...)
	}
	return ps
}

// Inner returns the block's convolution layers (used by the engine to
// drop cached weight views and by the pruning code to find prunable
// layers).
func (b *ResidualBlock) Inner() []*Conv2D {
	convs := []*Conv2D{b.Conv1, b.Conv2}
	if b.SkipConv != nil {
		convs = append(convs, b.SkipConv)
	}
	return convs
}

// Forward implements Layer.
func (b *ResidualBlock) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	main := b.Conv1.Forward(ctx, in)
	main = b.BN1.Forward(ctx, main)
	main = b.Relu1.Forward(ctx, main)
	main = b.Conv2.Forward(ctx, main)
	main = b.BN2.Forward(ctx, main)

	skip := in
	if b.SkipConv != nil {
		skip = b.SkipConv.Forward(ctx, in)
		skip = b.SkipBN.Forward(ctx, skip)
	}
	sum := tensor.Add(main, skip)
	if ctx.Training {
		b.lastSum = sum
	}
	// Final ReLU applied inline (cheaper than a dedicated layer and the
	// pre-activation sum is already cached for the backward pass).
	out := tensor.New(sum.Shape()...)
	sd, od := sum.Data(), out.Data()
	for i, v := range sd {
		if v > 0 {
			od[i] = v
		}
	}
	return out
}

// PlanStep implements PlanLayer by composing the sub-layers' steps
// over the plan's shared block-scratch pair (blocks execute
// sequentially, so every block reuses the same two buffers). The block
// input stays untouched in its activation slab until both the main
// branch's first conv and the skip path have read it; the main branch
// ping-pongs between the two scratch buffers; the projection shortcut
// normalises in place (the inference batch-norm is elementwise); and
// the final add+ReLU fuses into the write to the block's output slab.
func (b *ResidualBlock) PlanStep(pc *PlanCompiler, in, out *tensor.Tensor) func() {
	bufA, bufB := pc.blockScratch(out.Shape())
	r1 := b.Conv1.PlanStep(pc, in, bufA)
	r2 := b.BN1.PlanStep(pc, bufA, bufB)
	r3 := b.Relu1.PlanStep(pc, bufB, bufA)
	r4 := b.Conv2.PlanStep(pc, bufA, bufB)
	r5 := b.BN2.PlanStep(pc, bufB, bufA) // main branch result: bufA

	skip := in
	var s1, s2 func()
	if b.SkipConv != nil {
		s1 = b.SkipConv.PlanStep(pc, in, bufB)
		s2 = b.SkipBN.PlanStep(pc, bufB, bufB)
		skip = bufB
	}
	md, sd, od := bufA.Data(), skip.Data(), out.Data()
	//dlis:noalloc
	return func() {
		r1()
		r2()
		r3()
		r4()
		r5()
		if s1 != nil {
			s1()
			s2()
		}
		for i := range od {
			v := md[i] + sd[i]
			if v > 0 {
				od[i] = v
			} else {
				od[i] = 0
			}
		}
	}
}

// Backward implements Layer.
func (b *ResidualBlock) Backward(ctx *Context, gradOut *tensor.Tensor) *tensor.Tensor {
	if b.lastSum == nil {
		panic("nn: residual block Backward before training Forward")
	}
	// Through the final ReLU.
	gSum := tensor.New(gradOut.Shape()...)
	sd, gd, gsd := b.lastSum.Data(), gradOut.Data(), gSum.Data()
	for i := range gsd {
		if sd[i] > 0 {
			gsd[i] = gd[i]
		}
	}
	// Main branch.
	g := b.BN2.Backward(ctx, gSum)
	g = b.Conv2.Backward(ctx, g)
	g = b.Relu1.Backward(ctx, g)
	g = b.BN1.Backward(ctx, g)
	gradIn := b.Conv1.Backward(ctx, g)
	// Skip branch.
	if b.SkipConv != nil {
		gs := b.SkipBN.Backward(ctx, gSum)
		gs = b.SkipConv.Backward(ctx, gs)
		tensor.AddInPlace(gradIn, gs)
	} else {
		tensor.AddInPlace(gradIn, gSum)
	}
	return gradIn
}

// Describe implements Layer by aggregating the sub-layer stats.
func (b *ResidualBlock) Describe(in tensor.Shape) (Stats, tensor.Shape) {
	agg := Stats{Name: b.LayerName, Kind: "residual"}
	shape := in
	for _, l := range []Layer{b.Conv1, b.BN1, b.Relu1, b.Conv2, b.BN2} {
		var s Stats
		s, shape = l.Describe(shape)
		agg.Params += s.Params
		agg.NNZ += s.NNZ
		agg.MACs += s.MACs
		agg.SparseMACs += s.SparseMACs
		agg.WeightBytes += s.WeightBytes
		agg.PadBytes += s.PadBytes
	}
	if b.SkipConv != nil {
		for _, l := range []Layer{b.SkipConv, b.SkipBN} {
			s, _ := l.Describe(in)
			agg.Params += s.Params
			agg.NNZ += s.NNZ
			agg.MACs += s.MACs
			agg.SparseMACs += s.SparseMACs
			agg.WeightBytes += s.WeightBytes
			agg.PadBytes += s.PadBytes
		}
	}
	agg.InBytes = activationBytes(in)
	agg.OutBytes = activationBytes(shape)
	agg.OutShape = shape
	return agg, shape
}
