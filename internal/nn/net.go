package nn

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers — sufficient for all three paper
// topologies since residual branching is encapsulated in ResidualBlock.
type Network struct {
	// NetName identifies the topology ("vgg16", "resnet18", ...).
	NetName string
	Layers  []Layer
	// InputShape is the per-image CHW shape the network expects.
	InputShape tensor.Shape
	// Classes is the output dimensionality.
	Classes int

	// version counts structural mutations (see MarkMutated); compiled
	// plans record the version they were built against so stale plans
	// can be detected instead of silently serving old structure.
	version atomic.Uint64

	// quantised records that compress/quant has run on this network, so
	// the plan compiler may offer the reduced-precision kernels as Auto
	// candidates and technique mapping may lower to them. Atomic because
	// replica workers compile plans concurrently.
	quantised atomic.Bool
}

// NewNetwork constructs an empty network.
func NewNetwork(name string, input tensor.Shape, classes int) *Network {
	return &Network{NetName: name, InputShape: input.Clone(), Classes: classes}
}

// Add appends layers.
func (n *Network) Add(layers ...Layer) { n.Layers = append(n.Layers, layers...) }

// Forward runs all layers in order. Layer boundaries are implicit
// barriers, matching the paper's OpenMP synchronisation "on each neural
// network layer" (every parallel.For joins before returning).
func (n *Network) Forward(ctx *Context, in *tensor.Tensor) *tensor.Tensor {
	x := in
	for _, l := range n.Layers {
		x = l.Forward(ctx, x)
	}
	return x
}

// Backward propagates the loss gradient through all layers in reverse,
// accumulating parameter gradients.
func (n *Network) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	g := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(ctx, g)
	}
	return g
}

// Params returns every learnable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears every gradient accumulator.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// Convs returns every convolution layer in execution order, descending
// into residual blocks. Compression techniques operate on this list.
func (n *Network) Convs() []*Conv2D {
	var convs []*Conv2D
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			convs = append(convs, v)
		case *ResidualBlock:
			convs = append(convs, v.Inner()...)
		}
	}
	return convs
}

// Linears returns every fully-connected layer.
func (n *Network) Linears() []*Linear {
	var ls []*Linear
	for _, l := range n.Layers {
		if v, ok := l.(*Linear); ok {
			ls = append(ls, v)
		}
	}
	return ls
}

// Freeze marks the end of a weight change (pruning, quantisation,
// loading): it drops every layer's cached CSR, int8 and binary16 views
// and counts as a structural mutation, so compiled plans that captured
// the old views are stale afterwards. It builds nothing — each view is
// rebuilt from the current weights on first use, and nn.Compile forces
// the views a plan needs — so a dense model never pays for a CSR copy.
func (n *Network) Freeze() {
	for _, c := range n.Convs() {
		c.Invalidate()
	}
	for _, l := range n.Linears() {
		l.Invalidate()
	}
	n.MarkMutated()
}

// MarkMutated records a structural mutation — layer surgery, mask
// changes followed by a re-freeze, anything that invalidates compiled
// plans' captured buffers and CSR views. Plain in-place weight updates
// do not need it (plans hold views into the live weights). Freeze and
// the compression transforms call it; callers performing bespoke
// surgery should too.
func (n *Network) MarkMutated() { n.version.Add(1) }

// Version returns the structural mutation counter. Consumers caching
// derived artefacts (compiled plans) compare it against the version
// they compiled at and rebuild on mismatch.
func (n *Network) Version() uint64 { return n.version.Load() }

// MarkQuantised flags the network as having been through weight
// quantisation (compress/quant calls this); it is never cleared.
func (n *Network) MarkQuantised() { n.quantised.Store(true) }

// Quantised reports whether compress/quant has run on this network.
func (n *Network) Quantised() bool { return n.quantised.Load() }

// Describe walks the network at the given batch size, returning per-layer
// stats and the aggregate.
func (n *Network) Describe(batch int) ([]Stats, Stats) {
	shape := tensor.Shape{batch, n.InputShape[0], n.InputShape[1], n.InputShape[2]}
	var all []Stats
	agg := Stats{Name: n.NetName, Kind: "network"}
	agg.InBytes = activationBytes(shape)
	for _, l := range n.Layers {
		var s Stats
		s, shape = l.Describe(shape)
		all = append(all, s)
		agg.Params += s.Params
		agg.NNZ += s.NNZ
		agg.MACs += s.MACs
		agg.SparseMACs += s.SparseMACs
		agg.WeightBytes += s.WeightBytes
		agg.PadBytes += s.PadBytes
	}
	agg.OutShape = shape
	agg.OutBytes = activationBytes(shape)
	return all, agg
}

// ParamCount returns the total learnable parameter count.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.NumElements()
	}
	return total
}

// WeightSparsity returns the zero fraction across all conv and linear
// weights (the quantity on the x-axis of Fig. 3a).
func (n *Network) WeightSparsity() float64 {
	var zeros, total int
	for _, c := range n.Convs() {
		zeros += c.W.W.CountZeros()
		total += c.W.W.NumElements()
	}
	for _, l := range n.Linears() {
		zeros += l.W.W.CountZeros()
		total += l.W.W.NumElements()
	}
	if total == 0 {
		return 0
	}
	return float64(zeros) / float64(total)
}

// Summary renders a human-readable per-layer table.
func (n *Network) Summary(batch int) string {
	stats, agg := n.Describe(batch)
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-10s %12s %14s %12s\n", "layer", "kind", "params", "MACs", "out")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-18s %-10s %12d %14d %12s\n", s.Name, s.Kind, s.Params, s.MACs, s.OutShape)
	}
	fmt.Fprintf(&b, "%-18s %-10s %12d %14d %12s\n", "TOTAL", "", agg.Params, agg.MACs, agg.OutShape)
	return b.String()
}
