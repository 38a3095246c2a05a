// Package models constructs the three CNN topologies the paper
// characterises — VGG-16 (truncated CIFAR-10 form), ResNet-18 and
// MobileNet — plus width-scaled "mini" variants used by the real-training
// experiments, where full-size pure-Go training would be infeasible.
//
// All builders take a deterministic RNG so experiments are reproducible
// bit-for-bit.
package models

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// CIFARInput is the per-image input shape of the CIFAR-10 dataset.
var CIFARInput = tensor.Shape{3, 32, 32}

// CIFARClasses is the CIFAR-10 class count.
const CIFARClasses = 10

// conv3x3 is shorthand for a padded 3×3 convolution geometry.
func conv3x3(inC, outC, stride int) sparse.ConvParams {
	return sparse.ConvParams{InC: inC, OutC: outC, KH: 3, KW: 3, Stride: stride, Pad: 1, Groups: 1}
}

// conv1x1 is shorthand for a pointwise convolution geometry.
func conv1x1(inC, outC, stride int) sparse.ConvParams {
	return sparse.ConvParams{InC: inC, OutC: outC, KH: 1, KW: 1, Stride: stride, Pad: 0, Groups: 1}
}

// depthwise3x3 is shorthand for a depthwise 3×3 convolution geometry.
func depthwise3x3(c, stride int) sparse.ConvParams {
	return sparse.ConvParams{InC: c, OutC: c, KH: 3, KW: 3, Stride: stride, Pad: 1, Groups: c}
}

// VGG16 builds the paper's truncated CIFAR-10 VGG-16: 13 convolutional
// layers (3×3 kernels, batch-normalised), max-pooling after layers
// {2,4,7,10,13}, and two fully-connected layers of 512 and 10 nodes
// replacing the original ImageNet classifier head (§IV-A).
func VGG16(r *tensor.RNG) *nn.Network {
	return vggWithWidth("vgg16", 1.0, r)
}

// vggWithWidth builds the VGG topology with channel counts scaled by the
// given multiplier (1.0 = paper configuration).
func vggWithWidth(name string, width float64, r *tensor.RNG) *nn.Network {
	scale := func(c int) int {
		s := int(float64(c) * width)
		if s < 1 {
			s = 1
		}
		return s
	}
	// The classic VGG-16 configuration; "M" denotes 2×2 max pooling.
	plan := []interface{}{
		64, 64, "M",
		128, 128, "M",
		256, 256, 256, "M",
		512, 512, 512, "M",
		512, 512, 512, "M",
	}
	net := nn.NewNetwork(name, CIFARInput, CIFARClasses)
	inC := CIFARInput[0]
	li, pi := 0, 0
	for _, step := range plan {
		switch v := step.(type) {
		case int:
			li++
			outC := scale(v)
			net.Add(
				nn.NewConv2D(fmt.Sprintf("conv%d", li), conv3x3(inC, outC, 1), r),
				nn.NewBatchNorm(fmt.Sprintf("bn%d", li), outC),
				nn.NewReLU(fmt.Sprintf("relu%d", li)),
			)
			inC = outC
		case string:
			pi++
			net.Add(nn.NewMaxPool2D(fmt.Sprintf("pool%d", pi), 2))
		}
	}
	// After five poolings a 32×32 input is 1×1 spatially.
	hidden := scale(512)
	net.Add(
		nn.NewFlatten("flatten"),
		nn.NewLinear("fc1", inC, hidden, r),
		nn.NewReLU("fc1.relu"),
		nn.NewLinear("fc2", hidden, CIFARClasses, r),
	)
	return net
}

// ResNet18 builds the 18-layer residual network in its CIFAR-10 form:
// an initial 3×3 convolution followed by four stages of two basic blocks
// (64, 128, 256, 512 channels; stages 2-4 downsample by stride 2), global
// average pooling and a linear classifier (§IV-A).
func ResNet18(r *tensor.RNG) *nn.Network {
	return resnetWithWidth("resnet18", 1.0, 2, r)
}

// resnetWithWidth scales channel counts by width and uses the given
// number of blocks per stage (2 for ResNet-18).
func resnetWithWidth(name string, width float64, blocksPerStage int, r *tensor.RNG) *nn.Network {
	scale := func(c int) int {
		s := int(float64(c) * width)
		if s < 1 {
			s = 1
		}
		return s
	}
	net := nn.NewNetwork(name, CIFARInput, CIFARClasses)
	base := scale(64)
	net.Add(
		nn.NewConv2D("conv1", conv3x3(CIFARInput[0], base, 1), r),
		nn.NewBatchNorm("bn1", base),
		nn.NewReLU("relu1"),
	)
	inC := base
	for stage, c := range []int{64, 128, 256, 512} {
		outC := scale(c)
		for b := 0; b < blocksPerStage; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			net.Add(nn.NewResidualBlock(fmt.Sprintf("stage%d.block%d", stage+1, b+1), inC, outC, stride, r))
			inC = outC
		}
	}
	net.Add(
		nn.NewGlobalAvgPool("avgpool"),
		nn.NewFlatten("flatten"),
		nn.NewLinear("fc", inC, CIFARClasses, r),
	)
	return net
}

// MobileNet builds the original ImageNet MobileNet definition with the
// classifier changed to 10 outputs (§IV-A): an initial strided 3×3
// convolution, then 13 depthwise-separable blocks alternating 3×3
// depthwise and 1×1 pointwise convolutions — 27 convolutional layers in
// total — with global average pooling and a single linear classifier.
func MobileNet(r *tensor.RNG) *nn.Network {
	return mobilenetWithWidth("mobilenet", 1.0, r)
}

func mobilenetWithWidth(name string, width float64, r *tensor.RNG) *nn.Network {
	scale := func(c int) int {
		s := int(float64(c) * width)
		if s < 1 {
			s = 1
		}
		return s
	}
	// (outChannels, stride) of each depthwise-separable block, from the
	// MobileNet paper's Table 1.
	blocks := []struct{ c, s int }{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
		{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1},
		{1024, 2}, {1024, 1},
	}
	net := nn.NewNetwork(name, CIFARInput, CIFARClasses)
	first := scale(32)
	net.Add(
		nn.NewConv2D("conv1", conv3x3(CIFARInput[0], first, 2), r),
		nn.NewBatchNorm("bn1", first),
		nn.NewReLU("relu1"),
	)
	inC := first
	for i, b := range blocks {
		outC := scale(b.c)
		dw := fmt.Sprintf("block%d.dw", i+1)
		pw := fmt.Sprintf("block%d.pw", i+1)
		net.Add(
			nn.NewConv2D(dw, depthwise3x3(inC, b.s), r),
			nn.NewBatchNorm(dw+".bn", inC),
			nn.NewReLU(dw+".relu"),
			nn.NewConv2D(pw, conv1x1(inC, outC, 1), r),
			nn.NewBatchNorm(pw+".bn", outC),
			nn.NewReLU(pw+".relu"),
		)
		inC = outC
	}
	net.Add(
		nn.NewGlobalAvgPool("avgpool"),
		nn.NewFlatten("flatten"),
		nn.NewLinear("fc", inC, CIFARClasses, r),
	)
	return net
}

// MiniVGG builds a width-reduced VGG used by the real-training accuracy
// experiments (Fig. 3 shape reproduction on the synthetic dataset).
func MiniVGG(r *tensor.RNG) *nn.Network { return vggWithWidth("mini-vgg", 0.125, r) }

// MiniResNet builds a width-reduced ResNet-18 for training experiments.
func MiniResNet(r *tensor.RNG) *nn.Network {
	return resnetWithWidth("mini-resnet", 0.125, 2, r)
}

// MiniMobileNet builds a width-reduced MobileNet for training
// experiments. MobileNet's fragility under weight pruning (Fig. 3a) is a
// consequence of its already-minimal parameter budget, which the width
// reduction preserves proportionally.
func MiniMobileNet(r *tensor.RNG) *nn.Network {
	return mobilenetWithWidth("mini-mobilenet", 0.25, r)
}

// builders is the one name→builder table: ByName builds from it, Known
// checks names against it without building, and Names/Kinds list it.
// Full-size models come first, in the paper's order.
var builders = []struct {
	name  string
	build func(*tensor.RNG) *nn.Network
	mini  bool
}{
	{"vgg16", VGG16, false},
	{"resnet18", ResNet18, false},
	{"mobilenet", MobileNet, false},
	{"mini-vgg", MiniVGG, true},
	{"mini-resnet", MiniResNet, true},
	{"mini-mobilenet", MiniMobileNet, true},
}

// builder returns the table's constructor for name, or nil.
func builder(name string) func(*tensor.RNG) *nn.Network {
	for _, b := range builders {
		if b.name == name {
			return b.build
		}
	}
	return nil
}

// ByName builds a network (full-size or mini) from its canonical name.
func ByName(name string, r *tensor.RNG) (*nn.Network, error) {
	build := builder(name)
	if build == nil {
		return nil, fmt.Errorf("models: unknown network %q", name)
	}
	return build(r), nil
}

// Known reports whether ByName accepts name, without building anything.
func Known(name string) bool { return builder(name) != nil }

// Names lists the full-size model names in the paper's order.
func Names() []string {
	var names []string
	for _, b := range builders {
		if !b.mini {
			names = append(names, b.name)
		}
	}
	return names
}

// Kinds lists every name ByName accepts: the full-size models in the
// paper's order, then the mini training variants.
func Kinds() []string {
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.name
	}
	return names
}
