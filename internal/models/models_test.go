package models

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func forwardShape(t *testing.T, net *nn.Network) {
	t.Helper()
	ctx := nn.Inference()
	in := tensor.New(1, net.InputShape[0], net.InputShape[1], net.InputShape[2])
	r := tensor.NewRNG(7)
	in.FillNormal(r, 0, 1)
	out := net.Forward(&ctx, in)
	if !out.Shape().Equal(tensor.Shape{1, CIFARClasses}) {
		t.Fatalf("%s output shape %v, want (1, 10)", net.NetName, out.Shape())
	}
	if !out.AllFinite() {
		t.Fatalf("%s produced non-finite logits", net.NetName)
	}
}

func TestVGG16Structure(t *testing.T) {
	net := VGG16(tensor.NewRNG(1))
	convs := net.Convs()
	if len(convs) != 13 {
		t.Fatalf("VGG-16 must have 13 conv layers, got %d", len(convs))
	}
	for _, c := range convs {
		if c.Geom.KH != 3 || c.Geom.KW != 3 {
			t.Fatalf("VGG-16 conv %s kernel %dx%d, want 3x3", c.Name(), c.Geom.KH, c.Geom.KW)
		}
	}
	if len(net.Linears()) != 2 {
		t.Fatalf("truncated VGG-16 must have 2 FC layers, got %d", len(net.Linears()))
	}
	pools := 0
	for _, l := range net.Layers {
		if _, ok := l.(*nn.MaxPool2D); ok {
			pools++
		}
	}
	if pools != 5 {
		t.Fatalf("VGG-16 must have 5 max-pool layers, got %d", pools)
	}
	// ~15M parameters for the CIFAR form.
	if p := net.ParamCount(); p < 14_000_000 || p > 16_000_000 {
		t.Fatalf("VGG-16 param count %d outside expected range", p)
	}
}

func TestResNet18Structure(t *testing.T) {
	net := ResNet18(tensor.NewRNG(1))
	blocks := 0
	for _, l := range net.Layers {
		if _, ok := l.(*nn.ResidualBlock); ok {
			blocks++
		}
	}
	if blocks != 8 {
		t.Fatalf("ResNet-18 must have 8 basic blocks, got %d", blocks)
	}
	// conv1 + 8 blocks × 2 convs + 3 projection shortcuts = 20 convs.
	if got := len(net.Convs()); got != 20 {
		t.Fatalf("ResNet-18 conv count %d, want 20", got)
	}
	// ~11M parameters.
	if p := net.ParamCount(); p < 10_500_000 || p > 12_000_000 {
		t.Fatalf("ResNet-18 param count %d outside expected range", p)
	}
}

func TestMobileNetStructure(t *testing.T) {
	net := MobileNet(tensor.NewRNG(1))
	convs := net.Convs()
	// Paper: "MobileNet consists of 27 convolutional layers".
	if len(convs) != 27 {
		t.Fatalf("MobileNet must have 27 conv layers, got %d", len(convs))
	}
	dw, pw := 0, 0
	for _, c := range convs {
		if c.Geom.Groups > 1 {
			dw++
		} else if c.Geom.KH == 1 {
			pw++
		}
	}
	if dw != 13 || pw != 13 {
		t.Fatalf("MobileNet depthwise/pointwise = %d/%d, want 13/13", dw, pw)
	}
	if len(net.Linears()) != 1 {
		t.Fatalf("MobileNet must have a single FC layer, got %d", len(net.Linears()))
	}
	// ~3.2M parameters.
	if p := net.ParamCount(); p < 3_000_000 || p > 3_500_000 {
		t.Fatalf("MobileNet param count %d outside expected range", p)
	}
}

func TestParameterOrdering(t *testing.T) {
	// The paper's premise: MobileNet is the hand-optimised small model,
	// VGG-16 the largest.
	r := tensor.NewRNG(1)
	vgg, res, mob := VGG16(r), ResNet18(r), MobileNet(r)
	if !(mob.ParamCount() < res.ParamCount() && res.ParamCount() < vgg.ParamCount()) {
		t.Fatalf("parameter ordering violated: vgg=%d resnet=%d mobilenet=%d",
			vgg.ParamCount(), res.ParamCount(), mob.ParamCount())
	}
}

func TestMACOrdering(t *testing.T) {
	// MobileNet's depthwise-separable design must also execute the
	// fewest dense MACs per inference.
	r := tensor.NewRNG(1)
	_, vggAgg := VGG16(r).Describe(1)
	_, mobAgg := MobileNet(r).Describe(1)
	if mobAgg.MACs >= vggAgg.MACs {
		t.Fatalf("MobileNet MACs %d must be below VGG-16 MACs %d", mobAgg.MACs, vggAgg.MACs)
	}
}

func TestMiniModelsForward(t *testing.T) {
	r := tensor.NewRNG(2)
	for _, net := range []*nn.Network{MiniVGG(r), MiniResNet(r), MiniMobileNet(r)} {
		forwardShape(t, net)
	}
}

func TestMiniModelsAreSmall(t *testing.T) {
	r := tensor.NewRNG(2)
	if p := MiniVGG(r).ParamCount(); p > 500_000 {
		t.Fatalf("mini-vgg too large for training experiments: %d params", p)
	}
	if p := MiniResNet(r).ParamCount(); p > 500_000 {
		t.Fatalf("mini-resnet too large: %d params", p)
	}
	if p := MiniMobileNet(r).ParamCount(); p > 500_000 {
		t.Fatalf("mini-mobilenet too large: %d params", p)
	}
}

func TestFullModelsForward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size forward passes are slow in -short mode")
	}
	r := tensor.NewRNG(3)
	forwardShape(t, MobileNet(r))
	forwardShape(t, ResNet18(r))
	forwardShape(t, VGG16(r))
}

func TestByName(t *testing.T) {
	for _, name := range append(Names(), "mini-vgg", "mini-resnet", "mini-mobilenet") {
		net, err := ByName(name, tensor.NewRNG(1))
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if net == nil {
			t.Fatalf("ByName(%q) returned nil", name)
		}
	}
	if _, err := ByName("alexnet", tensor.NewRNG(1)); err == nil {
		t.Fatal("unknown model must return an error")
	}
}

// TestKnownAgreesWithByName: the one name table answers both questions
// the same way, for every name it lists and for one it does not.
func TestKnownAgreesWithByName(t *testing.T) {
	for _, name := range append(Kinds(), "alexnet", "", "VGG16") {
		t.Run(name, func(t *testing.T) {
			if !Known(name) {
				if _, err := ByName(name, nil); err == nil || err.Error() != `models: unknown network "`+name+`"` {
					t.Fatalf("Known(%q) = false but ByName error = %v", name, err)
				}
				return
			}
			net, err := ByName(name, nil)
			if err != nil || net == nil {
				t.Fatalf("Known(%q) = true but ByName = %v, %v", name, net, err)
			}
		})
	}
	want := []string{"vgg16", "resnet18", "mobilenet", "mini-vgg", "mini-resnet", "mini-mobilenet"}
	if got := Kinds(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	if got := Names(); strings.Join(got, ",") != strings.Join(want[:3], ",") {
		t.Fatalf("Names() = %v, want the full-size models %v", got, want[:3])
	}
	if Known("alexnet") {
		t.Fatal(`Known("alexnet") = true`)
	}
}

// TestMiniVGGPlanZeroAllocations is the compiled-plan steady-state
// guarantee at model scale: after compilation and one warm-up, mini-vgg
// plans execute without heap allocation at batch 1 and 8, under the
// default context and the quantised int8 one.
func TestMiniVGGPlanZeroAllocations(t *testing.T) {
	for _, tc := range []struct {
		algo  nn.Algo
		batch int
	}{
		{nn.Direct, 1}, {nn.Direct, 8},
		{nn.QuantInt8, 1}, {nn.QuantInt8, 8},
	} {
		t.Run(fmt.Sprintf("%v/batch=%d", tc.algo, tc.batch), func(t *testing.T) {
			ctx := nn.Inference()
			ctx.Algo = tc.algo
			in := tensor.New(tc.batch, 3, 32, 32)
			in.FillNormal(tensor.NewRNG(14), 0, 1)
			plan, err := nn.Compile(MiniVGG(tensor.NewRNG(13)), ctx, in.Shape())
			if err != nil {
				t.Fatal(err)
			}
			plan.Execute(in) // warm-up
			// Settle the compiler's garbage so its GC byproducts cannot
			// land inside the measured runs.
			runtime.GC()
			if allocs := testing.AllocsPerRun(3, func() { plan.Execute(in) }); allocs != 0 {
				t.Fatalf("Execute performed %v allocations per inference, want 0", allocs)
			}
		})
	}
}
