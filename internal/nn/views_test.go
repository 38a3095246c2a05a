package nn_test

import (
	"sync"
	"testing"

	"repro/internal/compress/prune"
	"repro/internal/compress/quant"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// quantisedMiniVGG builds the same ternary mini-vgg on every call.
func quantisedMiniVGG(t *testing.T) *nn.Network {
	t.Helper()
	net, err := models.ByName("mini-vgg", tensor.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	quant.Quantize(net, 0.05)
	return net
}

func viewInput() *tensor.Tensor {
	in := tensor.New(2, 3, 32, 32)
	in.FillNormal(tensor.NewRNG(42), 0, 1)
	return in
}

// TestFreezeDropsReducedPrecisionViews: a forward that built the int8
// and binary16 views must not leave them behind once the weights are
// pruned. The pruned network has to run exactly what a fresh network
// with the same weights runs, not the pre-prune codes.
func TestFreezeDropsReducedPrecisionViews(t *testing.T) {
	for _, algo := range []nn.Algo{nn.QuantInt8, nn.QuantF16, nn.SparseDirect} {
		t.Run(algo.String(), func(t *testing.T) {
			ctx := nn.Inference()
			ctx.Algo = algo
			in := viewInput()

			used := quantisedMiniVGG(t)
			_ = used.Forward(&ctx, in) // builds this algorithm's views
			prune.NetworkToSparsity(used, 0.9)

			fresh := quantisedMiniVGG(t)
			prune.NetworkToSparsity(fresh, 0.9)

			if d := tensor.MaxAbsDiff(used.Forward(&ctx, in), fresh.Forward(&ctx, in)); d != 0 {
				t.Fatalf("pruned network differs from a fresh one with the same weights by %v: stale %v views", d, algo)
			}
		})
	}
}

// TestConcurrentForwardBuildsViewsOnce: eight eager forwards on a
// freshly frozen network race to build each layer's view on first use.
// Under -race this must be clean, and every goroutine must see the same
// logits as a single-threaded forward on an identical network.
func TestConcurrentForwardBuildsViewsOnce(t *testing.T) {
	for _, algo := range []nn.Algo{nn.SparseDirect, nn.QuantInt8, nn.QuantF16} {
		t.Run(algo.String(), func(t *testing.T) {
			ctx := nn.Inference()
			ctx.Algo = algo
			in := viewInput()
			want := quantisedMiniVGG(t).Forward(&ctx, in)

			net := quantisedMiniVGG(t)
			net.Freeze()
			const workers = 8
			got := make([]*tensor.Tensor, workers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := ctx
					got[w] = net.Forward(&c, in)
				}()
			}
			wg.Wait()
			for w, out := range got {
				if d := tensor.MaxAbsDiff(out, want); d != 0 {
					t.Fatalf("goroutine %d differs from the sequential forward by %v", w, d)
				}
			}
		})
	}
}
