// Command dlis-inspect prints model summaries: per-layer parameters,
// MACs and output shapes, plus the runtime memory footprint in dense and
// CSR formats on demand. With -probe it also serves one inference
// through the batched serving path via the transport-agnostic client
// API and reports the end-to-end result.
//
// Usage:
//
//	dlis-inspect -model vgg16
//	dlis-inspect -model mobilenet -sparsity 0.2346
//	dlis-inspect -model mini-vgg -probe
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	dlis "repro"
	"repro/internal/compress/prune"
	"repro/internal/metrics"
)

func main() {
	model := flag.String("model", "resnet18", "model name (vgg16, resnet18, mobilenet, mini-*)")
	sparsity := flag.Float64("sparsity", 0, "weight-prune to this sparsity before inspecting")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	probe := flag.Bool("probe", false, "serve one inference through the batched serving path and report it")
	flag.Parse()

	net, err := dlis.BuildModel(*model, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlis-inspect:", err)
		os.Exit(1)
	}
	if *sparsity > 0 {
		prune.NetworkToSparsity(net, *sparsity)
	}
	fmt.Print(net.Summary(1))
	fmt.Printf("\nweight sparsity: %.2f%%\n", net.WeightSparsity()*100)
	fmt.Printf("memory (dense):  %s\n", metrics.Measure(net, 1, metrics.Dense))
	fmt.Printf("memory (csr):    %s\n", metrics.Measure(net, 1, metrics.CSR))

	if *probe {
		if err := serveProbe(*model, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dlis-inspect:", err)
			os.Exit(1)
		}
	}
}

// serveProbe hosts the model behind a one-replica server and answers a
// single request through the Client API — the same call shape that
// works against a remote listening dlis-serve process.
func serveProbe(model string, seed uint64) error {
	cfg := dlis.DefaultServerConfig()
	cfg.Stacks = []dlis.ServerStack{{Name: model, Stack: dlis.StackConfig{
		Model: model, Technique: dlis.Plain,
		Backend: dlis.OMP, Threads: 1, Platform: "odroid-xu4", Seed: seed,
	}}}
	srv, err := dlis.NewServer(cfg)
	if err != nil {
		return err
	}
	client := dlis.NewLocalClient(srv)
	defer client.Close()

	ctx := context.Background()
	ms, err := client.Models(ctx)
	if err != nil {
		return err
	}
	shape := ms[0].InputShape // C×H×W
	resp, err := client.InferSync(ctx, dlis.Request{
		Target: model,
		Images: []*dlis.Tensor{dlis.NewImage(1, shape[1], shape[2], seed)},
	})
	if err != nil {
		return err
	}
	r := resp.First()
	fmt.Printf("\nserved probe:    class %d via %s (batch %d, %v end to end, %v compute)\n",
		r.Class, r.Stack, r.BatchSize, r.Latency, r.Compute)
	return nil
}
