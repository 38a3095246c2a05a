package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	dlis "repro"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/httpapi"
	"repro/internal/tensor"
)

// The `trace` command: the traced run of every workload (what --trace 1
// does for one), followed by the layer measurements that belong to no
// single workload — kernels on the four heaviest resnet18 geometries,
// the nn plan/eager table at batch 1/4/8, core per technique, the wire
// codecs — and the two BENCH_7.json anomalies re-measured with repeats
// and a spread. Everything is printed and written to bench/out/trace.json.

// fullTrace is bench/out/trace.json.
type fullTrace struct {
	Host      hostFacts               `json:"host"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*traceResult `json:"workloads"`
	Kernels   []*kernelResult         `json:"resnet18_kernels,omitempty"`
	Plans     []planRow               `json:"nn_plan_vs_eager,omitempty"`
	Core      []coreRow               `json:"core_per_technique,omitempty"`
	Codecs    []codecRow              `json:"codecs,omitempty"`
	Tuner     *tunerRows              `json:"tuner_cold_vs_warm,omitempty"`
}

func traceAll(root string, args []string) error {
	var o options
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := loadManifest(root); err != nil {
		return err
	}
	ws, err := selectWorkloads(o.workload)
	if err != nil {
		return err
	}
	out := fullTrace{Host: readHostFacts(root), Seed: o.seed, Seconds: o.seconds, Workloads: make(map[string]*traceResult)}
	fmt.Println("host:", out.Host)
	failed := 0
	for i := range ws {
		fmt.Printf("\n== traced run: %s ==\n", ws[i].Name)
		c, err := spawnChild("trace", &ws[i], o)
		if err != nil {
			return err
		}
		c.Trace.print(os.Stdout)
		if _, err := report("per_layer metric", perLayer, c.Trace.Layers); err != nil {
			return err
		}
		out.Workloads[ws[i].Name] = c.Trace
		failed += c.Trace.Failed
	}
	if o.workload == "" {
		reps := extraReps
		if o.smoke {
			reps = 2
		}
		out.Kernels = resnet18Kernels(reps, o.smoke)
		out.Plans = planVsEager(reps)
		out.Core = corePerTechnique(reps, o.smoke)
		out.Codecs = codecs()
		if out.Tuner, err = tunerColdVsWarm(root, reps); err != nil {
			return err
		}
	}
	path := filepath.Join(root, "bench", "out", "trace.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Println("\nwrote", path)
	if failed > 0 {
		return fmt.Errorf("%d ops failed the output oracle or errored", failed)
	}
	return nil
}

// extraReps is the repeat count of the stand-alone layer measurements:
// N ≥ 5 so each carries a median and an IQR.
const extraReps = 7

// resnet18Kernels measures blas/sparse/parallel on the four heaviest
// conv geometries of resnet18.
func resnet18Kernels(reps int, smoke bool) []*kernelResult {
	model := "resnet18"
	if smoke {
		model = smokeModel(model)
	}
	fmt.Printf("\n== blas · sparse · parallel: the 4 heaviest %s conv geometries ==\n", model)
	net, err := models.ByName(model, tensor.NewRNG(weightSeed))
	if err != nil {
		panic(err) // a model name typed above
	}
	var out []*kernelResult
	seen := make(map[string]bool)
	for _, site := range convSites(net) {
		key := fmt.Sprint(site.Geom, site.H, site.W)
		if seen[key] {
			continue // resnet18 repeats each geometry four times
		}
		seen[key] = true
		k := measureSite(site, reps)
		k.print(os.Stdout)
		if out = append(out, k); len(out) == 4 {
			break
		}
	}
	return out
}

// planRow is the nn layer at one batch size on mini-vgg under the
// default inference context — the configuration BenchmarkPlanInference
// and BENCH_7.json's planBench rows use.
type planRow struct {
	Batch           int     `json:"batch"`
	CompileMS       float64 `json:"compile_ms"`
	PlanMSPerImage  spread  `json:"plan_ms_per_image"`
	EagerMSPerImage spread  `json:"eager_ms_per_image"`
	PlanOverEager   float64 `json:"plan_over_eager"`
	AllocsPerRun    float64 `json:"allocs_per_execute"`
	PlanBytes       int     `json:"plan_bytes"`
}

func planVsEager(reps int) []planRow {
	fmt.Println("\n== nn: compiled plan vs eager Forward, mini-vgg, default context (the BENCH_7 plan/batch=8 anomaly) ==")
	net, err := models.ByName("mini-vgg", tensor.NewRNG(13))
	if err != nil {
		panic(err)
	}
	var rows []planRow
	for _, batch := range []int{1, 4, 8} {
		in := tensor.New(batch, 3, 32, 32)
		in.FillNormal(tensor.NewRNG(14), 0, 1)
		start := time.Now()
		plan, err := nn.Compile(net, nn.Inference(), in.Shape())
		if err != nil {
			panic(err) // mini-vgg compiles under every algorithm in tier-1
		}
		row := planRow{Batch: batch, CompileMS: float64(time.Since(start)) / 1e6, PlanBytes: plan.Bytes()}
		ctx := nn.Inference()
		plan.Execute(in)
		net.Forward(&ctx, in)
		// Interleave the two paths and time several executions per sample,
		// so that drift lands on both and a 7 ms op is not at the mercy of
		// one scheduler hiccup.
		const inner = 8
		var planMS, eagerMS []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < inner; i++ {
				plan.Execute(in)
			}
			planMS = append(planMS, float64(time.Since(start))/1e6/float64(inner*batch))
			start = time.Now()
			for i := 0; i < inner; i++ {
				net.Forward(&ctx, in)
			}
			eagerMS = append(eagerMS, float64(time.Since(start))/1e6/float64(inner*batch))
		}
		row.PlanMSPerImage, row.EagerMSPerImage = summarise(planMS), summarise(eagerMS)
		row.PlanOverEager = row.PlanMSPerImage.Median / row.EagerMSPerImage.Median
		row.AllocsPerRun = testing.AllocsPerRun(10, func() { plan.Execute(in) })
		fmt.Printf("  batch=%d compile=%.2fms plan=%.4f ms/image (IQR %.4f) eager=%.4f ms/image (IQR %.4f) plan/eager=%.3f allocs/Execute=%.0f Plan.Bytes=%d (n=%d×%d)\n",
			batch, row.CompileMS, row.PlanMSPerImage.Median, row.PlanMSPerImage.IQR(), row.EagerMSPerImage.Median, row.EagerMSPerImage.IQR(),
			row.PlanOverEager, row.AllocsPerRun, row.PlanBytes, reps, inner)
		rows = append(rows, row)
	}
	return rows
}

// coreRow is the core layer for one technique of resnet18 at Table III.
type coreRow struct {
	Technique    string  `json:"technique"`
	InstantiateS float64 `json:"instantiate_s"`
	RunMS        spread  `json:"run_ms"`
	MemoryMB     float64 `json:"memory_mb"`
}

func corePerTechnique(reps int, smoke bool) []coreRow {
	fmt.Println("\n== core: resnet18 per technique at Table III (OMP backend, 1 thread) ==")
	var rows []coreRow
	for _, tech := range core.Techniques() {
		cfg := tableIII("resnet18", tech)
		if smoke {
			cfg.Model = smokeModel(cfg.Model)
		}
		start := time.Now()
		inst, err := core.Instantiate(cfg)
		if err != nil {
			panic(err) // Table III points instantiate in tier-1
		}
		row := coreRow{Technique: tech.String(), InstantiateS: time.Since(start).Seconds(), MemoryMB: inst.MemoryMB()}
		s := inst.Net.InputShape
		img := dlis.NewImage(1, s[1], s[2], 3)
		inst.Run(img) // compiles the plan
		ms := make([]float64, reps)
		for i := range ms {
			ms[i] = float64(inst.Run(img).Elapsed) / 1e6
		}
		row.RunMS = summarise(ms)
		fmt.Printf("  %-16s instantiate_s=%.3f run_ms=%.3f (IQR %.3f, n=%d) MemoryMB=%.1f\n", row.Technique, row.InstantiateS, row.RunMS.Median, row.RunMS.IQR(), reps, row.MemoryMB)
		rows = append(rows, row)
	}
	return rows
}

// codecRow is one wire codec call at one payload size. The DLW1 payload
// codec in serve/httpapi is shared by both transports: serve/muxwire
// frames the same bytes.
type codecRow struct {
	Call    string  `json:"call"`
	Images  int     `json:"images"`
	Bytes   int     `json:"wire_bytes"`
	US      float64 `json:"us_per_call"`
	AllocKB float64 `json:"alloc_kb_per_call"`
}

func codecs() []codecRow {
	fmt.Println("\n== serve/httpapi · serve/muxwire: DLW1 payload codec, 3×32×32 images, 10 classes ==")
	var rows []codecRow
	for _, images := range []int{1, 4} {
		req := serve.Request{Target: poolName(0), Tenant: "tenant-a"}
		resp := &serve.Response{}
		for i := 0; i < images; i++ {
			img := tensor.New(3, 32, 32)
			img.FillNormal(tensor.NewRNG(uint64(i+1)), 0, 1)
			req.Images = append(req.Images, img)
			resp.Results = append(resp.Results, serve.Result{Output: tensor.New(1, 10), Stack: poolName(0), BatchSize: images})
		}
		var reqWire, respWire bytes.Buffer
		if err := httpapi.EncodeRequest(&reqWire, req); err != nil {
			panic(err)
		}
		if err := httpapi.EncodeResponse(&respWire, resp); err != nil {
			panic(err)
		}
		maxElems := httpapi.DefaultMaxBodyBytes / 4
		var buf bytes.Buffer
		calls := []struct {
			name  string
			bytes int
			f     func()
		}{
			{"EncodeRequest", reqWire.Len(), func() { buf.Reset(); _ = httpapi.EncodeRequest(&buf, req) }},
			{"DecodeRequest", reqWire.Len(), func() { _, _ = httpapi.DecodeRequest(bytes.NewReader(reqWire.Bytes()), maxElems) }},
			{"EncodeResponse", respWire.Len(), func() { buf.Reset(); _ = httpapi.EncodeResponse(&buf, resp) }},
			{"DecodeResponse", respWire.Len(), func() { _, _ = httpapi.DecodeResponse(bytes.NewReader(respWire.Bytes()), maxElems) }},
		}
		for _, c := range calls {
			row := codecRow{Call: c.name, Images: images, Bytes: c.bytes}
			row.US, row.AllocKB = perCall(c.f)
			fmt.Printf("  %-15s images=%d wire=%6d B  %8.2f µs/call  %7.2f KB allocated/call\n", row.Call, images, row.Bytes, row.US, row.AllocKB)
			rows = append(rows, row)
		}
	}
	return rows
}

// perCall times f and measures its allocation volume over many calls.
func perCall(f func()) (us, allocKB float64) {
	const calls = 2000
	f()
	p := measure(func() []*collector {
		for i := 0; i < calls; i++ {
			f()
		}
		return nil
	})
	return p.WallS * 1e6 / calls, p.AllocKB / calls
}

// tunerRows is the second BENCH_7 anomaly: time to a ready AutoAlgo
// server with an empty (cold) and a populated (warm) OpenTunerCache
// directory, one fresh process per sample because the tuner's memo is
// process-wide.
type tunerRows struct {
	ColdMS     spread `json:"cold_ready_ms"`
	WarmMS     spread `json:"warm_ready_ms"`
	ColdTimed  uint64 `json:"cold_timed"`
	WarmTimed  uint64 `json:"warm_timed"`
	WarmDiskOK uint64 `json:"warm_disk_hits"`
}

// tunerSample is what one "tuner" child prints.
type tunerSample struct {
	ReadyMS  float64 `json:"ready_ms"`
	Timed    uint64  `json:"timed"`
	DiskHits uint64  `json:"disk_hits"`
}

// tunerChild boots the configuration scripts/bench_smoke.sh times —
// mini-vgg, AutoAlgo, 1 replica, MaxBatch 4 — against the cache in dir,
// and reports how long the server took to come up.
func tunerChild(dir string) error {
	cache, err := dlis.OpenTunerCache(dir)
	if err != nil {
		return err
	}
	dlis.SetTunerCache(cache)
	cfg := plain("mini-vgg", core.OMP, 1)
	cfg.AutoAlgo = true
	start := time.Now()
	srv, err := serve.New(serve.Config{Stacks: []serve.StackSpec{{Name: poolName(0), Stack: cfg}}, Replicas: 1, MaxBatch: 4})
	if err != nil {
		return err
	}
	// The worker compiles its MaxBatch plan (and tunes) asynchronously;
	// the server is ready when a full batch has been answered.
	imgs := make([]*tensor.Tensor, 4)
	for i := range imgs {
		imgs[i] = tensor.New(3, 32, 32)
	}
	rf, err := srv.Do(context.Background(), serve.Request{Target: poolName(0), Images: imgs})
	if err == nil {
		_, err = rf.Wait(context.Background())
	}
	ready := time.Since(start)
	srv.Close()
	if err != nil {
		return err
	}
	if _, err := cache.Save(); err != nil {
		return err
	}
	timed, _, disk := dlis.TunerCounters()
	return json.NewEncoder(os.Stdout).Encode(tunerSample{ReadyMS: float64(ready) / 1e6, Timed: timed, DiskHits: disk})
}

func spawnTuner(dir string) (*tunerSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "child", "--mode", "tuner", "--tunercache", dir)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("tuner child: %w", err)
	}
	var s tunerSample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("tuner child printed %q: %w", out.String(), err)
	}
	return &s, nil
}

func tunerColdVsWarm(root string, reps int) (*tunerRows, error) {
	fmt.Println("\n== blas tuner cache: cold vs warm start, mini-vgg AutoAlgo (the BENCH_7 tunerColdStartMs/tunerWarmStartMs anomaly) ==")
	dir := filepath.Join(root, "bench", "out", "tunercache")
	rows := &tunerRows{}
	var cold, warm []float64
	for r := 0; r < reps; r++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		c, err := spawnTuner(dir)
		if err != nil {
			return nil, err
		}
		w, err := spawnTuner(dir)
		if err != nil {
			return nil, err
		}
		cold, warm = append(cold, c.ReadyMS), append(warm, w.ReadyMS)
		rows.ColdTimed, rows.WarmTimed, rows.WarmDiskOK = c.Timed, w.Timed, w.DiskHits
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	rows.ColdMS, rows.WarmMS = summarise(cold), summarise(warm)
	fmt.Printf("  cold: ready in %.2f ms (IQR %.2f, n=%d), %d geometries timed\n", rows.ColdMS.Median, rows.ColdMS.IQR(), reps, rows.ColdTimed)
	fmt.Printf("  warm: ready in %.2f ms (IQR %.2f, n=%d), %d timed, %d served from disk → warm/cold = %.3f\n",
		rows.WarmMS.Median, rows.WarmMS.IQR(), reps, rows.WarmTimed, rows.WarmDiskOK, rows.WarmMS.Median/rows.ColdMS.Median)
	return rows, nil
}
