package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef declares one metric the benchmark emits. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is the BENCHMARK.json view of a workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest mirrors BENCHMARK.json, the contract between this harness
// and whoever runs it: the harness refuses to report under names the
// manifest does not declare, and the unit test pins the manifest to the
// tables below.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// End-to-end metrics, measured with tracing off. The definitions live
// in README.md; every one is emitted by every workload and is never 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "alloc_kb_per_op", Unit: "KB/op", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// p95 is the one figure a `run` file carries, and `compare` judges,
// beyond the gated five. It cannot live in BENCHMARK.json, whose metrics
// must exist on every workload: a p95 needs ≥ 200 ops, which the
// engine.*.b1 workloads do not complete in a run.
var p95 = metricDef{Name: "latency_ms_p95", Unit: "ms", Better: "lower", Bound: 0.20}

// Per-layer metrics, from the separate traced run (--trace 1). Layer
// names are module names under internal/. Each is one rung of the layer
// ladder or one kernel measured on the workload's own model, so every
// workload emits all of them.
var perLayer = []metricDef{
	{Name: "blas.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.qgemm_gops", Unit: "GOP/s", Better: "higher"},
	{Name: "sparse.conv_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "parallel.gemm_speedup", Unit: "x", Better: "higher"},
	{Name: "nn.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.eager_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.instantiate_s", Unit: "s", Better: "lower"},
	{Name: "serve.local_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.muxwire.dlw2_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.httpapi.http_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cluster.member_ms", Unit: "ms", Better: "lower"},
}

// metricNames lists the names of a metric table in order.
func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// validateNames is the name gate on everything the harness prints: got
// must name each declared metric or workload exactly once. A duplicate,
// an undeclared name and a missing one are each an error, so a renamed
// or dropped metric fails the run instead of silently vanishing from a
// comparison.
func validateNames(kind string, got, declared []string) error {
	want := make(map[string]bool, len(declared))
	for _, n := range declared {
		want[n] = true
	}
	seen := make(map[string]bool, len(got))
	for _, n := range got {
		if seen[n] {
			return fmt.Errorf("duplicate %s name: %s", kind, n)
		}
		seen[n] = true
		if !want[n] {
			return fmt.Errorf("unknown %s name: %s", kind, n)
		}
	}
	var missing []string
	for _, n := range declared {
		if !seen[n] {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("missing %s name: %s", kind, missing[0])
	}
	return nil
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json — the checkout root — so the harness behaves the same
// launched from the root (the driver) or from bench/ (`go run -C bench`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

// loadManifest reads and checks BENCHMARK.json against the harness's
// own tables: the two must name the same workloads and metrics.
func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if err := validateNames("workload", names, workloadNames()); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := validateNames("end_to_end metric", metricNames(m.EndToEnd), metricNames(endToEnd)); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := validateNames("per_layer metric", metricNames(m.PerLayer), metricNames(perLayer)); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
