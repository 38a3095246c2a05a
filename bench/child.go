package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// Every workload runs in a child process of its own (this binary
// re-executed with the "child" command), so one workload's heap, GC
// state and resident set never leak into the next one's figures, and
// set-up can be timed from process start, the way an operator pays it.

// childResult is the one JSON line a child prints on standard output.
type childResult struct {
	Workload string `json:"workload"`
	// SetupS runs from the parent's stamp just before exec to "ready":
	// stacks instantiated, plans compiled, listeners up, warm-up ops done.
	SetupS       float64      `json:"setup_s"`
	InstantiateS float64      `json:"instantiate_s"`
	Phase        *phase       `json:"phase,omitempty"`
	PeakRSSMB    float64      `json:"peak_rss_mb,omitempty"`
	Serve        *serveDelta  `json:"serve,omitempty"`
	Trace        *traceResult `json:"trace,omitempty"`
}

// serveDelta is what the serving layer's own counters (Server.Snapshot)
// saw during a measured phase, summed over the workload's servers.
type serveDelta struct {
	Batches       uint64  `json:"batches"`
	Completed     uint64  `json:"completed"`
	Failed        uint64  `json:"failed"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	MeanBatchMS   float64 `json:"mean_batch_ms"`
	// Utilisation is worker busy time over replicas × wall time.
	Utilisation float64 `json:"utilisation"`
	QueueDepth  int     `json:"queue_depth_at_end"`
	Shed        uint64  `json:"shed"`
}

// serveCounters sums the cumulative counters of every pool of every
// server in the environment.
type serveCounters struct {
	batches, completed, failed, shed uint64
	busy                             time.Duration
	queue, replicas                  int
}

func (e *env) counters() serveCounters {
	var c serveCounters
	for _, srv := range e.servers {
		snap := srv.Snapshot()
		for _, st := range snap.Pools {
			c.batches += st.Batches
			c.completed += st.Completed
			c.failed += st.Failed
			c.busy += time.Duration(st.Batches) * st.MeanBatchLatency
			c.queue += st.QueueDepth
			c.replicas += st.Replicas
		}
		for _, u := range snap.Tenants {
			c.shed += u.Shed
		}
	}
	return c
}

func (after serveCounters) since(before serveCounters, wallS float64) *serveDelta {
	d := &serveDelta{
		Batches:    after.batches - before.batches,
		Completed:  after.completed - before.completed,
		Failed:     after.failed - before.failed,
		Shed:       after.shed - before.shed,
		QueueDepth: after.queue,
	}
	if d.Batches > 0 {
		busy := after.busy - before.busy
		d.MeanOccupancy = float64(d.Completed+d.Failed) / float64(d.Batches)
		d.MeanBatchMS = busy.Seconds() * 1e3 / float64(d.Batches)
		d.Utilisation = busy.Seconds() / (wallS * float64(after.replicas))
	}
	return d
}

// smokeModel is the model --smoke runs in place of model: resnet18, the
// one full-size model the benchmark uses, becomes its mini variant.
func smokeModel(model string) string {
	if model == "resnet18" {
		return "mini-resnet"
	}
	return model
}

// shrink returns the --smoke form of a workload: same topology, names
// and code paths, mini models and one set-up, so the plumbing can be
// checked in seconds. Its numbers mean nothing.
func (w workload) shrink() *workload {
	stacks := make([]core.Config, len(w.stacks))
	for i, s := range w.stacks {
		s.Model = smokeModel(s.Model)
		stacks[i] = s
	}
	w.stacks, w.setupRepeats = stacks, 1
	return &w
}

// ready is a workload set up and warmed.
type ready struct {
	env    *env
	in     *inputs
	setupS float64
}

// makeReady performs set-up, timed from start.
func makeReady(ctx context.Context, w *workload, seed uint64, start time.Time) (*ready, error) {
	e, err := setUp(w)
	if err != nil {
		return nil, err
	}
	shape, err := e.inputShape()
	if err != nil {
		e.close()
		return nil, err
	}
	in := makeInputs(w, shape, seed)
	if err := e.warmUp(ctx, in); err != nil {
		e.close()
		return nil, err
	}
	return &ready{env: e, in: in, setupS: time.Since(start).Seconds()}, nil
}

// oracle computes the references for the workload's images. They run
// over exactly the weights the ops execute: the engine's own networks,
// or — a pool's replicas being private — a fresh instance of the same
// deterministic configuration. Call it only after every timed phase and
// the peak-RSS reading (see outLog).
func (r *ready) oracle() (*oracle, error) {
	w := r.env.w
	nets := make([]*nn.Network, len(w.stacks))
	for s, cfg := range w.stacks {
		if len(r.env.insts) > 0 {
			nets[s] = r.env.insts[s].Net
			continue
		}
		inst, err := core.Instantiate(cfg)
		if err != nil {
			return nil, err
		}
		nets[s] = inst.Net
	}
	return newOracle(w.stacks, nets, r.in.images), nil
}

// childMain is the "child" command: one mode of one workload.
func childMain(args []string) error {
	var o options
	var mode string
	var startNS int64
	var tunerDir string
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	o.register(fs)
	fs.StringVar(&mode, "mode", "measure", "setup | measure | trace | tuner")
	fs.StringVar(&tunerDir, "tunercache", "", "tuner mode: the cache directory")
	fs.Int64Var(&startNS, "start-ns", 0, "the parent's clock (unix ns) just before it started this process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if mode == "tuner" {
		return tunerChild(tunerDir)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.smoke {
		w = w.shrink()
	}
	start := time.Now()
	if startNS > 0 {
		start = time.Unix(0, startNS)
	}
	res, err := runChild(mode, w, o, start)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runChild does the work of a child in this process; the unit tests
// call it directly.
func runChild(mode string, w *workload, o options, start time.Time) (*childResult, error) {
	ctx := context.Background()
	r, err := makeReady(ctx, w, o.seed, start)
	if err != nil {
		return nil, err
	}
	defer r.env.close()
	res := &childResult{Workload: w.Name, SetupS: r.setupS, InstantiateS: r.env.instantiateS}
	d := time.Duration(o.seconds * float64(time.Second))
	switch mode {
	case "setup":
	case "measure":
		before := r.env.counters()
		if res.Phase, err = runPhase(ctx, r.env, r.in, d, o.seed, nil); err != nil {
			return nil, err
		}
		if len(r.env.servers) > 0 {
			res.Serve = r.env.counters().since(before, res.Phase.WallS)
		}
	case "trace":
		if res.Trace, err = runTrace(ctx, r, o); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown child mode %q", mode)
	}
	r.env.close()
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	// Only now, with the clock and the memory readings taken, are the
	// outputs judged.
	if res.Phase != nil {
		orc, err := r.oracle()
		if err != nil {
			return nil, err
		}
		res.Phase.judge(orc)
	}
	return res, nil
}

// spawnChild runs one mode of one workload in a child process and waits
// for it. The child's standard error passes through; its standard
// output is the result line.
func spawnChild(mode string, w *workload, o options) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"child", "--mode", mode, "--workload", w.Name,
		"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds)}
	if o.smoke {
		args = append(args, "--smoke")
	}
	var out bytes.Buffer
	args = append(args, "--start-ns", fmt.Sprint(time.Now().UnixNano()))
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %s child: %w", w.Name, mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: %s child printed %q: %w", w.Name, mode, strings.TrimSpace(out.String()), err)
	}
	return &res, nil
}

// measurement is one untraced run of one workload: setupRepeats
// set-ups (the last of which goes on to measure) and one measured
// phase.
type measurement struct {
	Workload  string
	Setups    []float64 // every set-up sample, seconds
	SetupS    float64   // their median
	PeakRSSMB float64
	Phase     *phase
	Serve     *serveDelta
}

// measureWorkload runs the workload's children one after another.
func measureWorkload(w *workload, o options) (*measurement, error) {
	if o.smoke {
		w = w.shrink()
	}
	m := &measurement{Workload: w.Name}
	for i := 1; i < w.setupRepeats; i++ {
		c, err := spawnChild("setup", w, o)
		if err != nil {
			return nil, err
		}
		m.Setups = append(m.Setups, c.SetupS)
	}
	c, err := spawnChild("measure", w, o)
	if err != nil {
		return nil, err
	}
	m.Setups = append(m.Setups, c.SetupS)
	m.SetupS = summarise(append([]float64(nil), m.Setups...)).Median
	m.PeakRSSMB, m.Phase, m.Serve = c.PeakRSSMB, c.Phase, c.Serve
	return m, nil
}

// endToEnd returns the gated metrics by name.
func (m *measurement) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         m.SetupS,
		"ops_per_s":       m.Phase.OpsPerS(),
		"latency_ms_p50":  m.Phase.Latency.P50,
		"alloc_kb_per_op": m.Phase.AllocKBPerOp(),
		"peak_rss_mb":     m.PeakRSSMB,
	}
}

// print writes the run for a human: every gated metric by name with its
// unit, then the diagnostics that are not gated.
func (m *measurement) print(w io.Writer) {
	p := m.Phase
	fmt.Fprintf(w, "workload %s\n", m.Workload)
	vals := m.endToEnd()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  %-16s %12.6f ratio   (sent %d, succeeded %d, failed %d)\n", "fail_share", p.FailShare(), p.Attempted, p.Correct, p.Failed)
	if p.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", p.FirstError)
	}
	fmt.Fprintf(w, "  diagnostics: samples=%d wall=%.2fs", p.Latency.Samples, p.WallS)
	if p.Latency.P95 != nil {
		fmt.Fprintf(w, " latency_ms_p95=%.4f", *p.Latency.P95)
	}
	if p.Latency.P99 != nil {
		fmt.Fprintf(w, " latency_ms_p99=%.4f", *p.Latency.P99)
	}
	fmt.Fprintf(w, " latency_ms_max=%.4f setup_samples_s=%.3f\n", p.Latency.Max, m.Setups)
	if l := p.Lateness; l != nil {
		fmt.Fprintf(w, "  generator lateness: p50=%.4fms", l.P50)
		if l.P95 != nil {
			fmt.Fprintf(w, " p95=%.4fms", *l.P95)
		}
		fmt.Fprintf(w, " max=%.4fms\n", l.Max)
	}
	if s := m.Serve; s != nil {
		fmt.Fprintf(w, "  serve: batches=%d occupancy=%.2f batch=%.3fms utilisation=%.1f%% queue_at_end=%d shed=%d\n",
			s.Batches, s.MeanOccupancy, s.MeanBatchMS, 100*s.Utilisation, s.QueueDepth, s.Shed)
	}
}
