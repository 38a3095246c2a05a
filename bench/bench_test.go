package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, // 9 samples beyond
		{200, 0.95, true},  // exactly 10
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.5, true}, // the median of 20 has 10 beyond
		{19, 0.5, false},
	} {
		if _, ok := tailQuantile(ramp(c.n), c.q); ok != c.want {
			t.Errorf("tailQuantile(n=%d, q=%v) supported = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
	s := summariseLatencies(make([]time.Duration, 250))
	if s.P95 == nil || s.P99 != nil {
		t.Errorf("250 samples: p95 present = %v (want true), p99 present = %v (want false)", s.P95 != nil, s.P99 != nil)
	}
	if s := summariseLatencies(make([]time.Duration, 30)); s.P95 != nil {
		t.Error("30 samples: p95 must be absent, not zero-filled")
	}
}

func TestPoissonScheduleFollowsSeed(t *testing.T) {
	const n, d = 500, 10 * time.Second
	a, b, c := poissonSchedule(7, n, d), poissonSchedule(7, n, d), poissonSchedule(8, n, d)
	if len(a) != n {
		t.Fatalf("schedule has %d arrivals, want %d", len(a), n)
	}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverge at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			differs = true
		}
		if a[i] < 0 || a[i] >= d {
			t.Fatalf("arrival %d at %v is outside [0, %v)", i, a[i], d)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	cell := func(median, iqr float64) recorded {
		return recorded{spread: spread{N: 5, Median: median, Q1: median - iqr/2, Q3: median + iqr/2}}
	}
	lower := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name      string
		def       metricDef
		base, now recorded
		want      verdict
	}{
		{"lower: inside the bound", lower, cell(100, 2), cell(108, 2), same},
		{"lower: slower by more than the bound", lower, cell(100, 2), cell(112, 2), worse},
		{"lower: faster by more than the bound", lower, cell(100, 2), cell(85, 2), better},
		{"higher: inside the bound", higher, cell(100, 2), cell(93, 2), same},
		{"higher: less by more than the bound", higher, cell(100, 2), cell(88, 2), worse},
		{"higher: more by more than the bound", higher, cell(100, 2), cell(115, 2), better},
		{"base spread wider than the bound", lower, cell(100, 15), cell(150, 2), unresolved},
		{"new spread wider than the bound", higher, cell(100, 2), cell(50, 8), unresolved},
		{"single runs carry no spread", lower, recorded{spread: spread{N: 1, Median: 100, Q1: 100, Q3: 100}}, recorded{spread: spread{N: 1, Median: 120, Q1: 120, Q3: 120}}, worse},
	} {
		if got := judge(c.def, c.base, c.now); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCountsWorseCells(t *testing.T) {
	file := func(p50 float64) *resultFile {
		return &resultFile{Seconds: 10, Workloads: map[string]map[string]recorded{
			"serve.local.closed": {"latency_ms_p50": {Unit: "ms", spread: spread{N: 5, Median: p50, Q1: p50, Q3: p50}}},
		}}
	}
	var out bytes.Buffer
	n, err := compareFiles(&out, file(20), file(30))
	if err != nil || n != 1 {
		t.Fatalf("compareFiles = %d worse cells, err %v; want 1, nil\n%s", n, err, out.String())
	}
	for _, want := range []string{"serve.local.closed", "latency_ms_p50", "1.5000 of 20.0000", "worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison table lacks %q:\n%s", want, out.String())
		}
	}
	short := file(20)
	short.Seconds = 5
	if _, err := compareFiles(&out, short, file(20)); err == nil {
		t.Error("files of different run lengths compared without error")
	}
}

func TestValidateNames(t *testing.T) {
	declared := []string{"setup_s", "ops_per_s"}
	for _, c := range []struct {
		name string
		got  []string
		want string // exact error, "" for none
	}{
		{"valid", []string{"ops_per_s", "setup_s"}, ""},
		{"duplicate", []string{"setup_s", "setup_s", "ops_per_s"}, "duplicate metric name: setup_s"},
		{"unknown", []string{"setup_s", "ops_per_s", "qps"}, "unknown metric name: qps"},
		{"missing", []string{"setup_s"}, "missing metric name: ops_per_s"},
	} {
		err := validateNames("metric", c.got, declared)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the harness's own
// tables and to the shape its readers require.
func TestManifestMatchesTables(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	byName := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		byName[d.Name] = d
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if d != byName[d.Name] {
			t.Errorf("BENCHMARK.json declares %+v, the harness %+v", d, byName[d.Name])
		}
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is not a well-formed name and unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	whys := make(map[string]string)
	for _, w := range workloads() {
		whys[w.Name] = w.Why
	}
	for _, w := range m.Workloads {
		if w.Why != whys[w.Name] {
			t.Errorf("workload %q: BENCHMARK.json and the harness give different reasons", w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or a why that is not one line of ≤ 200 characters", w.Name)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
}

// TestOracleTripsOnCorruptedOutput feeds the oracle a genuine output,
// then the same output corrupted three ways.
func TestOracleTripsOnCorruptedOutput(t *testing.T) {
	cfg := plain("mini-vgg", core.OMP, 1)
	inst, err := core.Instantiate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(3, 32, 32)
	img.FillNormal(tensor.NewRNG(5), 0, 1)
	orc := newOracle([]core.Config{cfg}, []*nn.Network{inst.Net}, []*tensor.Tensor{img})
	good := inst.Run(img.Reshape(1, 3, 32, 32)).Output.Data()

	log := newOutLog(4, 1)
	log.add(0, 0, 0, good)
	if wrong, err := orc.verify(log); wrong != 0 {
		t.Fatalf("a genuine output failed the oracle: %v", err)
	}

	nudged := append([]float32(nil), good...)
	nudged[0] += 0.01 // ten tolerances
	flipped := append([]float32(nil), good...)
	top := argmax(flipped)
	flipped[(top+1)%len(flipped)] = flipped[top] + 1
	nan := append([]float32(nil), good...)
	nan[1] = float32(math.NaN())
	for i, bad := range [][]float32{nudged, flipped, nan, good[:len(good)-1]} {
		log.add(i+1, 0, 0, bad)
	}
	wrong, first := orc.verify(log)
	if wrong != 4 {
		t.Fatalf("oracle failed %d of 4 corrupted outputs (first verdict: %v)", wrong, first)
	}
	if first == nil || !strings.Contains(first.Error(), "op 1") {
		t.Fatalf("first verdict %v does not name the first corrupted op", first)
	}

	p := &phase{Attempted: 5, Correct: 5, logs: []*outLog{log}}
	p.judge(orc)
	if p.Correct != 1 || p.Failed != 4 || p.FirstError == "" {
		t.Fatalf("judge left correct=%d failed=%d first=%q, want 1, 4 and a message", p.Correct, p.Failed, p.FirstError)
	}
}

// TestSmokeEmitsDeclaredNames runs every workload in its --smoke form,
// in this process, and checks that what it would report is exactly what
// BENCHMARK.json declares, with no failed op.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 3, seconds: 0.3, smoke: true}
	for _, def := range m.Workloads {
		w, err := workloadByName(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.shrink()
		c, err := runChild("measure", w, o, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if c.Phase.Failed != 0 || c.Phase.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d (%s)", w.Name, c.Phase.Attempted, c.Phase.Failed, c.Phase.FirstError)
		}
		run := &measurement{Workload: w.Name, SetupS: c.SetupS, PeakRSSMB: c.PeakRSSMB, Phase: c.Phase}
		got, err := report("end_to_end metric", m.EndToEnd, run.endToEnd())
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for name, v := range got {
			if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, name, v.Value)
			}
		}
	}
	// The traced run, on the two ends of the stack.
	o.seconds = 1
	for _, name := range []string{"engine.compressed.b1", "cluster.mixed.closed"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := runChild("trace", w.shrink(), o, time.Now())
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		if _, err := report("per_layer metric", m.PerLayer, c.Trace.Layers); err != nil {
			t.Errorf("%s: traced: %v", name, err)
		}
		if c.Trace.Failed != 0 || len(c.Trace.Spans) == 0 || len(c.Trace.Ladder) != 6 {
			t.Errorf("%s: traced: failed=%d spans=%d rungs=%d", name, c.Trace.Failed, len(c.Trace.Spans), len(c.Trace.Ladder))
		}
	}
	// Undeclared names are refused, not passed through.
	if _, err := report("end_to_end metric", m.EndToEnd, map[string]float64{"setup_s": 1, "qps": 2}); err == nil {
		t.Error("report accepted an undeclared metric name")
	}
}
