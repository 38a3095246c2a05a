package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// recorded is one (workload, metric) cell of a result file: the spread
// of the metric over the file's repeated runs.
type recorded struct {
	Unit string `json:"unit"`
	spread
}

// resultFile is what `run` writes and `compare` reads: the successor of
// the awk-assembled BENCH_7.json, one per PR (BENCH_<pr>.json).
type resultFile struct {
	Host      hostFacts                      `json:"host"`
	Seed      uint64                         `json:"seed"`
	Seconds   float64                        `json:"seconds"`
	Repeats   int                            `json:"repeats"`
	Workloads map[string]map[string]recorded `json:"workloads"`
	Attempted int                            `json:"attempted"`
	Failed    int                            `json:"failed"`
}

// runAll is the `run` command: every workload (or one), tracing off,
// repeated, printed and written to a result file.
func runAll(root string, args []string) error {
	var o options
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	o.register(fs)
	fs.IntVar(&o.repeats, "repeats", 1, "full runs per workload; ≥ 5 records a spread `compare` can judge against")
	fs.StringVar(&o.out, "out", filepath.Join(root, "bench", "out", "BENCH.json"), "result file to write")
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
	file := resultFile{Host: readHostFacts(root), Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats,
		Workloads: make(map[string]map[string]recorded)}
	fmt.Println("host:", file.Host)
	units := make(map[string]string)
	for _, d := range resultMetrics() {
		units[d.Name] = d.Unit
	}
	for i := range ws {
		w := &ws[i]
		samples := make(map[string][]float64)
		for rep := 0; rep < o.repeats; rep++ {
			m, err := measureWorkload(w, o)
			if err != nil {
				return err
			}
			m.print(os.Stdout)
			vals := m.endToEnd()
			if _, err := report("end_to_end metric", endToEnd, vals); err != nil {
				return err
			}
			if v := m.Phase.Latency.P95; v != nil {
				vals[p95.Name] = *v
			}
			for name, v := range vals {
				samples[name] = append(samples[name], v)
			}
			file.Attempted += m.Phase.Attempted
			file.Failed += m.Phase.Failed
		}
		cells := make(map[string]recorded, len(samples))
		for name, vs := range samples {
			cells[name] = recorded{Unit: units[name], spread: summarise(vs)}
		}
		file.Workloads[w.Name] = cells
	}
	printResults(os.Stdout, &file)
	if err := writeJSON(o.out, file); err != nil {
		return err
	}
	fmt.Println("wrote", o.out)
	if file.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed the output oracle or errored", file.Failed, file.Attempted)
	}
	return nil
}

// resultMetrics lists the metric names a result file may carry, gated
// ones first.
func resultMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), p95)
}

func printResults(out io.Writer, f *resultFile) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tunit\tIQR/median\tn\t\n")
	for _, w := range workloadNames() {
		for _, d := range resultMetrics() {
			c, ok := f.Workloads[w][d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\t%.2f%%\t%d\t\n", w, d.Name, c.Median, c.Unit, 100*c.Rel(), c.N)
		}
	}
	tw.Flush()
}

// verdict is compare's judgement of one (workload, metric) cell.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares one metric's new median with its base. The change is
// unresolved when either file's recorded run-to-run spread (IQR over
// median) exceeds the bound — the noise is then wider than the band the
// verdict would be read against; otherwise it is better or worse when
// the median moved by more than the bound in that direction, and same
// when it stayed inside it.
func judge(d metricDef, base, now recorded) verdict {
	if math.Max(base.Rel(), now.Rel()) > d.Bound {
		return unresolved
	}
	change := (now.Median - base.Median) / math.Abs(base.Median)
	if d.Better == "lower" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return better
	case change < -d.Bound:
		return worse
	default:
		return same
	}
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads recorded (is this a `bench run` result file?)", path)
	}
	return &f, nil
}

// compareMain is the `compare` command: one row per (workload, metric)
// with base, new, the ratio and its base, and a verdict. It exits
// non-zero when any cell is worse.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare OLD.json NEW.json")
	}
	base, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	now, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	worseCells, err := compareFiles(os.Stdout, base, now)
	if err != nil {
		return err
	}
	if worseCells > 0 {
		return fmt.Errorf("%d (workload, metric) cells are worse than the base by more than their bound", worseCells)
	}
	return nil
}

func compareFiles(out io.Writer, base, now *resultFile) (worseCells int, err error) {
	if base.Host != now.Host {
		bh, nh := base.Host, now.Host
		bh.Commit, nh.Commit = "", ""
		if bh != nh {
			fmt.Fprintf(out, "WARNING: the two files were measured on different hosts; the verdicts below compare hosts, not commits\n  base: %s\n  new:  %s\n", base.Host, now.Host)
		}
	}
	if base.Seconds != now.Seconds {
		return 0, fmt.Errorf("run lengths differ (%v s vs %v s): not comparable", base.Seconds, now.Seconds)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tbound\tspread base\tspread new\tverdict\t\n")
	for _, w := range workloadNames() {
		for _, d := range resultMetrics() {
			b, okB := base.Workloads[w][d.Name]
			n, okN := now.Workloads[w][d.Name]
			if !okB || !okN {
				continue // a diagnostic this workload cannot support, or a workload not run
			}
			v := judge(d, b, n)
			if v == worse {
				worseCells++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.4f of %.4f\t±%.0f%%\t%.2f%% (n=%d)\t%.2f%% (n=%d)\t%s\t\n",
				w, d.Name, b.Median, n.Median, d.Unit, n.Median/b.Median, b.Median, 100*d.Bound, 100*b.Rel(), b.N, 100*n.Rel(), n.N, v)
		}
	}
	return worseCells, tw.Flush()
}
