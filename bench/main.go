// Command bench is this repository's benchmark: six named workloads from
// kernel to cluster, five gated end-to-end metrics, and a layer-ladder
// trace. BENCHMARK.json at the repository root declares the names; see
// README.md for what each measures and why.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's contract)
//	bash bench/run.sh run     [--seed N] [--seconds S] [--repeats R] [--workload W] [--out FILE]
//	bash bench/run.sh trace   [--seed N] [--seconds S] [--workload W]
//	bash bench/run.sh compare OLD.json NEW.json
//	bash bench/run.sh sweep   [--seed N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options are the flags shared by every mode that runs workloads.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	repeats  int
	out      string
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload name (default: all six)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for images and arrival schedules")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink models and set-up repeats: checks names and plumbing, measures nothing")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: bench (run|trace|compare|sweep) … or --workload W --seed N --seconds S --trace 0|1")
	}
	if strings.HasPrefix(args[0], "-") {
		return driverMode(root, args)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "child":
		return childMain(rest)
	case "run":
		return runAll(root, rest)
	case "trace":
		return traceAll(root, rest)
	case "compare":
		return compareMain(rest)
	case "sweep":
		return sweepMain(root, rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// metricValue is one reported number in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of standard output in driver mode.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report assembles metrics under their declared units, refusing any
// name the manifest does not declare (and any declared name left out).
func report(kind string, defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := validateNames(kind, names, metricNames(defs)); err != nil {
		return nil, err
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out, nil
}

// driverMode runs one workload once and prints the driver's JSON line.
func driverMode(root string, args []string) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := loadManifest(root); err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	host := readHostFacts(root)
	fmt.Println("host:", host)
	var res driverResult
	if o.trace == 0 {
		m, err := measureWorkload(w, o)
		if err != nil {
			return err
		}
		m.print(os.Stdout)
		if res.Metrics, err = report("end_to_end metric", endToEnd, m.endToEnd()); err != nil {
			return err
		}
		res.Attempted, res.Failed = m.Phase.Attempted, m.Phase.Failed
	} else {
		t, err := spawnChild("trace", w, o)
		if err != nil {
			return err
		}
		t.Trace.print(os.Stdout)
		path := filepath.Join(root, "bench", "out", "trace."+w.Name+".json")
		if err := writeJSON(path, traceFile{Host: host, Workload: w.Name, Seed: o.seed, Layers: t.Trace.Layers, Spans: t.Trace.Spans}); err != nil {
			return err
		}
		fmt.Println("spans written to", path)
		if res.Metrics, err = report("per_layer metric", perLayer, t.Trace.Layers); err != nil {
			return err
		}
		res.Attempted, res.Failed = t.Trace.Attempted, t.Trace.Failed
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed the output oracle or errored", w.Name, res.Failed, res.Attempted)
	}
	return nil
}
