// Command dlis-paper regenerates the paper's tables and figures.
//
// Usage:
//
//	dlis-paper                 # run every experiment (fast calibrated mode)
//	dlis-paper -exp fig4       # one experiment
//	dlis-paper -exp fig3a -real  # real mini-model training for Fig. 3
//	dlis-paper -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	dlis "repro"
)

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all); see -list")
	real := flag.Bool("real", false, "use real mini-model training for the Fig. 3 accuracy curves (slow)")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	threads := flag.Int("threads", 1, "host threads for real execution phases")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range dlis.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	opts := dlis.DefaultExperimentOptions()
	opts.Real = *real
	opts.Seed = *seed
	opts.Threads = *threads

	var err error
	if *exp == "" {
		err = dlis.RunAllExperiments(os.Stdout, opts)
	} else {
		err = dlis.RunExperiment(*exp, os.Stdout, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlis-paper:", err)
		os.Exit(1)
	}
}
