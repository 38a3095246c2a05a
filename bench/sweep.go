package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"
)

// The sweep is a diagnostic, not a gated metric: a staircase of offered
// rates over serve.dlw2.open's pool and session, printing latency
// against offered rate and locating the knee — the highest step the
// server sustains. The benchmark's fixed rate sits at 100 %.

// sweepSteps are the offered rates as shares of dlw2OpenRate. The steps
// above 120 % exist so that the knee is actually crossed on the
// reference host rather than reported as "not reached".
var sweepSteps = []float64{0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0, 2.4, 2.8}

const (
	// A step lasts sweepStepSeconds, or longer at low rates: long enough
	// to offer sweepStepRequests, so that every step supports a p95.
	sweepStepSeconds  = 8
	sweepStepRequests = 250
	// sweepLatencyLimitMS is the p95 limit a step must meet to count as
	// sustained: about ten unloaded batch times of the pool.
	sweepLatencyLimitMS = 100.0
)

// sustained reports whether a step met the latency limit with no
// failure and no backlog building up: a backlog at the end of the
// schedule no larger than the two batches the pool can have in hand.
func sustained(p *phase, maxBatch int) bool {
	return p.Failed == 0 && p.Latency.P95 != nil && *p.Latency.P95 <= sweepLatencyLimitMS && p.Backlog <= 2*maxBatch
}

func sweepMain(root string, args []string) error {
	var o options
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName("serve.dlw2.open")
	if err != nil {
		return err
	}
	if o.smoke {
		w = w.shrink()
	}
	fmt.Println("host:", readHostFacts(root))
	ctx := context.Background()
	r, err := makeReady(ctx, w, o.seed, time.Now())
	if err != nil {
		return err
	}
	defer r.env.close()
	stepLength := func(rate float64) time.Duration {
		if o.smoke {
			return time.Second
		}
		return max(sweepStepSeconds*time.Second, time.Duration(sweepStepRequests/rate*float64(time.Second)))
	}
	type step struct {
		share, rate, utilisation float64
		p                        *phase
	}
	var steps []step
	for i, share := range sweepSteps {
		before := r.env.counters()
		p, err := runOpen(ctx, r.env, r.in, share*w.rate, stepLength(share*w.rate), o.seed+uint64(i), nil)
		if err != nil {
			return err
		}
		steps = append(steps, step{share, share * w.rate, r.env.counters().since(before, p.WallS).Utilisation, p})
	}
	r.env.close()
	orc, err := r.oracle()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "offered req/s\tshare\tgoodput req/s\tp50 ms\tp95 ms\tbacklog at end\tlateness p95 ms\tfailed\tutilisation\tsustained\t\n")
	knee := 0.0
	crossed := false
	for _, st := range steps {
		st.p.judge(orc)
		ok := sustained(st.p, w.maxBatch)
		if ok && !crossed {
			knee = st.rate
		}
		crossed = crossed || !ok
		p95, late := "n/a", "n/a"
		if v := st.p.Latency.P95; v != nil {
			p95 = fmt.Sprintf("%.3f", *v)
		}
		if v := st.p.Lateness.P95; v != nil {
			late = fmt.Sprintf("%.4f", *v)
		}
		fmt.Fprintf(tw, "%.1f\t%.0f%%\t%.1f\t%.3f\t%s\t%d\t%s\t%d\t%.1f%%\t%v\t\n",
			st.rate, 100*st.share, st.p.OpsPerS(), st.p.Latency.P50, p95, st.p.Backlog, late, st.p.Failed, 100*st.utilisation, ok)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	switch {
	case knee == 0:
		fmt.Printf("knee: below the first step (%.1f req/s is not sustained)\n", sweepSteps[0]*w.rate)
	case !crossed:
		fmt.Printf("knee: not reached — %.1f req/s is still sustained (p95 ≤ %.0f ms, no growing backlog)\n", knee, sweepLatencyLimitMS)
	default:
		fmt.Printf("knee: %.1f req/s is the highest offered rate sustained (p95 ≤ %.0f ms, no failure, no growing backlog); the benchmark's fixed rate is %.1f req/s\n", knee, sweepLatencyLimitMS, w.rate)
	}
	return nil
}
