package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// tenantMix is one synthetic tenant of the load.tenants mix: the
// identity the load generator stamps on its requests, and the weight
// that skews the offered load. Its fields mirror the fleet file's
// load tenant, so main converts one to the other.
type tenantMix struct {
	Name   string
	Weight int
}

// splitByWeight apportions total across the mix proportionally to
// weight: integer shares first, the remainder round-robin, and a floor
// of one each so every tenant participates. The floor can push the sum
// slightly past total for tiny totals — deliberate: a tenant that
// exists sends load.
func splitByWeight(total int, mix []tenantMix) []int {
	sum := 0
	for _, m := range mix {
		sum += m.Weight
	}
	out := make([]int, len(mix))
	used := 0
	for i, m := range mix {
		out[i] = total * m.Weight / sum
		used += out[i]
	}
	for i := 0; used < total; i = (i + 1) % len(out) {
		out[i]++
		used++
	}
	for i := range out {
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// tenantLoadStats aggregates one tenant's closed-loop outcomes across
// every target of the run.
type tenantLoadStats struct {
	mix      tenantMix
	clients  int // closed-loop clients per target
	offered  int // request budget summed over all targets
	served   atomic.Int64
	quota    atomic.Int64
	retries  atomic.Int64
	latNanos atomic.Int64 // summed end-to-end latency of served requests
}

// reportTenants prints one greppable line per tenant of the mix; the
// CI fairness smoke asserts on these, and the mean latency makes the
// fair-queueing effect measurable per tenant (a starved tenant shows
// up as a mean far above its service time).
func reportTenants(stats []*tenantLoadStats) {
	fmt.Println()
	for _, ts := range stats {
		mean := time.Duration(0)
		if n := ts.served.Load(); n > 0 {
			mean = time.Duration(ts.latNanos.Load() / n)
		}
		fmt.Printf("tenant %s: weight=%d clients=%d offered=%d served=%d quota=%d overload-retries=%d mean-latency=%v\n",
			ts.mix.Name, ts.mix.Weight, ts.clients, ts.offered,
			ts.served.Load(), ts.quota.Load(), ts.retries.Load(),
			mean.Round(time.Microsecond))
	}
}
