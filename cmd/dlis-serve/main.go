// Command dlis-serve boots one process of a serving topology from a
// fleet file (see dlis.ParseFleetConfig and DESIGN.md §10) and, where
// the role generates load, reports a throughput/latency table per
// stack configuration through the transport-agnostic dlis.Client API.
//
// Usage:
//
//	dlis-serve -config fleet.json           # boot the file's process role
//	dlis-serve -config fleet.json -dryrun   # print the resolved topology
//
// The file is the whole configuration: models, endpoints, pool tuning,
// server role, cluster membership and load parameters, with one set of
// defaults (Resolve's). It passes Validate before anything boots, so a
// mistake is a typed error naming its JSON field path; -dryrun prints
// the resolved topology and exits without instantiating anything.
// cmd/dlis-serve/testdata holds a fixture for every role CI drives.
//
// The role follows from the sections present (FleetConfig.Mode):
//
//   - local: models or endpoints and no listen address. Every hosted
//     pool ("<kind>/<technique>") or SLO-routed endpoint is served in
//     process and driven through a LocalClient; pool targets also get
//     a sequential single-image baseline and a speedup column.
//   - server: server.listen (HTTP: /v1/infer, /v1/models, /v1/stats)
//     and/or server.muxListen (DLW2 sessions) serve the hosted stacks
//     until SIGINT/SIGTERM drains every listener.
//   - remote: load.connect drives one remote server; dlw2://host:port
//     is DLW2, http://, https:// or a bare host:port is HTTP. The
//     models call supplies discovery and input geometry.
//   - cluster: cluster.members drives a fleet through one dlis.Cluster
//     client (least-loaded power-of-two-choices placement, failover off
//     a dying member) and adds a per-member health/traffic table.
//
// The load generator runs load.clients closed-loop clients per target
// until load.requests requests per target complete; load.pipeline N
// replaces them with one streaming session per target keeping N
// requests in flight. load.tenants splits clients and budgets across
// named tenants in proportion to weight and stamps each request with
// its tenant; the serving side's tenants section owns the fair-share
// weights and quotas. Overload rejections back off by the server's
// RetryAfter hint and retry; quota rejections are counted, never
// retried.
//
// The per-pool table reports throughput, p50/p99 latency, occupancy
// (mean requests per batch; >1 means batching engaged) and, in local
// mode, the sequential baseline and speedup. Endpoint targets report
// served versus shed per variant instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	dlis "repro"
)

// baselineImages is the sequential-baseline sample per pool in local
// mode: half timed before the load run and half after.
const baselineImages = 8

func main() {
	path := flag.String("config", "", "fleet config file (JSON) describing the whole topology")
	dryrun := flag.Bool("dryrun", false, "validate, print the fully resolved topology and exit without booting anything")
	flag.Parse()
	if *path == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: dlis-serve -config FLEET.json [-dryrun]")
		os.Exit(2)
	}
	rcfg, err := loadConfig(*path)
	if err != nil {
		fatal(err)
	}
	if *dryrun {
		fmt.Print(rcfg.Topology())
		return
	}

	gen := loadGen{seed: rcfg.Server.Seed}
	if l := rcfg.Load; l != nil {
		gen.targets, gen.clients, gen.requests = l.Targets, l.Clients, l.Requests
		gen.pipeline = l.Pipeline
		gen.slo = l.SLO.ServeSLO()
		for _, t := range l.Tenants {
			gen.tenants = append(gen.tenants, tenantMix(t))
		}
	}

	switch rcfg.Mode() {
	case dlis.FleetModeConnect:
		// Remote mode: no server, no baseline — the wire supplies
		// discovery, geometry and the final statistics. DialBackend
		// picks the transport from the connect string alone.
		runRemote(dlis.DialBackend(rcfg.Load.Connect), gen)
		return
	case dlis.FleetModeCluster:
		// Cluster mode: the same load generator, pointed at a fleet of
		// backends through one cluster client.
		runCluster(rcfg, gen)
		return
	}

	// Local / listen mode: lower the config to the serve.Config that
	// hosts it (per-variant pools at their table operating points).
	// Install the persistent tuner cache first so boot-time plan
	// compilation resolves algorithm verdicts through it.
	var tcache *dlis.TunerCache
	if dir := rcfg.Server.TunerCache; dir != "" {
		tcache, err = dlis.OpenTunerCache(dir)
		if err != nil {
			fatal(err)
		}
		dlis.SetTunerCache(tcache)
		fmt.Printf("tuner cache: %s (%d entries loaded)\n", tcache.Path(), tcache.Loaded())
	}
	saveTuner := func() {
		if tcache == nil {
			return
		}
		if wrote, err := tcache.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "dlis-serve: tuner cache save:", err)
		} else if wrote {
			fmt.Printf("tuner cache: saved %d entries to %s\n", tcache.Len(), tcache.Path())
		}
	}

	srvCfg, err := rcfg.ServerConfig()
	if err != nil {
		fatal(err)
	}
	if n := len(srvCfg.Stacks); n > 0 {
		fmt.Printf("dlis-serve: %d pool(s) × %d replicas, batch ≤ %d (window %v)\n",
			n, srvCfg.Replicas, srvCfg.MaxBatch, srvCfg.MaxDelay)
	}
	if n := len(srvCfg.Endpoints); n > 0 {
		vars := 0
		for _, ep := range srvCfg.Endpoints {
			vars += len(ep.Variants)
		}
		fmt.Printf("dlis-serve: %d endpoint(s) × %d variants × %d replicas, batch ≤ %d (window %v), queue cap %d\n",
			n, vars, srvCfg.Replicas, srvCfg.MaxBatch, srvCfg.MaxDelay, srvCfg.QueueCap)
		fmt.Printf("SLO: min accuracy %.1f%%, max latency %v, priority %d\n",
			gen.slo.MinAccuracy, gen.slo.MaxLatency, gen.slo.Priority)
	}

	// Sequential baseline (in-process load-gen mode, pool stacks only):
	// one instance, one image at a time — the only serving shape the
	// repository had before internal/serve. Half the baseline images
	// are timed before the load run and half after, so slow drift in
	// the host's effective speed (shared vCPU) cancels in the reported
	// speedup instead of biasing it either way.
	var probes map[string]*baselineProbe
	if rcfg.Mode() == dlis.FleetModeLocal && len(srvCfg.Stacks) > 0 {
		probes = make(map[string]*baselineProbe, len(srvCfg.Stacks))
		for _, spec := range srvCfg.Stacks {
			name := spec.Key()
			fmt.Printf("measuring sequential baseline for %s (%d of %d images)...\n", name, baselineImages/2, baselineImages)
			probe, err := newBaselineProbe(spec.Stack, rcfg.Server.Seed)
			if err != nil {
				fatal(err)
			}
			probes[name] = probe
			pre := probe.measure(baselineImages / 2)
			fmt.Printf("  %v/image\n", pre.Round(time.Microsecond))
		}
	}

	fmt.Printf("starting server (%d replica instance(s) per pool)...\n", srvCfg.Replicas)
	bootStart := time.Now()
	srv, err := dlis.NewServer(srvCfg)
	if err != nil {
		fatal(err)
	}
	// Machine-parseable boot cost: the bench tooling diffs cold vs warm
	// tuner-cache starts on this line.
	fmt.Printf("server ready in %d ms\n", time.Since(bootStart).Milliseconds())
	if tcache != nil {
		timed, memo, disk := dlis.TunerCounters()
		fmt.Printf("tuner cache: hits=%d memo=%d timed=%d entries=%d\n", disk, memo, timed, tcache.Len())
		saveTuner()
	}
	applyMemLimit(srv, rcfg.Server.MemLimitMB)

	if rcfg.Mode() == dlis.FleetModeListen {
		serveListen(srv, rcfg.Server.Listen, rcfg.Server.MuxListen)
		saveTuner() // anything tuned for batch shapes seen only under load
		return
	}

	client := dlis.NewLocalClient(srv)
	wall, errCount := runLoad(client, gen)
	srv.Close()
	saveTuner()
	fmt.Printf("\nload run complete in %v\n", wall.Round(time.Millisecond))

	var baseline map[string]float64
	if len(probes) > 0 {
		baseline = make(map[string]float64, len(probes))
		for name, probe := range probes {
			fmt.Printf("measuring sequential baseline for %s (remaining %d images)...\n", name, baselineImages/2)
			probe.measure(baselineImages / 2)
			perImage := probe.perImage()
			baseline[name] = 1 / perImage.Seconds()
			fmt.Printf("  %v/image → %.2f req/s overall\n", perImage.Round(time.Microsecond), baseline[name])
		}
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		fatal(err)
	}
	report(st, gen, srvCfg.MaxBatch, baseline, errCount)
}

// loadConfig reads, parses and validates the fleet file at path and
// returns it resolved: the one configuration every process role boots
// from.
func loadConfig(path string) (*dlis.FleetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := dlis.ParseFleetConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg.Resolve(), nil
}

// serveListen exposes the server over HTTP (httpAddr), DLW2 sessions
// (muxAddr), or both, until a termination signal arrives, then drains
// every listener gracefully. At least one address is non-empty — the
// config validator derives listen mode only when one is set.
func serveListen(srv *dlis.Server, httpAddr, muxAddr string) {
	done := make(chan error, 2)
	var hs *http.Server
	if httpAddr != "" {
		hs = &http.Server{Addr: httpAddr, Handler: dlis.NewHTTPHandler(srv, 0)}
		go func() { done <- hs.ListenAndServe() }()
		fmt.Printf("serving HTTP on %s (/v1/infer /v1/models /v1/stats); SIGINT drains\n", httpAddr)
	}
	var ml *dlis.MuxListener
	if muxAddr != "" {
		ml = dlis.NewMuxListener(srv, dlis.MuxListenerConfig{})
		go func() { done <- ml.ListenAndServe(muxAddr) }()
		fmt.Printf("serving DLW2 sessions on %s; SIGINT drains\n", muxAddr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fatal(err) // a listener died before any signal
		}
	case s := <-sig:
		fmt.Printf("\n%v: draining...\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if hs != nil {
		_ = hs.Shutdown(ctx) // stop accepting, finish in-flight exchanges
	}
	if ml != nil {
		_ = ml.Shutdown(ctx) // goaway every session, wait for the acks
	}
	srv.Close() // drain accepted requests
	fmt.Println("drained")
}

// runRemote drives a remote server over any Client transport:
// discovery (with a startup grace period so a just-launched server
// process can finish instantiating), geometry from the models call,
// the shared load loop, and a report built from the remote statistics.
func runRemote(client dlis.Client, gen loadGen) {
	ctx := context.Background()
	var ms []dlis.ModelInfo
	var err error
	for deadline := time.Now().Add(30 * time.Second); ; {
		if ms, err = client.Models(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("remote server unreachable: %w", err))
		}
		time.Sleep(250 * time.Millisecond)
	}
	hosted := make(map[string]dlis.ModelInfo, len(ms))
	var names []string
	for _, m := range ms {
		hosted[m.Name] = m
		names = append(names, m.Name)
	}
	for _, t := range gen.targets {
		if _, ok := hosted[t]; !ok {
			fatal(fmt.Errorf("remote server does not host %q (hosted: %v)", t, names))
		}
	}
	shape := fmt.Sprintf("%d clients", gen.clients)
	if gen.pipeline > 0 {
		shape = fmt.Sprintf("pipeline of %d per session", gen.pipeline)
	}
	fmt.Printf("dlis-serve: remote load generator → %d target(s), %s, %d requests/target\n",
		len(gen.targets), shape, gen.requests)
	wall, errCount := runLoad(client, gen)
	fmt.Printf("\nload run complete in %v\n", wall.Round(time.Millisecond))
	st, err := client.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	report(st, gen, 0, nil, errCount)
}

// runCluster drives a fleet of dlis backends through one cluster
// client: every address becomes a member, discovery waits until the
// fleet advertises every target (backends launched alongside the load
// generator get a grace period), the shared load loop runs against the
// cluster, and the report is the merged fleet statistics plus a
// per-member health/traffic table. A backend dying mid-run is the
// cluster's problem, not the load generator's: its in-flight requests
// fail over and its share of the traffic moves to the survivors.
func runCluster(rcfg *dlis.FleetConfig, gen loadGen) {
	var members []dlis.ClusterMember
	for _, a := range rcfg.Cluster.Members {
		// DialBackend picks each member's transport from its address:
		// dlw2:// is DLW2, anything else (bare included) is HTTP.
		members = append(members, dlis.ClusterMember{Name: a, Client: dlis.DialBackend(a)})
	}
	cl, err := dlis.NewCluster(members, dlis.WithProbeInterval(time.Duration(rcfg.Cluster.ProbeInterval)))
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	for deadline := time.Now().Add(30 * time.Second); ; {
		ms, err := cl.Models(ctx)
		hosted := make(map[string]bool, len(ms))
		for _, m := range ms {
			hosted[m.Name] = true
		}
		missing := ""
		for _, t := range gen.targets {
			if !hosted[t] {
				missing = t
				break
			}
		}
		if err == nil && missing == "" {
			break
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("fleet does not host %q", missing)
			}
			fatal(fmt.Errorf("cluster discovery: %w", err))
		}
		time.Sleep(250 * time.Millisecond)
	}
	fmt.Printf("dlis-serve: cluster load generator → %d member(s), %d target(s), %d clients, %d requests/target\n",
		len(members), len(gen.targets), gen.clients, gen.requests)
	wall, errCount := runLoad(cl, gen)
	fmt.Printf("\nload run complete in %v\n", wall.Round(time.Millisecond))
	st, err := cl.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	report(st, gen, 0, nil, errCount)
	reportMembers(cl.Snapshot())
	if err := cl.Close(); err != nil {
		fatal(err)
	}
}

// reportMembers renders the per-member cluster table: health, the
// traffic the placement put on each member, and the failure accounting
// (shed = typed overload refusals, failed = transport failures that
// failed over, ejections = healthy→ejected transitions).
func reportMembers(snap dlis.ClusterStats) {
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "member\thealthy\tserved\tshed\tfailed\tejections\ttargets")
	for _, m := range snap.Members {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%d\t%d\t%s\n",
			m.Member, m.Healthy, m.Served, m.Shed, m.Failed, m.Ejections, strings.Join(m.Targets, ","))
	}
	tw.Flush()
	fmt.Printf("cluster totals: served=%d shed=%d overload-retries=%d failovers=%d\n",
		snap.Served, snap.Shed, snap.OverloadRetries, snap.Failovers)
}

// loadGen bundles the closed-loop load parameters shared by every
// transport.
type loadGen struct {
	targets  []string
	slo      dlis.SLO
	clients  int
	requests int
	pipeline int // >0: streaming sessions with this many requests in flight
	seed     uint64
	tenants  []tenantMix
}

// runLoad drives the closed loop through the transport-agnostic
// Client: per target, gen.clients concurrent clients each submit one
// request, wait, and submit the next until the target's budget is
// spent. With a load.tenants mix the clients and budgets are split
// across the tenants proportionally to weight, and every request
// carries its tenant's identity. Overload rejections back off by the
// server's RetryAfter hint (bounded so one slow variant cannot idle a
// client for seconds) and retry; quota rejections consume the request
// without a retry — the tenant's budget is spent fleet-wide, so there is
// nothing to retry against; other errors abort that client.
//
// With gen.pipeline > 0 the closed loops are replaced by one streaming
// session per target and tenant that keeps gen.pipeline requests in
// flight (see pipelineTarget); the error semantics are identical.
func runLoad(client dlis.Client, gen loadGen) (time.Duration, int64) {
	ctx := context.Background()
	shapes := make(map[string][2]int, len(gen.targets))
	ms, err := client.Models(ctx)
	if err != nil {
		fatal(err)
	}
	for _, m := range ms {
		if len(m.InputShape) == 3 {
			shapes[m.Name] = [2]int{m.InputShape[1], m.InputShape[2]}
		}
	}
	for _, t := range gen.targets {
		if _, ok := shapes[t]; !ok {
			fatal(fmt.Errorf("no input geometry for target %q", t))
		}
	}

	// Without load.tenants the mix is one anonymous tenant — the identical
	// load shape the generator always ran.
	mix := gen.tenants
	if len(mix) == 0 {
		mix = []tenantMix{{Weight: 1}}
	}
	clientSplit := splitByWeight(gen.clients, mix)
	reqSplit := splitByWeight(gen.requests, mix)
	stats := make([]*tenantLoadStats, len(mix))
	for i, m := range mix {
		stats[i] = &tenantLoadStats{mix: m, clients: clientSplit[i], offered: reqSplit[i] * len(gen.targets)}
	}

	var wg sync.WaitGroup
	var clientErrs atomic.Int64
	start := time.Now()
	for _, name := range gen.targets {
		for ti := range mix {
			if gen.pipeline > 0 {
				ts, budget := stats[ti], reqSplit[ti]
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					pipelineTarget(ctx, client, gen, name, shapes[name], ts, budget, &clientErrs)
				}(name)
				continue
			}
			budget := new(atomic.Int64)
			budget.Store(int64(reqSplit[ti]))
			ts := stats[ti]
			for c := 0; c < clientSplit[ti]; c++ {
				wg.Add(1)
				go func(name string, c int, ts *tenantLoadStats, budget *atomic.Int64) {
					defer wg.Done()
					hw := shapes[name]
					img := dlis.NewImage(1, hw[0], hw[1], uint64(c)+gen.seed)
					req := dlis.Request{Target: name, Tenant: ts.mix.Name, Images: []*dlis.Tensor{img}, SLO: gen.slo}
					for budget.Add(-1) >= 0 {
						sent := time.Now()
						for {
							_, err := client.InferSync(ctx, req)
							if err == nil {
								ts.served.Add(1)
								ts.latNanos.Add(int64(time.Since(sent)))
								break
							}
							if errors.Is(err, dlis.ErrQuotaExceeded) {
								// The tenant's own budget is spent — on every
								// member, so unlike overload a retry cannot
								// land anywhere better. Count it, consume the
								// request, move on.
								ts.quota.Add(1)
								break
							}
							if errors.Is(err, dlis.ErrServerOverloaded) {
								// Shed: honour the hint from either transport
								// (HTTP carries it as 429 + Retry-After).
								ts.retries.Add(1)
								retry := time.Millisecond
								var ov *dlis.OverloadedError
								if errors.As(err, &ov) && ov.RetryAfter > retry {
									retry = ov.RetryAfter
								}
								if max := 50 * time.Millisecond; retry > max {
									retry = max
								}
								time.Sleep(retry)
								continue
							}
							clientErrs.Add(1)
							fmt.Fprintf(os.Stderr, "dlis-serve: %s client %d: %v\n", name, c, err)
							return
						}
					}
				}(name, c, ts, budget)
			}
		}
	}
	wg.Wait()
	wall := time.Since(start)
	// Client-side accounting line, machine-parseable: the smoke scripts
	// compare transports by this run's own served count and throughput,
	// which — unlike the server's statistics — does not accumulate
	// across successive runs against the same backend.
	var served, quota int64
	for _, ts := range stats {
		served += ts.served.Load()
		quota += ts.quota.Load()
	}
	mode := fmt.Sprintf("clients=%d", gen.clients)
	if gen.pipeline > 0 {
		mode = fmt.Sprintf("pipeline=%d", gen.pipeline)
	}
	fmt.Printf("client loop (%s): served=%d quota=%d wall=%v throughput=%.2f req/s\n",
		mode, served, quota, wall.Round(time.Millisecond), float64(served)/wall.Seconds())
	if len(gen.tenants) > 0 {
		reportTenants(stats)
	}
	return wall, clientErrs.Load()
}

// pipelineTarget keeps gen.pipeline requests in flight over one
// streaming session until budget requests have been consumed. The
// per-request error semantics mirror the closed loop: an overload shed
// honours the (bounded) RetryAfter hint and re-issues, a quota
// rejection consumes the request without a retry, any other failure —
// including a send or receive error on the session itself — abandons
// the remaining budget and counts as a client error.
func pipelineTarget(ctx context.Context, client dlis.Client, gen loadGen, name string, hw [2]int, ts *tenantLoadStats, budget int, clientErrs *atomic.Int64) {
	if budget <= 0 {
		return
	}
	sess, err := client.Session(ctx)
	if err != nil {
		clientErrs.Add(1)
		fmt.Fprintf(os.Stderr, "dlis-serve: %s session: %v\n", name, err)
		return
	}
	defer sess.Close()
	img := dlis.NewImage(1, hw[0], hw[1], gen.seed)
	req := dlis.Request{Target: name, Tenant: ts.mix.Name, Images: []*dlis.Tensor{img}, SLO: gen.slo}
	inflight := make(map[uint64]time.Time, gen.pipeline)
	completed := 0
	for completed < budget {
		// Top up the window: every unit of budget not yet consumed and
		// not already on the wire gets (re-)issued.
		for len(inflight) < gen.pipeline && completed+len(inflight) < budget {
			id, err := sess.Send(req)
			if err != nil {
				clientErrs.Add(1)
				fmt.Fprintf(os.Stderr, "dlis-serve: %s pipeline send: %v\n", name, err)
				return
			}
			inflight[id] = time.Now()
		}
		res, err := sess.Recv()
		if err != nil {
			clientErrs.Add(1)
			fmt.Fprintf(os.Stderr, "dlis-serve: %s pipeline recv: %v\n", name, err)
			return
		}
		sent := inflight[res.ID]
		delete(inflight, res.ID)
		switch {
		case res.Err == nil:
			ts.served.Add(1)
			ts.latNanos.Add(int64(time.Since(sent)))
			completed++
		case errors.Is(res.Err, dlis.ErrQuotaExceeded):
			ts.quota.Add(1)
			completed++
		case errors.Is(res.Err, dlis.ErrServerOverloaded):
			// Shed: the unit returns to the to-issue pool and the top-up
			// loop re-sends it on the next pass, after the hint.
			ts.retries.Add(1)
			retry := time.Millisecond
			var ov *dlis.OverloadedError
			if errors.As(res.Err, &ov) && ov.RetryAfter > retry {
				retry = ov.RetryAfter
			}
			if max := 50 * time.Millisecond; retry > max {
				retry = max
			}
			time.Sleep(retry)
		default:
			clientErrs.Add(1)
			fmt.Fprintf(os.Stderr, "dlis-serve: %s pipeline: %v\n", name, res.Err)
			return
		}
	}
}

// report renders the final table from a ServerStats snapshot — the
// same structure whichever transport produced it. Targets that are
// endpoints get the per-variant served/shed table; pool targets get
// the throughput table, with baseline/speedup columns when the
// sequential baseline was measured (in-process mode).
func report(st dlis.ServerStats, gen loadGen, batch int, baseline map[string]float64, errCount int64) {
	fmt.Println()
	var pools, endpoints []string
	for _, t := range gen.targets {
		if _, ok := st.Endpoints[t]; ok {
			endpoints = append(endpoints, t)
		} else {
			pools = append(pools, t)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if len(pools) > 0 {
		hdr := "stack\treplicas\tbatch\trequests\tthroughput\tp50\tp99\toccupancy\tqueue\tmem/replica"
		if baseline != nil {
			hdr += "\tbaseline\tspeedup"
		}
		fmt.Fprintln(tw, hdr)
		for _, name := range pools {
			ps, ok := st.Pools[name]
			if !ok {
				fatal(fmt.Errorf("no statistics for %q", name))
			}
			// The batch column is the local pool's batch size; a
			// remote server's setting is not on the wire, so show "-".
			batchCol := "-"
			if batch > 0 {
				batchCol = strconv.Itoa(batch)
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.2f req/s\t%v\t%v\t%.2f\t%d\t%.1f MB",
				name, ps.Replicas, batchCol, ps.Completed, ps.Throughput,
				ps.Latency.P50.Round(time.Microsecond), ps.Latency.P99.Round(time.Microsecond),
				ps.MeanBatchOccupancy, ps.QueueDepth, ps.ReplicaMemoryMB)
			if baseline != nil {
				base := baseline[name]
				fmt.Fprintf(tw, "\t%.2f req/s\t%.2f×", base, ps.Throughput/base)
			}
			fmt.Fprintln(tw)
		}
	}
	if len(endpoints) > 0 {
		fmt.Fprintln(tw, "variant\taccuracy\tmodelled\tmeasured\tserved\tshed\tthroughput\tp50\tp99\toccupancy\tmem/replica")
		for _, name := range endpoints {
			es := st.Endpoints[name]
			for _, v := range es.Variants {
				acc := "n/a"
				if v.Accuracy > 0 {
					acc = fmt.Sprintf("%.1f%%", v.Accuracy)
				}
				// measured is this host's warmed batch-1 plan time — the
				// router's actual rank; modelled is the paper platform.
				fmt.Fprintf(tw, "%s\t%s\t%.3fs\t%.2fms\t%d\t%d\t%.2f req/s\t%v\t%v\t%.2f\t%.1f MB\n",
					v.Name, acc, v.ModelledSeconds, v.MeasuredSeconds*1000, v.Routed, v.Shed,
					v.Pool.Throughput,
					v.Pool.Latency.P50.Round(time.Microsecond), v.Pool.Latency.P99.Round(time.Microsecond),
					v.Pool.MeanBatchOccupancy, v.Pool.ReplicaMemoryMB)
			}
			fmt.Fprintf(tw, "%s TOTAL\t\t\t\t%d\t%d\t\t\t\t\t\n", es.Endpoint, es.Routed, es.Shed)
		}
	}
	// The usage table appears only when named tenants exist: a legacy
	// untenanted run metering everything under the anonymous default
	// keeps its pre-tenant report.
	_, anon := st.Tenants[""]
	if len(st.Tenants) > 0 && !(anon && len(st.Tenants) == 1) {
		names := make([]string, 0, len(st.Tenants))
		for name := range st.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(tw, "tenant\tweight\trequests\timages\tshed\tquota\tmodel-seconds")
		for _, name := range names {
			u := st.Tenants[name]
			label := name
			if label == "" {
				label = "(anonymous)"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.3fs\n",
				label, u.Weight, u.Requests, u.Images, u.Shed, u.QuotaRejected, u.ModelSeconds)
		}
	}
	tw.Flush()

	if errCount > 0 {
		fmt.Printf("\nwarning: %d client(s) aborted on error — the table reflects only the requests that actually completed, not the configured load.requests\n", errCount)
	}
	// A single closed-loop client can never coalesce, so only warn when
	// batching had a chance to engage.
	for _, name := range pools {
		if ps := st.Pools[name]; ps.MeanBatchOccupancy <= 1 && gen.clients > 1 {
			fmt.Printf("\nwarning: %s batch occupancy %.2f ≤ 1 — batching never engaged; raise load.clients or pool.delay\n",
				name, ps.MeanBatchOccupancy)
		}
	}
}

// baselineProbe times sequential single-image inference on one
// dedicated instance, accumulating across measurement rounds.
type baselineProbe struct {
	inst  *dlis.Instance
	img   *dlis.Tensor
	hw    [2]int // input height/width of the stack
	total time.Duration
	n     int
}

// newBaselineProbe instantiates the stack and runs one warm-up image.
func newBaselineProbe(cfg dlis.StackConfig, seed uint64) (*baselineProbe, error) {
	inst, err := dlis.Instantiate(cfg)
	if err != nil {
		return nil, err
	}
	shape := inst.Net.InputShape // CHW
	p := &baselineProbe{inst: inst, hw: [2]int{shape[1], shape[2]}}
	p.img = dlis.NewImage(1, p.hw[0], p.hw[1], seed)
	p.inst.Run(p.img) // warm-up
	return p, nil
}

// measure times n more sequential single-image inferences and returns
// this round's per-image mean.
func (p *baselineProbe) measure(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		p.inst.Run(p.img)
	}
	round := time.Since(start)
	p.total += round
	p.n += n
	return round / time.Duration(n)
}

// perImage is the mean over every measured image so far.
func (p *baselineProbe) perImage() time.Duration {
	if p.n == 0 {
		return 0
	}
	return p.total / time.Duration(p.n)
}

// applyMemLimit caps the heap like a production serving process would:
// the replica weights are permanently live, so without a limit the
// collector lets the heap balloon to several times the live set and
// every activation allocation lands on cold, newly-faulted pages. A
// soft limit keeps activation buffers recycling through warm memory.
func applyMemLimit(srv *dlis.Server, memlimitMB int) {
	if memlimitMB < 0 {
		return
	}
	limit := int64(memlimitMB) << 20
	if limit == 0 {
		var replicaBytes float64
		for _, st := range srv.Snapshot().Pools {
			replicaBytes += float64(st.Replicas) * st.ReplicaMemoryMB * 1e6
		}
		limit = 2 * int64(replicaBytes)
		if min := int64(1) << 30; limit < min {
			limit = min
		}
	}
	debug.SetMemoryLimit(limit)
	fmt.Printf("soft heap limit %d MB\n", limit>>20)
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlis-serve:", err)
	os.Exit(1)
}
