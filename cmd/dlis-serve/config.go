package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	dlis "repro"
)

// flagValues holds every CLI flag. The flag surface and the fleet
// config describe the same topology: without -config the flags alone
// build a dlis.FleetConfig (flagConfig); with -config the file is
// parsed and only the flags the user explicitly set override it
// (applyFlagOverrides). Either way the result flows through the same
// Validate → Resolve pipeline, so contradictory mode flags are typed
// fleetcfg errors, never a silent precedence.
type flagValues struct {
	configPath string
	dryrun     bool

	models     string
	technique  string
	replicas   int
	batch      int
	delay      time.Duration
	clients    int
	requests   int
	baselineN  int
	threads    int
	auto       bool
	platform   string
	seed       uint64
	memlimitMB int
	variants   string
	slo        string
	queueCap   int
	tenants    string
	listen     string
	muxListen  string
	connect    string
	cluster    string
	pipeline   int
	tunerCache string
}

// defineFlags registers every flag on fs (a parameter so tests can use
// private FlagSets) and returns the value struct they bind to.
func defineFlags(fs *flag.FlagSet) *flagValues {
	v := &flagValues{}
	fs.StringVar(&v.configPath, "config", "", "fleet config file (JSON); explicitly set flags override its values")
	fs.BoolVar(&v.dryrun, "dryrun", false, "validate, print the fully resolved topology and exit without booting anything")
	fs.StringVar(&v.models, "model", "resnet18", "comma-separated models to serve (full-size or mini-*); with -connect/-cluster, the remote routing targets")
	fs.StringVar(&v.technique, "technique", "plain", "compression technique: plain, weight-pruning, channel-pruning, quantisation")
	fs.IntVar(&v.replicas, "replicas", 4, "replica workers per pool")
	fs.IntVar(&v.batch, "batch", 8, "max dynamic batch size")
	fs.DurationVar(&v.delay, "delay", 2*time.Millisecond, "max batching delay for a non-full batch")
	fs.IntVar(&v.clients, "clients", 0, "closed-loop clients per target (default 2*replicas*batch)")
	fs.IntVar(&v.requests, "requests", 0, "requests per target (default 4*replicas*batch, min 64)")
	fs.IntVar(&v.baselineN, "baseline-images", 8, "images for the sequential baseline measurement (in-process mode)")
	fs.IntVar(&v.threads, "threads", 1, "engine threads per worker (stack layer 4)")
	fs.BoolVar(&v.auto, "auto", false, "per-layer algorithm selection: plan compilation times direct/im2col/Winograd/sparse per conv geometry and bakes the winner in")
	fs.StringVar(&v.platform, "platform", "odroid-xu4", "modelled platform of the stack configuration")
	fs.Uint64Var(&v.seed, "seed", 1, "deterministic seed")
	fs.IntVar(&v.memlimitMB, "memlimit-mb", 0, "soft heap limit in MB; 0 sizes it from the replica footprints, -1 disables")
	fs.StringVar(&v.variants, "variants", "", "comma-separated techniques to host as one SLO-routed endpoint per model (e.g. plain,weight-pruning,quantisation); empty serves one pool per model")
	fs.StringVar(&v.slo, "slo", "", "request SLO: acc=<min top-1 %>,lat=<max latency>,prio=<class>, any subset (e.g. acc=90,lat=500ms,prio=1)")
	fs.IntVar(&v.queueCap, "queuecap", 0, "per-pool admission queue capacity (0 = replicas*batch*4); routed traffic beyond it is shed with a RetryAfter hint")
	fs.StringVar(&v.tenants, "tenants", "", "synthetic tenant mix N[:w1,...,wN]: split clients and requests across tenants t0..tN-1 proportionally to weight; hosting modes register the same tenants with matching fair-share weights")
	fs.StringVar(&v.listen, "listen", "", "serve the configured stacks over HTTP on this address (e.g. :8080) instead of running the load generator")
	fs.StringVar(&v.muxListen, "muxlisten", "", "serve the configured stacks over the DLW2 multiplexed session protocol on this address (e.g. :8091); combines with -listen for a dual-protocol server")
	fs.StringVar(&v.connect, "connect", "", "drive a remote dlis server at this address instead of building one in-process; dlw2://host:port is the mux transport; http://, https:// or a bare host:port is HTTP")
	fs.StringVar(&v.cluster, "cluster", "", "comma-separated dlis backend addresses (scheme rules as -connect); run the load generator over the fleet through one cluster client")
	fs.IntVar(&v.pipeline, "pipeline", 0, "streaming-session load mode: keep this many requests in flight per target over one pipelined session instead of -clients closed loops")
	fs.StringVar(&v.tunerCache, "tunercache", "", "directory for the persistent algorithm-tuner cache; warm starts load timed per-geometry kernel verdicts instead of re-timing them")
	return v
}

// buildConfig assembles the fleet config this process will boot from:
// the -config file with explicitly set flags layered on top, or — with
// no file — the flags alone. The result is NOT yet validated; the
// caller runs Validate so every rejection (contradictory modes
// included) surfaces as one typed fleetcfg error.
func buildConfig(fs *flag.FlagSet, v *flagValues) (*dlis.FleetConfig, error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if v.configPath == "" {
		return flagConfig(v)
	}
	data, err := os.ReadFile(v.configPath)
	if err != nil {
		return nil, err
	}
	cfg, err := dlis.ParseFleetConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.configPath, err)
	}
	if err := applyFlagOverrides(cfg, v, set); err != nil {
		return nil, err
	}
	return cfg, nil
}

// flagConfig builds the whole config from the flag values, defaults
// included — the legacy flag-only interface expressed as a fleet
// config. Every mode flag is written through (listen, connect,
// cluster), so a contradictory combination reaches Validate intact and
// is rejected there with a field path instead of one flag silently
// winning.
func flagConfig(v *flagValues) (*dlis.FleetConfig, error) {
	targets := splitList(v.models)
	if len(targets) == 0 {
		return nil, errors.New("no models given")
	}
	slo, err := parseFleetSLO(v.slo)
	if err != nil {
		return nil, err
	}
	mix, err := parseTenantMix(v.tenants)
	if err != nil {
		return nil, err
	}
	cfg := &dlis.FleetConfig{
		Server: &dlis.FleetServer{Listen: v.listen, MuxListen: v.muxListen, MemLimitMB: v.memlimitMB, Seed: v.seed, TunerCache: v.tunerCache},
		Pool:   poolFromFlags(v),
	}
	if v.cluster != "" {
		cfg.Cluster = &dlis.FleetCluster{Members: splitList(v.cluster)}
	}
	if v.connect != "" || v.cluster != "" {
		// Remote load generation: -model names the remote routing
		// targets; nothing is hosted here, so the mix only shapes the
		// load loop — tenancy is enforced by the remote fleet's config.
		cfg.Load = &dlis.FleetLoad{
			Connect: v.connect, Targets: targets,
			Clients: v.clients, Requests: v.requests, Pipeline: v.pipeline, SLO: slo,
		}
		return cfg, nil
	}
	cfg.Tenants = tenantSection(mix)
	cfg.Models, cfg.Endpoints, err = modelSections(targets, v.technique, v.variants)
	if err != nil {
		return nil, err
	}
	// The engine knobs apply to every hosted model in the flag
	// interface (a per-model split needs a config file).
	for i := range cfg.Models {
		cfg.Models[i].Threads = v.threads
		cfg.Models[i].AutoAlgo = v.auto
		cfg.Models[i].Platform = v.platform
	}
	if v.listen == "" && v.muxListen == "" {
		// Targets stay empty: Resolve derives every hosted routing name,
		// which is exactly the declared model/endpoint list.
		cfg.Load = &dlis.FleetLoad{Clients: v.clients, Requests: v.requests, Pipeline: v.pipeline, SLO: slo}
	}
	return cfg, nil
}

// poolFromFlags lowers the tuning flags to a Pool section. A zero
// -queuecap keeps the derive-from-geometry default (nil); any other
// value — negative included — is passed through for Validate to judge.
func poolFromFlags(v *flagValues) *dlis.FleetPool {
	r, b := v.replicas, v.batch
	p := &dlis.FleetPool{Replicas: &r, Batch: &b, Delay: dlis.FleetDuration(v.delay)}
	if v.queueCap != 0 {
		q := v.queueCap
		p.QueueCap = &q
	}
	return p
}

// modelSections builds the Models (and, with -variants, Endpoints)
// declarations for the hosted targets: one pool per model, or one
// SLO-routed endpoint per model fronting the listed variants.
func modelSections(targets []string, technique, variants string) ([]dlis.FleetModel, []dlis.FleetEndpoint, error) {
	if variants == "" {
		ms := make([]dlis.FleetModel, 0, len(targets))
		for _, m := range targets {
			ms = append(ms, dlis.FleetModel{Kind: m, Technique: technique})
		}
		return ms, nil, nil
	}
	vs := splitList(variants)
	if len(vs) == 0 {
		return nil, nil, errors.New("-variants given but empty")
	}
	var ms []dlis.FleetModel
	var eps []dlis.FleetEndpoint
	for _, m := range targets {
		ms = append(ms, dlis.FleetModel{Name: m, Kind: m})
		eps = append(eps, dlis.FleetEndpoint{Name: m, Model: m, Variants: vs})
	}
	return ms, eps, nil
}

// applyFlagOverrides layers the explicitly set flags (set) over a
// parsed config file. Scalar flags overwrite their field; the
// model/technique/variants trio rebuilds the hosted sections last so
// the rebuild sees the other overrides. Precedence rules:
//
//   - -model in a remote config (cluster/connect) replaces the load
//     targets; in a hosting config it replaces Models and Endpoints
//     wholesale (with -technique/-variants at their flag values) and
//     re-derives the load targets.
//   - -technique alone re-techniques every declared model and clears
//     its pinned operating point (the new technique's Table III elbow
//     applies at Resolve).
//   - -variants without -model is ambiguous against a config file's
//     endpoint structure and is rejected.
func applyFlagOverrides(cfg *dlis.FleetConfig, v *flagValues, set map[string]bool) error {
	ensureServer := func() {
		if cfg.Server == nil {
			cfg.Server = &dlis.FleetServer{}
		}
	}
	ensurePool := func() {
		if cfg.Pool == nil {
			cfg.Pool = &dlis.FleetPool{}
		}
	}
	ensureLoad := func() {
		if cfg.Load == nil {
			cfg.Load = &dlis.FleetLoad{}
		}
	}
	if set["listen"] {
		ensureServer()
		cfg.Server.Listen = v.listen
	}
	if set["muxlisten"] {
		ensureServer()
		cfg.Server.MuxListen = v.muxListen
	}
	if set["seed"] {
		ensureServer()
		cfg.Server.Seed = v.seed
	}
	if set["memlimit-mb"] {
		ensureServer()
		cfg.Server.MemLimitMB = v.memlimitMB
	}
	if set["tunercache"] {
		ensureServer()
		cfg.Server.TunerCache = v.tunerCache
	}
	if set["cluster"] {
		cfg.Cluster = &dlis.FleetCluster{Members: splitList(v.cluster)}
	}
	if set["replicas"] {
		ensurePool()
		r := v.replicas
		cfg.Pool.Replicas = &r
	}
	if set["batch"] {
		ensurePool()
		b := v.batch
		cfg.Pool.Batch = &b
	}
	if set["delay"] {
		ensurePool()
		cfg.Pool.Delay = dlis.FleetDuration(v.delay)
	}
	if set["queuecap"] {
		ensurePool()
		if v.queueCap == 0 {
			cfg.Pool.QueueCap = nil // back to derive-from-geometry
		} else {
			q := v.queueCap
			cfg.Pool.QueueCap = &q
		}
	}
	if set["connect"] {
		ensureLoad()
		cfg.Load.Connect = v.connect
	}
	if set["clients"] {
		ensureLoad()
		cfg.Load.Clients = v.clients
	}
	if set["requests"] {
		ensureLoad()
		cfg.Load.Requests = v.requests
	}
	if set["pipeline"] {
		ensureLoad()
		cfg.Load.Pipeline = v.pipeline
	}
	if set["slo"] {
		slo, err := parseFleetSLO(v.slo)
		if err != nil {
			return err
		}
		ensureLoad()
		cfg.Load.SLO = slo
	}
	if set["tenants"] {
		mix, err := parseTenantMix(v.tenants)
		if err != nil {
			return err
		}
		// Remote roles reject a tenants section outright (Validate), so
		// the mix only rebuilds the hosted section — wholesale, like
		// -model: an explicit empty -tenants clears the file's section.
		if remote := cfg.Cluster != nil || (cfg.Load != nil && cfg.Load.Connect != ""); !remote {
			cfg.Tenants = tenantSection(mix)
		}
	}
	if set["threads"] || set["auto"] || set["platform"] {
		for i := range cfg.Models {
			if set["threads"] {
				cfg.Models[i].Threads = v.threads
			}
			if set["auto"] {
				cfg.Models[i].AutoAlgo = v.auto
			}
			if set["platform"] {
				cfg.Models[i].Platform = v.platform
			}
		}
	}
	if set["technique"] && !set["model"] {
		for i := range cfg.Models {
			cfg.Models[i].Technique = v.technique
			cfg.Models[i].Point = nil
		}
	}
	if set["variants"] && !set["model"] {
		return errors.New("-variants overriding a config file needs -model to name the endpoints it rebuilds")
	}
	if set["model"] {
		targets := splitList(v.models)
		if len(targets) == 0 {
			return errors.New("no models given")
		}
		remote := cfg.Cluster != nil || (cfg.Load != nil && cfg.Load.Connect != "")
		if remote {
			ensureLoad()
			cfg.Load.Targets = targets
			return nil
		}
		ms, eps, err := modelSections(targets, v.technique, v.variants)
		if err != nil {
			return err
		}
		if set["threads"] || set["auto"] || set["platform"] {
			for i := range ms {
				ms[i].Threads = v.threads
				ms[i].AutoAlgo = v.auto
				ms[i].Platform = v.platform
			}
		}
		cfg.Models, cfg.Endpoints = ms, eps
		if cfg.Load != nil {
			cfg.Load.Targets = nil // re-derive from the new sections
		}
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFleetSLO parses "acc=90,lat=500ms,prio=1" (any subset) into the
// fleet-config SLO; an empty spec is nil (no objective).
func parseFleetSLO(s string) (*dlis.FleetSLO, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	slo := &dlis.FleetSLO{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -slo term %q (want key=value)", part)
		}
		val = strings.TrimSpace(val)
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "acc", "accuracy", "minaccuracy":
			a, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("bad accuracy %q: %w", val, err)
			}
			slo.MinAccuracy = a
		case "lat", "latency", "maxlatency":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("bad latency %q: %w", val, err)
			}
			slo.MaxLatency = dlis.FleetDuration(d)
		case "prio", "priority":
			p, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("bad priority %q: %w", val, err)
			}
			slo.Priority = p
		default:
			return nil, fmt.Errorf("unknown -slo key %q (want acc/lat/prio)", key)
		}
	}
	return slo, nil
}
