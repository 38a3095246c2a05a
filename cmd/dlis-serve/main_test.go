package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	dlis "repro"
)

// TestMain doubles as dlis-serve itself: with DLIS_SERVE_MAIN=1 in the
// environment the test binary runs main on its arguments, so a test can
// boot the real command in a process of its own.
func TestMain(m *testing.M) {
	if os.Getenv("DLIS_SERVE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runServe runs dlis-serve with args in a child process and returns
// its combined output.
func runServe(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DLIS_SERVE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dlis-serve %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// parse runs the real flag pipeline on args and returns the assembled
// (unvalidated) config, mirroring main() up to Validate.
func parse(t *testing.T, args ...string) (*dlis.FleetConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("dlis-serve", flag.ContinueOnError)
	v := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return buildConfig(fs, v)
}

// mustParse is parse for argument sets that must assemble cleanly.
func mustParse(t *testing.T, args ...string) *dlis.FleetConfig {
	t.Helper()
	cfg, err := parse(t, args...)
	if err != nil {
		t.Fatalf("buildConfig(%v): %v", args, err)
	}
	return cfg
}

// TestModeConflictsAreTypedErrors is the regression test for the
// centralised mode resolution: every contradictory flag combination
// must surface as a typed fleetcfg error naming the conflicting field,
// never a silent precedence between -listen/-connect/-cluster.
func TestModeConflictsAreTypedErrors(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		wantPath string
	}{
		{"listen+connect", []string{"-listen", ":8080", "-connect", "h:1", "-model", "mini-vgg"}, "load.connect"},
		{"listen+cluster", []string{"-listen", ":8080", "-cluster", "h:1", "-model", "mini-vgg"}, "server.listen"},
		{"connect+cluster", []string{"-connect", "h:1", "-cluster", "h:2", "-model", "mini-vgg"}, "load.connect"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mustParse(t, tc.args...)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("%v validated despite contradictory modes", tc.args)
			}
			var ferr *dlis.FleetConfigError
			if !errors.As(err, &ferr) {
				t.Fatalf("error %v (%T) is not a typed fleetcfg error", err, err)
			}
			if ferr.Path != tc.wantPath {
				t.Fatalf("error path = %q (%v), want %q", ferr.Path, err, tc.wantPath)
			}
		})
	}
}

// TestFlagModeDerivation pins which process role each flag set
// resolves to through the single Mode() derivation point.
func TestFlagModeDerivation(t *testing.T) {
	tests := []struct {
		args []string
		want dlis.FleetMode
	}{
		{[]string{"-model", "mini-vgg"}, dlis.FleetModeLocal},
		{[]string{"-model", "mini-vgg", "-listen", ":8080"}, dlis.FleetModeListen},
		{[]string{"-model", "mini-vgg", "-muxlisten", ":8091"}, dlis.FleetModeListen},
		{[]string{"-model", "mini-vgg", "-listen", ":8080", "-muxlisten", ":8091"}, dlis.FleetModeListen},
		{[]string{"-model", "mini-vgg/plain", "-connect", "127.0.0.1:8080"}, dlis.FleetModeConnect},
		{[]string{"-model", "mini-vgg/plain", "-connect", "dlw2://127.0.0.1:8091", "-pipeline", "32"}, dlis.FleetModeConnect},
		{[]string{"-model", "mini-vgg/plain", "-cluster", "127.0.0.1:18081,dlw2://127.0.0.1:18091"}, dlis.FleetModeCluster},
	}
	for _, tc := range tests {
		cfg := mustParse(t, tc.args...)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if got := cfg.Mode(); got != tc.want {
			t.Errorf("%v resolved to mode %v, want %v", tc.args, got, tc.want)
		}
	}
}

// TestFlagConfigLegacyDefaults pins flag/config parity: the bare flag
// interface must resolve to the same topology it always ran — 4
// replicas, batch 8, 2ms window, derived queue cap and load shape.
func TestFlagConfigLegacyDefaults(t *testing.T) {
	cfg := mustParse(t, "-model", "mini-vgg")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := cfg.Resolve()
	if *r.Pool.Replicas != 4 || *r.Pool.Batch != 8 || time.Duration(r.Pool.Delay) != 2*time.Millisecond {
		t.Errorf("resolved tuning %+v, want legacy 4 replicas / batch 8 / 2ms", r.Pool)
	}
	if *r.Pool.QueueCap != 4*8*4 {
		t.Errorf("resolved queue cap = %d, want derived %d", *r.Pool.QueueCap, 4*8*4)
	}
	if r.Load.Clients != 2*4*8 || r.Load.Requests != 4*4*8 {
		t.Errorf("resolved load %+v, want legacy 64 clients / 128 requests", r.Load)
	}
	if len(r.Load.Targets) != 1 || r.Load.Targets[0] != "mini-vgg/plain" {
		t.Errorf("resolved targets = %v, want [mini-vgg/plain]", r.Load.Targets)
	}
}

// TestConfigFileFlagOverrides checks the documented precedence:
// explicitly set flags override the file, unset flags leave it alone.
func TestConfigFileFlagOverrides(t *testing.T) {
	path := filepath.Join("testdata", "fleet-backend-1.json")
	base := mustParse(t, "-config", path)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := *base.Resolve().Pool.Replicas; got != 2 {
		t.Fatalf("file config replicas = %d, want 2 (flag defaults must not leak over the file)", got)
	}

	over := mustParse(t, "-config", path, "-replicas", "3", "-listen", "127.0.0.1:19090")
	if err := over.Validate(); err != nil {
		t.Fatal(err)
	}
	r := over.Resolve()
	if *r.Pool.Replicas != 3 {
		t.Errorf("overridden replicas = %d, want 3", *r.Pool.Replicas)
	}
	if r.Server.Listen != "127.0.0.1:19090" {
		t.Errorf("overridden listen = %q, want 127.0.0.1:19090", r.Server.Listen)
	}
	if *r.Pool.Batch != 4 {
		t.Errorf("batch = %d, want the file's 4 (unset flag must not override)", *r.Pool.Batch)
	}

	// -model on a cluster config retargets the load, not the hosting.
	cl := mustParse(t, "-config", filepath.Join("testdata", "fleet-cluster.json"), "-model", "other/plain")
	if got := cl.Load.Targets; len(got) != 1 || got[0] != "other/plain" {
		t.Errorf("cluster -model override targets = %v, want [other/plain]", got)
	}
	if len(cl.Models) != 0 {
		t.Errorf("cluster -model override declared models %v; a load generator hosts nothing", cl.Models)
	}

	// -variants without -model over a file is ambiguous and rejected.
	if _, err := parse(t, "-config", path, "-variants", "plain,wp"); err == nil {
		t.Error("-variants without -model over a config file must be rejected")
	}
}

// TestCIFixturesBootTheGauntlet validates the committed CI fixtures
// end-to-end through the same pipeline main() runs: they must parse,
// validate, resolve to the roles the cluster gauntlet wires together,
// and agree on the routing target.
func TestCIFixturesBootTheGauntlet(t *testing.T) {
	load := func(name string) *dlis.FleetConfig {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := dlis.ParseFleetConfig(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return cfg
	}
	b1 := load("fleet-backend-1.json").Resolve()
	b2 := load("fleet-backend-2.json").Resolve()
	cl := load("fleet-cluster.json").Resolve()

	if b1.Mode() != dlis.FleetModeListen || b2.Mode() != dlis.FleetModeListen {
		t.Fatalf("backends must resolve to listen mode, got %v / %v", b1.Mode(), b2.Mode())
	}
	if cl.Mode() != dlis.FleetModeCluster {
		t.Fatalf("cluster fixture must resolve to cluster mode, got %v", cl.Mode())
	}
	members := map[string]bool{}
	for _, m := range cl.Cluster.Members {
		members[m] = true
	}
	for _, b := range []*dlis.FleetConfig{b1, b2} {
		if !members[b.Server.Listen] {
			t.Errorf("backend %s is not a cluster member (%v)", b.Server.Listen, cl.Cluster.Members)
		}
		scfg, err := b.ServerConfig()
		if err != nil {
			t.Errorf("backend %s: %v", b.Server.Listen, err)
			continue
		}
		hosted := map[string]bool{}
		for _, s := range scfg.Stacks {
			hosted[s.Key()] = true
		}
		for _, target := range cl.Load.Targets {
			if !hosted[target] {
				t.Errorf("backend %s does not host cluster target %q (stacks %v)", b.Server.Listen, target, scfg.Stacks)
			}
		}
	}
	if cl.Load.Requests != 600 {
		t.Errorf("cluster fixture requests = %d; CI asserts served=600", cl.Load.Requests)
	}

	// The mux-smoke fixture: one dual-protocol backend serving the same
	// pool over HTTP and DLW2 on distinct ports, so the smoke job can
	// drive both transports against identical hosting and compare.
	mx := load("fleet-mux-backend.json").Resolve()
	if mx.Mode() != dlis.FleetModeListen {
		t.Fatalf("mux backend must resolve to listen mode, got %v", mx.Mode())
	}
	if mx.Server.Listen == "" || mx.Server.MuxListen == "" {
		t.Fatalf("mux backend must listen on both protocols, got listen=%q muxListen=%q",
			mx.Server.Listen, mx.Server.MuxListen)
	}
	scfg, err := mx.ServerConfig()
	if err != nil {
		t.Fatal(err)
	}
	hosted := map[string]bool{}
	for _, s := range scfg.Stacks {
		hosted[s.Key()] = true
	}
	if !hosted["mini-vgg/plain"] {
		t.Errorf("mux backend does not host mini-vgg/plain (stacks %v); the smoke job targets it", scfg.Stacks)
	}
}

// TestPipelineFlagThreadsThrough pins the streaming-session load knob:
// -pipeline must land in the resolved load section and survive the
// flag-over-file override path.
func TestPipelineFlagThreadsThrough(t *testing.T) {
	cfg := mustParse(t, "-model", "mini-vgg", "-pipeline", "32")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Resolve().Load.Pipeline; got != 32 {
		t.Errorf("resolved pipeline = %d, want 32", got)
	}
	neg := mustParse(t, "-model", "mini-vgg", "-pipeline", "-1")
	if neg.Validate() == nil {
		t.Error("negative -pipeline must be rejected by validation")
	}
}

// TestTunerCacheColdThenWarmBoot boots dlis-serve twice against one
// tuner cache, each boot in a fresh process because the tuner memo is
// process-wide. The cold boot must time candidates and persist the
// verdicts; the warm boot must resolve every verdict from disk without
// re-timing or rewriting the clean cache; and the resolved topology
// must not depend on whether the cache exists.
func TestTunerCacheColdThenWarmBoot(t *testing.T) {
	tc := t.TempDir()
	args := []string{"-model", "mini-vgg", "-auto", "-replicas", "1", "-batch", "4",
		"-clients", "4", "-requests", "32", "-tunercache", tc}
	counters := regexp.MustCompile(`(?m)^tuner cache: hits=(\d+) memo=\d+ timed=(\d+) `)
	boot := func() (hits, timed int, saved bool, out string) {
		out = runServe(t, args...)
		m := counters.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no tuner cache counters in output:\n%s", out)
		}
		hits, _ = strconv.Atoi(m[1])
		timed, _ = strconv.Atoi(m[2])
		return hits, timed, strings.Contains(out, "tuner cache: saved"), out
	}
	if hits, timed, saved, out := boot(); hits != 0 || timed < 1 || !saved {
		t.Fatalf("cold boot: hits=%d timed=%d saved=%v, want hits=0 timed>=1 saved\n%s", hits, timed, saved, out)
	}
	if hits, timed, saved, out := boot(); hits < 1 || timed != 0 || saved {
		t.Fatalf("warm boot: hits=%d timed=%d saved=%v, want hits>=1 timed=0 and no save\n%s", hits, timed, saved, out)
	}
	dry := append(args, "-dryrun")
	warm := runServe(t, dry...)
	if err := os.RemoveAll(tc); err != nil {
		t.Fatal(err)
	}
	if cold := runServe(t, dry...); cold != warm {
		t.Fatalf("-dryrun differs with the cache removed:\n%s\nwith it populated:\n%s", cold, warm)
	}
}
