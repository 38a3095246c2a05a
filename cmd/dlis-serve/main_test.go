package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

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

// TestModeConflictsAreTypedErrors: a fleet file asking for two process
// roles is rejected by loadConfig, the loader main runs, with the typed
// fleetcfg error naming the conflicting field. The file path the loader
// prefixes must not hide the type from errors.As.
func TestModeConflictsAreTypedErrors(t *testing.T) {
	tests := []struct {
		name     string
		fleet    string
		wantPath string
	}{
		{"listen+connect", `{"server": {"listen": ":8080"}, "load": {"connect": "h:1", "targets": ["mini-vgg/plain"]}}`, "load.connect"},
		{"listen+cluster", `{"server": {"listen": ":8080"}, "cluster": {"members": ["h:1"]}, "load": {"targets": ["mini-vgg/plain"]}}`, "server.listen"},
		{"connect+cluster", `{"cluster": {"members": ["h:2"]}, "load": {"connect": "h:1", "targets": ["mini-vgg/plain"]}}`, "load.connect"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.json")
			if err := os.WriteFile(path, []byte(tc.fleet), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := loadConfig(path)
			var ferr *dlis.FleetConfigError
			if !errors.As(err, &ferr) {
				t.Fatalf("loadConfig = %v (%T), want a typed fleetcfg error", err, err)
			}
			if ferr.Path != tc.wantPath || !strings.HasPrefix(err.Error(), path+": ") {
				t.Fatalf("error %q: path %q, want %q behind the file name", err, ferr.Path, tc.wantPath)
			}
		})
	}
}

// dials reports whether the connect address addr reaches backend b:
// dlw2:// addresses its DLW2 listener, anything else its HTTP one.
func dials(addr string, b *dlis.FleetConfig) bool {
	if rest, ok := strings.CutPrefix(addr, "dlw2://"); ok {
		return rest == b.Server.MuxListen
	}
	return strings.TrimPrefix(strings.TrimPrefix(addr, "http://"), "https://") == b.Server.Listen
}

// hostedNames is every routing name a hosting config serves.
func hostedNames(t *testing.T, c *dlis.FleetConfig) map[string]bool {
	t.Helper()
	scfg, err := c.ServerConfig()
	if err != nil {
		t.Fatal(err)
	}
	hosted := map[string]bool{}
	for _, s := range scfg.Stacks {
		hosted[s.Key()] = true
	}
	for _, e := range scfg.Endpoints {
		hosted[e.Name] = true
	}
	return hosted
}

// TestCIFixturesBootTheGauntlet checks every committed fleet fixture
// through the pipeline main runs (loadConfig): each parses, validates
// and resolves to the role its CI step boots, and each load fixture
// agrees with the backend fixtures it drives — every connect address
// or cluster member dials one of them, and each of them hosts every
// target. The per-fixture checks pin the values the CI greps assert.
func TestCIFixturesBootTheGauntlet(t *testing.T) {
	type fixture struct {
		mode     dlis.FleetMode
		backends []string // fixtures a load generator drives
		check    func(t *testing.T, c *dlis.FleetConfig, backends []*dlis.FleetConfig)
	}
	load := func(clients, requests, pipeline int) func(*testing.T, *dlis.FleetConfig, []*dlis.FleetConfig) {
		return func(t *testing.T, c *dlis.FleetConfig, _ []*dlis.FleetConfig) {
			if l := c.Load; l.Clients != clients || l.Requests != requests || l.Pipeline != pipeline {
				t.Errorf("load clients=%d requests=%d pipeline=%d, want %d/%d/%d",
					l.Clients, l.Requests, l.Pipeline, clients, requests, pipeline)
			}
		}
	}
	fixtures := map[string]fixture{
		"fleet-serve-smoke.json":      {mode: dlis.FleetModeLocal, check: load(8, 64, 0)},
		"fleet-multi-variant.json":    {mode: dlis.FleetModeLocal, check: load(16, 64, 0)},
		"fleet-loopback-backend.json": {mode: dlis.FleetModeListen},
		"fleet-loopback-load.json":    {mode: dlis.FleetModeConnect, backends: []string{"fleet-loopback-backend.json"}, check: load(8, 64, 0)},
		"fleet-backend-1.json":        {mode: dlis.FleetModeListen},
		"fleet-backend-2.json":        {mode: dlis.FleetModeListen},
		"fleet-cluster.json": {mode: dlis.FleetModeCluster, backends: []string{"fleet-backend-1.json", "fleet-backend-2.json"},
			check: load(16, 600, 0)},
		"fleet-mux-backend.json": {mode: dlis.FleetModeListen, check: func(t *testing.T, c *dlis.FleetConfig, _ []*dlis.FleetConfig) {
			if c.Server.Listen == "" || c.Server.MuxListen == "" {
				t.Errorf("mux backend must listen on both protocols, got listen=%q muxListen=%q", c.Server.Listen, c.Server.MuxListen)
			}
		}},
		"fleet-mux-http-load.json": {mode: dlis.FleetModeConnect, backends: []string{"fleet-mux-backend.json"}, check: load(16, 600, 0)},
		"fleet-mux-dlw2-load.json": {mode: dlis.FleetModeConnect, backends: []string{"fleet-mux-backend.json"}, check: load(64, 600, 32)},
		"fleet-tenants.json":       {mode: dlis.FleetModeListen},
		"fleet-tenant-load.json": {mode: dlis.FleetModeConnect, backends: []string{"fleet-tenants.json"},
			check: func(t *testing.T, c *dlis.FleetConfig, backends []*dlis.FleetConfig) {
				load(11, 220, 0)(t, c, backends)
				// The mix offers load as the tenants the backend declares,
				// at the weights it gives them.
				weights := map[string]int{}
				for _, d := range backends[0].Tenants.Defs {
					weights[d.Name] = d.Weight
				}
				for _, m := range c.Load.Tenants {
					if weights[m.Name] != m.Weight {
						t.Errorf("load tenant %s weight %d, backend declares %d", m.Name, m.Weight, weights[m.Name])
					}
				}
				if len(c.Load.Tenants) != 2 {
					t.Errorf("load tenants = %+v, want the t0/t1 mix", c.Load.Tenants)
				}
			}},
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(fixtures) {
		t.Errorf("testdata holds %d fleet files, the table %d: every fixture needs a row", len(paths), len(fixtures))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			f, ok := fixtures[name]
			if !ok {
				t.Fatal("no row for this fixture")
			}
			c, err := loadConfig(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.Mode() != f.mode {
				t.Fatalf("resolves to mode %v, want %v", c.Mode(), f.mode)
			}
			var backends []*dlis.FleetConfig
			for _, b := range f.backends {
				bc, err := loadConfig(filepath.Join("testdata", b))
				if err != nil {
					t.Fatal(err)
				}
				backends = append(backends, bc)
			}
			if f.backends != nil {
				addrs := []string{c.Load.Connect}
				if c.Cluster != nil {
					addrs = c.Cluster.Members
				}
				if len(addrs) != len(backends) {
					t.Fatalf("dials %v, want one address per backend fixture %v", addrs, f.backends)
				}
				for i, b := range backends {
					if !slices.ContainsFunc(addrs, func(a string) bool { return dials(a, b) }) {
						t.Errorf("no address of %v dials backend %s (listen=%q muxListen=%q)",
							addrs, f.backends[i], b.Server.Listen, b.Server.MuxListen)
					}
					hosted := hostedNames(t, b)
					for _, target := range c.Load.Targets {
						if !hosted[target] {
							t.Errorf("backend %s does not host target %q", f.backends[i], target)
						}
					}
				}
			}
			if f.check != nil {
				f.check(t, c, backends)
			}
		})
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
	cfg := filepath.Join(t.TempDir(), "fleet.json")
	fleet := fmt.Sprintf(`{
  "server": {"tunerCache": %q},
  "pool": {"replicas": 1, "batch": 4},
  "models": [{"kind": "mini-vgg", "autoAlgo": true}],
  "load": {"clients": 4, "requests": 32}
}`, tc)
	if err := os.WriteFile(cfg, []byte(fleet), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-config", cfg}
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
