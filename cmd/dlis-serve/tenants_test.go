package main

import (
	"os"
	"path/filepath"
	"testing"

	dlis "repro"
)

// TestSplitByWeight: proportional integer shares, round-robin
// remainder, and the one-per-tenant floor.
func TestSplitByWeight(t *testing.T) {
	mix := []tenantMix{{"t0", 10}, {"t1", 1}}
	if got := splitByWeight(11, mix); got[0] != 10 || got[1] != 1 {
		t.Fatalf("splitByWeight(11, 10:1) = %v, want [10 1]", got)
	}
	if got := splitByWeight(220, mix); got[0] != 200 || got[1] != 20 {
		t.Fatalf("splitByWeight(220, 10:1) = %v, want [200 20]", got)
	}
	// Remainder lands deterministically, preserving the total.
	if got := splitByWeight(10, []tenantMix{{"t0", 1}, {"t1", 1}, {"t2", 1}}); got[0]+got[1]+got[2] != 10 {
		t.Fatalf("splitByWeight(10, 1:1:1) = %v, want sum 10", got)
	}
	// The floor guarantees participation even when the share rounds to
	// zero — the sum may exceed the total, never strand a tenant.
	if got := splitByWeight(2, []tenantMix{{"t0", 100}, {"t1", 1}}); got[1] != 1 {
		t.Fatalf("splitByWeight(2, 100:1) = %v, want a floor of 1 for t1", got)
	}
}

// TestTenantFixtureBootsTheFairnessSmoke validates the committed CI
// fixture through the same pipeline main() runs: a listen-mode backend
// hosting mini-vgg/plain with a quota-capped hot tenant and an
// uncapped background tenant — the determinism the fairness smoke's
// grep assertions lean on.
func TestTenantFixtureBootsTheFairnessSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fleet-tenants.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dlis.ParseFleetConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := cfg.Resolve()
	if r.Mode() != dlis.FleetModeListen {
		t.Fatalf("fixture resolves to mode %v, want listen", r.Mode())
	}
	scfg, err := r.ServerConfig()
	if err != nil {
		t.Fatal(err)
	}
	hosted := map[string]bool{}
	for _, s := range scfg.Stacks {
		hosted[s.Key()] = true
	}
	if !hosted["mini-vgg/plain"] {
		t.Fatalf("fixture does not host mini-vgg/plain (stacks %v)", scfg.Stacks)
	}
	hot, ok := scfg.Tenants.Tenants["t0"]
	if !ok || hot.Weight != 10 || hot.RequestsPerSec != 5 {
		t.Fatalf("hot tenant spec = %+v, want weight=10 rps=5 (the smoke asserts quota>0 on it)", hot)
	}
	bg, ok := scfg.Tenants.Tenants["t1"]
	if !ok || bg.Weight != 1 || bg.RequestsPerSec != 0 {
		t.Fatalf("background tenant spec = %+v, want weight=1 and no quota (the smoke asserts its full budget is served)", bg)
	}
	if scfg.Tenants.UsageFile == "" {
		t.Fatal("fixture has no usage file; the smoke asserts the drained backend persisted the ledger")
	}
}
