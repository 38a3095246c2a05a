package tenant

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestValidateID(t *testing.T) {
	valid := []string{"", "alpha", "team-7", "a b c", strings.Repeat("x", MaxIDLen)}
	for _, id := range valid {
		if err := ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	invalid := []string{
		strings.Repeat("x", MaxIDLen+1),
		"line\nbreak",
		"tab\there",
		"bell\x07",
		"del\x7f",
	}
	for _, id := range invalid {
		if err := ValidateID(id); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", id)
		}
	}
}

func TestQuotaErrorIsDistinctFromOverload(t *testing.T) {
	var err error = &QuotaError{Tenant: "t0", Resource: "requests", RetryAfter: time.Second}
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatal("QuotaError does not match ErrQuotaExceeded")
	}
	// Any other sentinel must NOT match: quota verdicts are
	// tenant-scoped and must never take overload-retry paths.
	other := errors.New("serve: overloaded")
	if errors.Is(err, other) {
		t.Fatal("QuotaError matched a foreign sentinel")
	}
}

func TestAdmitRequestQuota(t *testing.T) {
	m, err := NewMeter(Config{
		// One-hour window so the budget cannot refill mid-test: the
		// budget is RequestsPerSec × window = 3 requests.
		Window:  time.Hour,
		Tenants: map[string]Spec{"limited": {RequestsPerSec: 3.0 / 3600.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if err := m.Admit("limited"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err = m.Admit("limited")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("4th admit = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "limited" || qe.Resource != "requests" {
		t.Fatalf("unexpected quota error detail: %+v", qe)
	}
	if qe.RetryAfter <= 0 || qe.RetryAfter > time.Hour {
		t.Fatalf("RetryAfter = %v, want within the window", qe.RetryAfter)
	}
	// Unlimited tenants sail through.
	for i := 0; i < 100; i++ {
		if err := m.Admit("free"); err != nil {
			t.Fatalf("unlimited tenant rejected: %v", err)
		}
	}
	if got := m.Snapshot()["limited"].QuotaRejected; got != 1 {
		t.Fatalf("QuotaRejected = %d, want 1", got)
	}
}

func TestAdmitModelSecondsQuota(t *testing.T) {
	m, err := NewMeter(Config{
		Window:  time.Hour,
		Tenants: map[string]Spec{"gpuhog": {ModelSecondsPerWindow: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Admit("gpuhog"); err != nil {
		t.Fatalf("admit under budget: %v", err)
	}
	m.ChargeModelSeconds("gpuhog", 0.6)
	err = m.Admit("gpuhog")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("admit over model-seconds budget = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "model-seconds" {
		t.Fatalf("unexpected resource: %+v", qe)
	}
}

func TestWindowRollRefills(t *testing.T) {
	m, err := NewMeter(Config{
		Window:  10 * time.Millisecond,
		Tenants: map[string]Spec{"t": {RequestsPerSec: 100}}, // 1 request per 10ms window
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Admit("t"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := m.Admit("t"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second admit in window = %v, want quota", err)
	}
	// After the window turns over the bucket refills.
	deadline := time.Now().Add(time.Second)
	for {
		if err := m.Admit("t"); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled after window roll")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWeightDefaults(t *testing.T) {
	m, err := NewMeter(Config{Tenants: map[string]Spec{
		"heavy": {Weight: 8},
		"zero":  {Weight: 0}, // resolves to 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if w := m.Weight("heavy"); w != 8 {
		t.Fatalf("Weight(heavy) = %d, want 8", w)
	}
	if w := m.Weight("zero"); w != 1 {
		t.Fatalf("Weight(zero) = %d, want 1", w)
	}
	if w := m.Weight("unknown"); w != 1 {
		t.Fatalf("Weight(unknown) = %d, want 1", w)
	}
	if w := m.Weight(""); w != 1 {
		t.Fatalf("Weight(anonymous) = %d, want 1", w)
	}
}

func TestNewMeterRejectsBadConfigID(t *testing.T) {
	if _, err := NewMeter(Config{Tenants: map[string]Spec{"bad\nid": {}}}); err == nil {
		t.Fatal("NewMeter accepted a control-character tenant ID")
	}
}

func TestUsagePersistenceRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "usage.json")

	m1, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	m1.RecordAdmitted("alice", 4)
	m1.RecordAdmitted("alice", 2)
	m1.RecordShed("alice")
	m1.ChargeModelSeconds("alice", 0.25)
	m1.RecordAdmitted("bob", 1)
	if err := m1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Cold boot restores, and new traffic accumulates on top.
	m2, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	snap := m2.Snapshot()
	a := snap["alice"]
	if a.Requests != 2 || a.Images != 6 || a.Shed != 1 {
		t.Fatalf("restored alice = %+v, want 2 requests / 6 images / 1 shed", a)
	}
	if a.ModelSeconds < 0.24 || a.ModelSeconds > 0.26 {
		t.Fatalf("restored alice model-seconds = %v, want ≈0.25", a.ModelSeconds)
	}
	m2.RecordAdmitted("alice", 1)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Counters stay monotone across the second restart.
	m3, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if got := m3.Snapshot()["alice"].Requests; got != 3 {
		t.Fatalf("alice requests after two restarts = %d, want 3", got)
	}
	if got := m3.Snapshot()["bob"].Requests; got != 1 {
		t.Fatalf("bob requests = %d, want 1", got)
	}
}

func TestUsageFileMergeKeepsForeignTenants(t *testing.T) {
	file := filepath.Join(t.TempDir(), "usage.json")
	seed := `{"version":1,"tenants":{"legacy":{"requests":7,"images":7}}}`
	if err := os.WriteFile(file, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	m.RecordAdmitted("fresh", 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, ok := readUsageFile(file)
	if !ok {
		t.Fatal("saved file unreadable")
	}
	if f.Tenants["legacy"].Requests != 7 {
		t.Fatalf("legacy tenant lost in merge: %+v", f.Tenants)
	}
	if f.Tenants["fresh"].Requests != 1 {
		t.Fatalf("fresh tenant missing: %+v", f.Tenants)
	}
}

// TestMeterConcurrentSaveMerges simulates two servers sharing one
// usage file: each meters a disjoint tenant; after both save at once,
// the file must hold both — the directory lock spans each saver's
// read→merge→rename, so neither rename drops the other's tenant.
func TestMeterConcurrentSaveMerges(t *testing.T) {
	file := filepath.Join(t.TempDir(), "usage.json")
	a, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	a.RecordAdmitted("alice", 1)
	b.RecordAdmitted("bob", 2)
	var wg sync.WaitGroup
	for _, m := range []*Meter{a, b} {
		wg.Add(1)
		go func(m *Meter) {
			defer wg.Done()
			if _, err := m.Save(); err != nil {
				t.Error(err)
			}
		}(m)
	}
	wg.Wait()
	f, ok := readUsageFile(file)
	if !ok {
		t.Fatal("saved file unreadable")
	}
	if f.Tenants["alice"].Images != 1 || f.Tenants["bob"].Images != 2 {
		t.Fatalf("merged usage = %+v, want alice and bob", f.Tenants)
	}
}

func TestCorruptUsageFileDegradesToEmpty(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json": "{not json",
		"version.json": `{"version":99,"tenants":{"x":{"requests":5}}}`,
		"null.json":    `{"version":1}`,
	}
	for name, content := range cases {
		file := filepath.Join(dir, name)
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
		if err != nil {
			t.Fatalf("%s: NewMeter = %v, want clean degrade", name, err)
		}
		if u := m.Snapshot()["x"]; u.Requests != 0 {
			t.Fatalf("%s: restored usage from a defective file: %+v", name, u)
		}
		// And the defective file is replaced wholesale on save.
		m.RecordAdmitted("y", 1)
		if err := m.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if f, ok := readUsageFile(file); !ok || f.Tenants["y"].Requests != 1 {
			t.Fatalf("%s: save over defective file failed: %+v ok=%v", name, f, ok)
		}
	}
}

func TestSaveIsDirtyGated(t *testing.T) {
	file := filepath.Join(t.TempDir(), "usage.json")
	m, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if wrote, err := m.Save(); err != nil || wrote {
		t.Fatalf("clean save wrote=%v err=%v, want no-op", wrote, err)
	}
	m.RecordAdmitted("t", 1)
	if wrote, err := m.Save(); err != nil || !wrote {
		t.Fatalf("dirty save wrote=%v err=%v, want write", wrote, err)
	}
	if wrote, _ := m.Save(); wrote {
		t.Fatal("second save after no traffic wrote again")
	}
}

// TestFailedSaveStaysDirty pins the autosaver's retry: a save that
// fails (here the usage directory cannot be created because a plain
// file is in the way) must leave the meter dirty, so the next save
// writes the usage once the path is usable again.
func TestFailedSaveStaysDirty(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(blocker, "usage.json")
	m, err := NewMeter(Config{UsageFile: file, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	m.RecordAdmitted("t", 1)
	if wrote, err := m.Save(); err == nil || wrote {
		t.Fatalf("save under a plain file wrote=%v err=%v, want an error", wrote, err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if wrote, err := m.Save(); err != nil || !wrote {
		t.Fatalf("retry after a failed save wrote=%v err=%v, want write", wrote, err)
	}
	if f, ok := readUsageFile(file); !ok || f.Tenants["t"].Requests != 1 {
		t.Fatalf("retried save left %+v ok=%v", f, ok)
	}
}

func TestRecordPathsAllocationFree(t *testing.T) {
	m, err := NewMeter(Config{Tenants: map[string]Spec{"hot": {Weight: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.RecordAdmitted("hot", 1) // warm the slot
	allocs := testing.AllocsPerRun(200, func() {
		m.RecordAdmitted("hot", 4)
		m.ChargeModelSeconds("hot", 0.001)
		_ = m.Weight("hot")
	})
	if allocs != 0 {
		t.Fatalf("steady-state metering allocates %.1f per run, want 0", allocs)
	}
}
