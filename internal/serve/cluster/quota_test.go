package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestQuotaNeverCrossRetried pins the quota/overload distinction at
// the fleet tier: a per-tenant quota rejection is about the tenant's
// budget — spent everywhere — not about one member's queue, so the
// cluster must surface it immediately: no second member tried, no shed
// counted, no ejection. The same fleet then proves an overload from
// the same member IS retried elsewhere, so the test discriminates the
// two 429-class errors rather than observing a generically
// short-circuited path.
func TestQuotaNeverCrossRetried(t *testing.T) {
	// The quota-limited member advertises the lower queue depth, so p2c
	// deterministically places on it first; any (wrong) retry would land
	// on b and be visible in b.inferred.
	a := newFakeBackend(0, "m")
	b := newFakeBackend(5, "m")
	a.set(func(f *fakeBackend) {
		f.inferErr = &serve.QuotaError{Tenant: "capped", Resource: "requests", RetryAfter: 25 * time.Millisecond}
	})
	c, err := New([]Member{{Name: "a", Client: a}, {Name: "b", Client: b}}, noProber)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	req := testReq("m")
	req.Tenant = "capped"
	_, err = c.InferSync(ctx, req)
	if !errors.Is(err, serve.ErrQuotaExceeded) {
		t.Fatalf("quota-limited placement: err = %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, serve.ErrOverloaded) {
		t.Fatal("quota rejection matches ErrOverloaded through the cluster")
	}
	var qe *serve.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("surfaced error is %T, want *QuotaError", err)
	}
	if qe.Tenant != "capped" || qe.RetryAfter != 25*time.Millisecond {
		t.Fatalf("QuotaError mutated in transit: %+v", qe)
	}
	if got := b.inferred.Load(); got != 0 {
		t.Fatalf("second member tried %d times after a quota rejection, want 0", got)
	}
	snap := c.Snapshot()
	if snap.OverloadRetries != 0 || snap.Shed != 0 || snap.Failovers != 0 {
		t.Fatalf("quota rejection perturbed fleet counters: %+v", snap)
	}
	for _, name := range []string{"a", "b"} {
		if ms := memberStats(t, c, name); !ms.Healthy {
			t.Fatalf("member %s ejected by a tenant's spent budget", name)
		}
	}

	// Same fleet, same member, overload instead: now the retry fires.
	a.set(func(f *fakeBackend) {
		f.inferErr = &serve.OverloadedError{Stack: "m", RetryAfter: 25 * time.Millisecond}
	})
	if _, err := c.InferSync(ctx, req); err != nil {
		t.Fatalf("overload failover: %v", err)
	}
	if got := b.inferred.Load(); got != 1 {
		t.Fatalf("overload retry served by b %d times, want 1", got)
	}
}
