package jobs_test

import (
	"bytes"
	"fmt"
	"testing"

	"aaws/internal/jobs"
)

// TestCacheTenantEntryQuota checks per-tenant entry budgets: a tenant past
// its quota evicts its own LRU tail; other tenants' entries are untouched.
func TestCacheTenantEntryQuota(t *testing.T) {
	c, err := jobs.NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuotas(0, 2)

	c.PutOwned("v1", []byte("victim-1"), "victim")
	c.PutOwned("v2", []byte("victim-2"), "victim")
	for i := 0; i < 10; i++ {
		c.PutOwned(fmt.Sprintf("f%d", i), []byte("flood"), "flood")
	}

	// The flood holds only its own 2 newest entries...
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(fmt.Sprintf("f%d", i)); ok {
			t.Fatalf("flood entry f%d survived past its tenant quota", i)
		}
	}
	for i := 8; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("f%d", i)); !ok {
			t.Fatalf("flood entry f%d within quota was evicted", i)
		}
	}
	// ...and the victim's entries are untouched.
	for _, k := range []string{"v1", "v2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("victim entry %s evicted by another tenant's flood", k)
		}
	}

	s := c.Stats()
	if s.TenantEvictions != 8 {
		t.Fatalf("TenantEvictions = %d, want 8", s.TenantEvictions)
	}
	if got := s.PerTenant["flood"]; got.Entries != 2 {
		t.Fatalf("flood owns %d entries, want 2", got.Entries)
	}
	if got := s.PerTenant["victim"]; got.Entries != 2 {
		t.Fatalf("victim owns %d entries, want 2", got.Entries)
	}
}

// TestCacheTenantByteQuota checks the byte budget, including the edge case
// of a single entry larger than the whole budget (stored, then immediately
// evicted — the quota is a bound, not a minimum grant).
func TestCacheTenantByteQuota(t *testing.T) {
	c, err := jobs.NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuotas(10, 0)

	c.PutOwned("a", []byte("12345"), "ten") // 5 bytes
	c.PutOwned("b", []byte("1234"), "ten")  // 9 bytes total
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry a evicted while tenant under byte quota")
	}
	c.PutOwned("big", bytes.Repeat([]byte("x"), 8), "ten") // 17 > 10: evict LRU tail(s)
	if _, ok := c.Get("big"); !ok {
		t.Fatal("newest entry evicted instead of the tenant's LRU tail")
	}
	if got := c.Stats().PerTenant["ten"].Bytes; got > 10 {
		t.Fatalf("tenant holds %d bytes, quota 10", got)
	}

	// An entry alone bigger than the quota cannot be held at all.
	c.PutOwned("huge", bytes.Repeat([]byte("y"), 64), "ten")
	if _, ok := c.Get("huge"); ok {
		t.Fatal("entry larger than the tenant byte quota was retained")
	}
}

// TestCacheUnownedExemptFromQuotas checks that unowned entries (plain Put,
// disk promotions) are not charged to any tenant and never quota-evicted.
func TestCacheUnownedExemptFromQuotas(t *testing.T) {
	c, err := jobs.NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuotas(0, 1)

	c.Put("shared1", []byte("S1"))
	c.Put("shared2", []byte("S2"))
	c.PutOwned("t1", []byte("T1"), "ten")
	c.PutOwned("t2", []byte("T2"), "ten") // evicts t1 (tenant quota 1)

	if _, ok := c.Get("t1"); ok {
		t.Fatal("t1 survived past tenant entry quota 1")
	}
	for _, k := range []string{"shared1", "shared2", "t2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s missing", k)
		}
	}
	if s := c.Stats(); s.PerTenant["ten"].Entries != 1 {
		t.Fatalf("tenant owns %d entries, want 1", s.PerTenant["ten"].Entries)
	}
}

// TestCacheGlobalLRUAcrossTenants checks that the overall capacity bound
// still evicts globally (least recently used regardless of owner) once every
// tenant is within its own quota.
func TestCacheGlobalLRUAcrossTenants(t *testing.T) {
	c, err := jobs.NewCache(3, "")
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuotas(0, 10)

	c.PutOwned("a1", []byte("A"), "alice")
	c.PutOwned("b1", []byte("B"), "bob")
	c.PutOwned("a2", []byte("A"), "alice")
	c.PutOwned("b2", []byte("B"), "bob") // capacity 3: evicts a1 (global LRU)

	if _, ok := c.Get("a1"); ok {
		t.Fatal("global LRU tail a1 survived past capacity")
	}
	for _, k := range []string{"b1", "a2", "b2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s missing", k)
		}
	}
	s := c.Stats()
	if s.PerTenant["alice"].Entries != 1 || s.PerTenant["bob"].Entries != 2 {
		t.Fatalf("per-tenant entries alice/bob = %d/%d, want 1/2",
			s.PerTenant["alice"].Entries, s.PerTenant["bob"].Entries)
	}
}

// TestCachePutOwnedClaimsUnownedEntry: an entry stored unowned first — a
// fabric result or worker fill landing in the shared tier before the job's
// own store — is charged to the tenant whose job then stores it, so that
// tenant's quota evicts it and nobody else's entries; the repeated store
// writes nothing more to disk.
func TestCachePutOwnedClaimsUnownedEntry(t *testing.T) {
	fs := &failingFS{}
	c, err := jobs.NewCacheWith(100, t.TempDir(), fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTenantQuotas(0, 2)

	c.PutOwned("v1", []byte("victim-1"), "victim")
	c.PutOwned("v2", []byte("victim-2"), "victim")
	for i := 0; i < 10; i++ {
		key, data := fmt.Sprintf("f%d", i), []byte(fmt.Sprintf("flood-%d", i))
		c.Put(key, data)
		before := fs.calls
		c.PutOwned(key, data, "flood")
		if fs.calls != before {
			t.Fatalf("re-storing %s touched the disk %d more times", key, fs.calls-before)
		}
	}

	s := c.Stats()
	if got := s.PerTenant["flood"].Entries; got != 2 {
		t.Fatalf("flood owns %d entries, want 2 (its quota)", got)
	}
	if s.TenantEvictions != 8 {
		t.Fatalf("TenantEvictions = %d, want 8", s.TenantEvictions)
	}
	for _, k := range []string{"v1", "v2", "f8", "f9"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted", k)
		}
	}
}
