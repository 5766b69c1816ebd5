package jobs

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DiskFS is the filesystem surface the cache's on-disk store uses. The
// indirection exists for fault injection: tests substitute a failing
// implementation to drive the disk circuit breaker.
type DiskFS interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Cache is a content-addressed result store: spec-hash → canonical result
// bytes. Entries live in a bounded in-memory LRU, optionally backed by an
// on-disk store (one file per hash) that survives restarts and overflows
// the memory bound. Disk I/O runs behind a circuit breaker: repeated I/O
// errors trip it open and the cache degrades to memory-only (no disk reads
// or writes, no error latency) until a half-open probe succeeds — a flaky
// disk slows nothing and fails nothing.
//
// Multi-tenant quotas: entries stored via PutOwned are charged to the
// storing tenant, and SetTenantQuotas bounds each tenant's share in bytes
// and entries. When a tenant exceeds its budget, *its own* least recently
// used entries are evicted first — one tenant's cache-miss flood cannot
// evict everyone else's hot entries. Lookups stay global (content addressing
// makes a hit on another tenant's entry equally correct), and the overall
// capacity is still enforced by a global LRU across tenants. All methods are
// safe for concurrent use.
type Cache struct {
	mu               sync.Mutex
	capacity         int
	ll               *list.List             // global LRU; front = most recently used
	items            map[string]*cacheEntry // hash → entry
	tenants          map[string]*cacheTenant
	tenantMaxBytes   int64  // 0 = unlimited
	tenantMaxEntries int    // 0 = unlimited
	dir              string // "" = memory only
	fs               DiskFS
	breaker          *Breaker

	hits, misses, evictions, tenantEvictions, diskHits, diskErrors uint64
}

type cacheEntry struct {
	key    string
	data   []byte
	tenant string        // owning tenant ("" = unowned; exempt from quotas)
	gel    *list.Element // position in the global LRU
	tel    *list.Element // position in the owner's LRU (nil when unowned)
}

// cacheTenant tracks one tenant's owned slice of the cache.
type cacheTenant struct {
	ll    *list.List // tenant-local LRU; front = most recently used
	bytes int64
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// TenantEvictions counts evictions forced by a tenant's own quota
	// (also included in Evictions).
	TenantEvictions uint64
	DiskHits        uint64
	DiskErrors      uint64
	Breaker         BreakerStats
	// PerTenant is each tenant's owned share of the in-memory LRU.
	PerTenant map[string]TenantCacheStats
	// Remote is the remote tier's contribution when the snapshot comes from
	// a TieredCache (nil for a plain local cache).
	Remote *RemoteTierStats
}

// TenantCacheStats is one tenant's owned cache footprint.
type TenantCacheStats struct {
	Entries int
	Bytes   int64
}

// NewCache returns a cache holding up to capacity entries in memory
// (minimum 1). If dir is non-empty it is created and every stored entry is
// also written there as <hash>.json; lookups that miss memory fall back to
// disk and promote the entry back into the LRU.
func NewCache(capacity int, dir string) (*Cache, error) {
	return NewCacheWith(capacity, dir, nil, nil)
}

// NewCacheWith is NewCache with an injectable disk filesystem and breaker
// (nil = the real filesystem and a default breaker). The breaker is unused
// when dir is empty.
func NewCacheWith(capacity int, dir string, fs DiskFS, breaker *Breaker) (*Cache, error) {
	if capacity < 1 {
		capacity = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: cache dir: %w", err)
		}
	}
	if fs == nil {
		fs = osFS{}
	}
	if breaker == nil {
		breaker = NewBreaker(BreakerConfig{})
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*cacheEntry),
		tenants:  make(map[string]*cacheTenant),
		dir:      dir,
		fs:       fs,
		breaker:  breaker,
	}, nil
}

// SetTenantQuotas bounds each tenant's owned share of the in-memory cache:
// maxBytes of stored result bytes and maxEntries entries (0 = unlimited).
// Entries past a budget evict that tenant's own LRU entries; other tenants
// are untouched. Applies to entries stored after the call.
func (c *Cache) SetTenantQuotas(maxBytes int64, maxEntries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenantMaxBytes = maxBytes
	c.tenantMaxEntries = maxEntries
}

// Get returns the cached bytes for key, or (nil, false). Callers must not
// mutate the returned slice — it is the canonical artifact shared by every
// hit.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.touchLocked(e)
		c.hits++
		return e.data, true
	}
	if c.dir != "" && c.breaker.Allow() {
		data, err := c.fs.ReadFile(c.path(key))
		switch {
		case err == nil:
			c.breaker.Success()
			c.hits++
			c.diskHits++
			// Disk promotions are unowned: the reading tenant is unknown
			// here and content-addressed bytes belong to no one.
			c.putLocked(key, data, "", false)
			return data, true
		case os.IsNotExist(err):
			c.breaker.Success() // a clean miss is a healthy disk
		default:
			c.breaker.Failure()
			c.diskErrors++
		}
	}
	c.misses++
	return nil, false
}

// touchLocked promotes an entry to most-recently-used in both LRUs.
func (c *Cache) touchLocked(e *cacheEntry) {
	c.ll.MoveToFront(e.gel)
	if e.tel != nil {
		c.tenants[e.tenant].ll.MoveToFront(e.tel)
	}
}

// Put stores data under key unowned (exempt from tenant quotas), evicting
// the least recently used in-memory entry past capacity. The disk copy
// (when configured and the breaker is closed) is written via a temp-file
// rename so readers never observe a torn artifact.
func (c *Cache) Put(key string, data []byte) {
	c.PutOwned(key, data, "")
}

// PutOwned is Put with the stored bytes charged to tenant's quota (an
// existing unowned entry for key becomes tenant's). If the write pushes the
// tenant past its byte or entry budget, the tenant's own least recently used
// entries are evicted first; the global LRU bound then applies across
// tenants.
func (c *Cache) PutOwned(key string, data []byte, tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, data, tenant, true)
}

func (c *Cache) putLocked(key string, data []byte, tenant string, persist bool) {
	if e, ok := c.items[key]; ok {
		c.touchLocked(e)
		// Content addressing: the same bytes under the same key are already
		// stored (and on disk, if they were written or promoted from there).
		persist = persist && !bytes.Equal(e.data, data)
		if e.tel != nil {
			c.tenants[e.tenant].bytes += int64(len(data)) - int64(len(e.data))
		}
		e.data = data
		if e.tel == nil && tenant != "" {
			// An unowned entry — a fill from the fabric or a worker, or a
			// disk promotion — is charged to the first tenant that stores
			// it, so a result that lands in the shared tier before its
			// job completes still counts against that tenant's quota.
			c.chargeLocked(e, tenant)
		}
	} else {
		e := &cacheEntry{key: key, data: data}
		e.gel = c.ll.PushFront(e)
		c.items[key] = e
		if tenant != "" {
			c.chargeLocked(e, tenant)
		}
		for c.ll.Len() > c.capacity {
			c.removeLocked(c.ll.Back().Value.(*cacheEntry))
			c.evictions++
		}
	}
	if persist && c.dir != "" && c.breaker.Allow() {
		tmp := c.path(key) + ".tmp"
		err := c.fs.WriteFile(tmp, data, 0o644)
		if err == nil {
			err = c.fs.Rename(tmp, c.path(key))
		}
		if err == nil {
			c.breaker.Success()
		} else {
			c.breaker.Failure()
			c.diskErrors++
		}
	}
}

// chargeLocked makes tenant the owner of the unowned entry e and enforces
// the tenant's quota: past its budget the owner's own LRU tail is evicted —
// possibly e itself, if it alone exceeds the byte budget.
func (c *Cache) chargeLocked(e *cacheEntry, tenant string) {
	t := c.tenants[tenant]
	if t == nil {
		t = &cacheTenant{ll: list.New()}
		c.tenants[tenant] = t
	}
	e.tenant = tenant
	e.tel = t.ll.PushFront(e)
	t.bytes += int64(len(e.data))
	for (c.tenantMaxEntries > 0 && t.ll.Len() > c.tenantMaxEntries) ||
		(c.tenantMaxBytes > 0 && t.bytes > c.tenantMaxBytes) {
		c.removeLocked(t.ll.Back().Value.(*cacheEntry))
		c.tenantEvictions++
		c.evictions++
	}
}

// removeLocked detaches an entry from the item map and both LRUs, dropping
// the owner's accounting (and the owner itself once empty).
func (c *Cache) removeLocked(e *cacheEntry) {
	c.ll.Remove(e.gel)
	delete(c.items, e.key)
	if e.tel != nil {
		t := c.tenants[e.tenant]
		t.ll.Remove(e.tel)
		t.bytes -= int64(len(e.data))
		if t.ll.Len() == 0 {
			delete(c.tenants, e.tenant)
		}
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:         c.ll.Len(),
		Capacity:        c.capacity,
		Hits:            c.hits,
		Misses:          c.misses,
		Evictions:       c.evictions,
		TenantEvictions: c.tenantEvictions,
		DiskHits:        c.diskHits,
		DiskErrors:      c.diskErrors,
	}
	if len(c.tenants) > 0 {
		s.PerTenant = make(map[string]TenantCacheStats, len(c.tenants))
		for name, t := range c.tenants {
			s.PerTenant[name] = TenantCacheStats{Entries: t.ll.Len(), Bytes: t.bytes}
		}
	}
	if c.dir != "" {
		s.Breaker = c.breaker.Stats()
	}
	return s
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}
