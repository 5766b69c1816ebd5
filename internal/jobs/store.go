package jobs

import "sync"

// This file defines the result-cache seam the executor runs against:
// anything satisfying CacheTier can stand in for the local memory+disk
// *Cache (cache.go), such as a remote tier or the TieredCache composite.

// CacheTier is a content-addressed result store: keys are spec hashes
// (SpecHash), values are canonical outcome bytes (CanonicalJSON of Outcome).
// Implementations must be safe for concurrent use. *Cache is the local
// memory+disk tier; TieredCache layers a shared remote tier beneath it.
type CacheTier interface {
	// Get returns the stored bytes for key, if present.
	Get(key string) ([]byte, bool)
	// Put stores unowned data (exempt from tenant quotas).
	Put(key string, data []byte)
	// PutOwned stores data charged against tenant's quota ("" = unowned).
	PutOwned(key string, data []byte, tenant string)
	// Stats reports effectiveness counters for /metrics.
	Stats() CacheStats
}

// The concrete implementations must keep satisfying the seam.
var (
	_ CacheTier = (*Cache)(nil)
	_ CacheTier = (*TieredCache)(nil)
)

// RemoteTierStats reports the remote tier's contribution inside a
// TieredCache's Stats snapshot.
type RemoteTierStats struct {
	Hits   uint64
	Misses uint64
	// Errors counts remote-tier transport failures (reported by remote
	// implementations that track them; treated as misses for lookups).
	Errors uint64
}

// tierErrorCounter is optionally implemented by remote tiers that track
// transport failures (e.g. fabric.RemoteCache).
type tierErrorCounter interface {
	TierErrors() uint64
}

// TieredCache composes a local CacheTier over a remote one: lookups consult
// the local tier first, then the remote tier (promoting remote hits into the
// local tier), and stores write through to both. It is how a fabric worker
// consults the coordinator's shared result tier before computing locally.
type TieredCache struct {
	local  CacheTier
	remote CacheTier

	mu           sync.Mutex
	remoteHits   uint64
	remoteMisses uint64
}

// NewTieredCache layers local over remote. Both must be non-nil.
func NewTieredCache(local, remote CacheTier) *TieredCache {
	if local == nil || remote == nil {
		panic("jobs: NewTieredCache requires both tiers")
	}
	return &TieredCache{local: local, remote: remote}
}

// Get checks the local tier, then the remote tier; a remote hit is promoted
// into the local tier so repeats stay node-local.
func (t *TieredCache) Get(key string) ([]byte, bool) {
	if data, ok := t.local.Get(key); ok {
		return data, true
	}
	data, ok := t.remote.Get(key)
	t.mu.Lock()
	if ok {
		t.remoteHits++
	} else {
		t.remoteMisses++
	}
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	t.local.Put(key, data)
	return data, true
}

// Put writes through to both tiers.
func (t *TieredCache) Put(key string, data []byte) {
	t.local.Put(key, data)
	t.remote.Put(key, data)
}

// PutOwned charges the local tier's tenant quota; the remote tier is shared
// infrastructure and stores the entry unowned.
func (t *TieredCache) PutOwned(key string, data []byte, tenant string) {
	t.local.PutOwned(key, data, tenant)
	t.remote.Put(key, data)
}

// Stats returns the local tier's snapshot with the remote tier's
// contribution attached.
func (t *TieredCache) Stats() CacheStats {
	s := t.local.Stats()
	t.mu.Lock()
	rs := RemoteTierStats{Hits: t.remoteHits, Misses: t.remoteMisses}
	t.mu.Unlock()
	if ec, ok := t.remote.(tierErrorCounter); ok {
		rs.Errors = ec.TierErrors()
	}
	s.Remote = &rs
	return s
}
