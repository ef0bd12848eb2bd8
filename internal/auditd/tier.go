package auditd

// The result-tier seam: completed results live in a chain of content-
// addressed tiers probed in order — the in-memory LRU first, then the disk
// store, then any extra tiers the embedder configured (a clustered node adds
// a peer-cache tier that asks the key's hash owner). Every tier serves the
// same (key → result) contract, so composing them is just a slice.

import (
	"sync"

	"indaas/internal/report"
)

// ResultTier is one layer of the content-addressed result hierarchy.
// Implementations synchronize themselves; the server calls them without its
// job-table lock held (except the first, memory tier, whose calls may come
// from under it — Get/Put/Remove must therefore never block on IO for the
// memory tier, and lower tiers are only ever probed with the lock released).
type ResultTier interface {
	// Name identifies the tier ("memory", "disk", "peer") for attribution:
	// the server counts a hit against the right metric by name.
	Name() string
	// Get returns the result stored under key, if any.
	Get(key string) (any, bool)
	// Put stores a completed result, returning the keys the tier evicted to
	// make room (mirrored out of the memory tier by the caller). Read-only
	// tiers no-op.
	Put(key string, res any) (evicted []string)
	// Remove drops the key if present (used to mirror lower-tier evictions).
	Remove(key string)
}

// tierDisk is the disk tier's Name; enqueue uses it to attribute a
// lower-tier hit to auditd_store_hits_total and JobStatus.DiskHit.
const tierDisk = "disk"

// memoryTier is the first tier: the LRU result cache behind its own lock, so
// reads that used to require the server's job-table lock (delta planning,
// /v1/cache) can run against the tier directly.
//
// Audit reports dominate a daemon's live heap (every retained job keeps
// one too), so the tier retains them as *report.Packed. Packing is decided
// here and nowhere else: Get serves the unpacked form like every other
// tier, and only the paths that hand a result to jobs (store, adopt, peek)
// see the retained form, which Server.Result unpacks.
type memoryTier struct {
	mu  sync.Mutex
	lru *resultCache
}

func newMemoryTier(capacity int) *memoryTier {
	return &memoryTier{lru: newResultCache(capacity)}
}

func (t *memoryTier) Name() string { return "memory" }

func (t *memoryTier) Get(key string) (any, bool) {
	res, ok := t.peek(key)
	return unpackResult(res), ok
}

// peek returns the retained form under key, without unpacking.
func (t *memoryTier) peek(key string) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.get(key)
}

func (t *memoryTier) Put(key string, res any) []string {
	t.store(key, res)
	return nil
}

// store retains res under key and returns the retained form, which jobs
// settled with this result share.
func (t *memoryTier) store(key string, res any) any {
	if rep, ok := res.(*report.Report); ok {
		res = report.Pack(rep)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lru.put(key, res)
	return res
}

// adopt stores under key the result retained under ancestor, shared rather
// than packed again, so every generation a delta hit adopts costs one cache
// entry, not one report. res is that result as read from the tiers; it is
// packed afresh only when ancestor has left the memory tier.
func (t *memoryTier) adopt(key, ancestor string, res any) any {
	t.mu.Lock()
	kept, ok := t.lru.get(ancestor)
	if ok {
		t.lru.put(key, kept)
	}
	t.mu.Unlock()
	if ok {
		return kept
	}
	return t.store(key, res)
}

// unpackResult turns a retained result back into its served form.
func unpackResult(res any) any {
	if p, ok := res.(*report.Packed); ok {
		return p.Unpack()
	}
	return res
}

func (t *memoryTier) Remove(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lru.remove(key)
}

// Len reports live entries (the auditd_cache_entries gauge).
func (t *memoryTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.len()
}

// diskTier adapts the persistent store (plus its circuit breaker and result
// codec, which live on the Server) to the tier contract. Get decodes a
// persisted result; Put writes through with the generic label — the compute
// path keeps calling persistResult directly so failures log the owning job.
type diskTier struct {
	s *Server
}

func (t *diskTier) Name() string { return tierDisk }

func (t *diskTier) Get(key string) (any, bool) { return t.s.diskGet(key) }

func (t *diskTier) Put(key string, res any) []string {
	return t.s.persistResult("result", key, res)
}

// Remove is a no-op: disk eviction is policy-driven (store GC, size/age
// budgets), never a mirror of another tier's eviction.
func (t *diskTier) Remove(string) {}

// probeLowerTiers asks every tier below memory for the key, in order,
// returning the first hit and the name of the tier that served it. Callers
// must not hold s.mu: lower tiers do IO (disk reads, peer HTTP fetches).
func (s *Server) probeLowerTiers(key string) (res any, tier string, ok bool) {
	for _, t := range s.tiers[1:] {
		if r, hit := t.Get(key); hit {
			return r, t.Name(), true
		}
	}
	return nil, "", false
}
