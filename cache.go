package raal

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"

	"raal/internal/encode"
	"raal/internal/lru"
)

// encodeCache is an LRU from plan fingerprints to encoded samples. Plan
// encoding walks the whole operator tree (word2vec lookups, statistics
// aggregation) on every Estimate call, yet serving workloads re-submit
// the same few plans under the same allocations over and over; caching
// the encoder's output removes that repeated walk entirely. The encoder
// is deterministic — identical (plan, resources) inputs yield identical
// samples — so serving a cached *Sample is bit-identical to re-encoding,
// and the model never mutates the samples it scores.
type encodeCache struct {
	lru *lru.Cache[string, *cacheEntry] // keyed by cacheKey
}

type cacheEntry struct {
	planKey   string
	precision string
	sample    atomic.Pointer[encode.Sample]
	hits      atomic.Uint64 // lookups served from this entry since it was cached
}

// cacheKey joins the serving precision tag and the canonical plan key
// into the cache's map key. Tagging keeps entries produced under
// different serving precisions apart — hit attribution then tells an
// operator which precision's traffic a warm entry is actually serving,
// and a future precision-specific encoding (e.g. pre-narrowed f32
// samples) can land without a key-scheme change. The plan key itself
// (PlanFingerprint) stays precision-agnostic so fleet-router affinity
// is unaffected by what precision a replica serves at.
func cacheKey(precision, planKey string) string {
	return precision + "\x1e" + planKey
}

func newEncodeCache(capacity int) *encodeCache {
	return &encodeCache{lru: lru.New[string, *cacheEntry](capacity)}
}

func (c *encodeCache) get(precision, planKey string) (*encode.Sample, bool) {
	e, ok := c.lru.Get(cacheKey(precision, planKey))
	if !ok {
		return nil, false
	}
	e.hits.Add(1)
	return e.sample.Load(), true
}

// keyStats snapshots per-entry hit counts in most-recently-used order.
func (c *encodeCache) keyStats() []CacheKeyStats {
	entries := c.lru.Values()
	out := make([]CacheKeyStats, len(entries))
	for i, e := range entries {
		out[i] = CacheKeyStats{Key: FingerprintID(e.planKey), Precision: e.precision, Hits: e.hits.Load()}
	}
	return out
}

// add caches s under (precision, planKey). Re-adding a cached key swaps
// the entry's sample in place and keeps its hit count.
func (c *encodeCache) add(precision, planKey string, s *encode.Sample) {
	key := cacheKey(precision, planKey)
	if e, ok := c.lru.Get(key); ok {
		e.sample.Store(s)
		return
	}
	e := &cacheEntry{planKey: planKey, precision: precision}
	e.sample.Store(s)
	c.lru.Add(key, e)
}

func (c *encodeCache) len() int { return c.lru.Len() }

// CacheKeyStats is one encode-cache entry's hit attribution: how many
// lookups the entry has served since it was cached, keyed by the short
// fingerprint ID (see FingerprintID) plus the serving precision the
// entry was populated under. Per-key attribution is what lets the fleet
// benchmark tie a routed key's traffic to the replica whose cache
// actually served it; the precision tag splits that attribution when a
// replica switches between the f64 reference path and a quantized one.
// The fingerprint ID is precision-agnostic — the same (plan, resources)
// pair reports the same Key at every precision, as distinct entries.
type CacheKeyStats struct {
	Key       string `json:"key"`
	Precision string `json:"precision"`
	Hits      uint64 `json:"hits"`
}

// FingerprintID condenses a canonical plan fingerprint (PlanFingerprint)
// to a short stable identifier — 64-bit FNV-1a in hex. The full
// fingerprint is the cache key's plan half (exact, collision-free; see
// cacheKey for the precision tag joined to it); the ID exists
// only for reporting, where echoing whole rendered plans would bloat
// every /cachez response. Clients correlate by computing
// FingerprintID(PlanFingerprint(p, res)) for the keys they routed.
func FingerprintID(fingerprint string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(fingerprint))
	return fmt.Sprintf("%016x", h.Sum64())
}

// EncodeCacheKeyStats returns the encode cache's per-key hit counts in
// most-recently-used order, or nil when no cache is enabled. Evicted
// entries drop their counts: the report attributes the *current* working
// set, which is what affinity effectiveness is measured on.
func (cm *CostModel) EncodeCacheKeyStats() []CacheKeyStats {
	if cm.cache == nil {
		return nil
	}
	return cm.cache.keyStats()
}

// PlanFingerprint returns the canonical (plan, resources) fingerprint —
// the exact key the encode cache memoizes under. The fleet router
// consistent-hashes on it so repeated submissions of the same plan under
// the same allocation land on the same replica, whose encode cache and
// micro-batcher are already warm for that key.
func PlanFingerprint(p *Plan, res Resources) string { return planKey(p, res) }

// planKey fingerprints everything the encoder reads from a (plan,
// resources) pair: the full resource feature vector and, per node in
// execution order, its identity, rendered statement (which folds in the
// operator's tables, predicates, keys, and aggregates), cardinality and
// width statistics, and child IDs. Fields the encoder never looks at
// (ActRows, Skew) stay out of the key so post-execution annotation does
// not defeat caching. The key is the exact canonical string — not a hash —
// so distinct inputs can never collide into a stale sample.
func planKey(p *Plan, res Resources) string {
	var b strings.Builder
	for _, v := range res.Vector() {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte(',')
	}
	b.WriteByte('\x1e')
	if p.Root != nil {
		b.WriteString(strconv.Itoa(p.Root.ID))
	}
	b.WriteByte('\x1e')
	for _, n := range p.Nodes {
		b.WriteString(strconv.Itoa(n.ID))
		b.WriteByte('\x1f')
		b.WriteString(strconv.Itoa(int(n.Op)))
		b.WriteByte('\x1f')
		b.WriteString(n.Statement())
		b.WriteByte('\x1f')
		b.WriteString(strconv.FormatFloat(n.EstRows, 'g', -1, 64))
		b.WriteByte('\x1f')
		b.WriteString(strconv.FormatFloat(n.RawRows, 'g', -1, 64))
		b.WriteByte('\x1f')
		b.WriteString(strconv.FormatFloat(n.RowBytes, 'g', -1, 64))
		b.WriteByte('\x1f')
		for _, c := range n.Children {
			b.WriteString(strconv.Itoa(c.ID))
			b.WriteByte(',')
		}
		b.WriteByte('\x1e')
	}
	return b.String()
}
