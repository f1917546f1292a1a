package campaign

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"rescue/internal/core"
	"rescue/internal/obs"
)

// Stage-cache instrumentation. Hits are completed entries served
// without computing; misses are leader computations that populated the
// cache; waits are singleflight followers that blocked on another job's
// in-flight computation instead of duplicating it. The gauges track the
// cache's resident footprint and the computations currently in flight.
var (
	obsStageCacheHits = obs.NewCounter("campaign_stage_cache_hits_total",
		"Stage results served from the cross-job stage cache.")
	obsStageCacheMisses = obs.NewCounter("campaign_stage_cache_misses_total",
		"Stage computations that ran as a cache key's singleflight leader.")
	obsStageCacheWaits = obs.NewCounter("campaign_stage_cache_waits_total",
		"Callers that blocked on another job's in-flight stage computation instead of duplicating it.")
	obsStageCacheEvicted = obs.NewCounter("campaign_stage_cache_evictions_total",
		"Completed stage-cache entries evicted by the byte bound.")
	obsStageCacheEntries = obs.NewGauge("campaign_stage_cache_entries",
		"Completed entries held by the cross-job stage cache.")
	obsStageCacheBytes = obs.NewGauge("campaign_stage_cache_bytes",
		"Approximate bytes held by the cross-job stage cache.")
	obsStageCacheInflight = obs.NewGauge("campaign_stage_cache_inflight",
		"Stage computations currently in flight under singleflight.")
)

// defaultStageCacheBytes bounds the process-wide stage cache. Entries
// are a few hundred bytes each (a fixed-size aspect report plus its
// key), so this holds tens of thousands of entries — far beyond any
// registry-scale campaign — while still bounding a pathological
// long-lived service.
const defaultStageCacheBytes = 8 << 20

// stageEntry is one cache slot. While the computation is in flight,
// elem is nil and done is open; when the leader finishes it publishes
// res/err and closes done (the close is the happens-before edge waiters
// read res/err through). Failed computations are removed from the map
// before done closes, so errors are delivered to current waiters but
// never memoised.
type stageEntry struct {
	key  string
	done chan struct{}
	res  core.StageResult
	err  error
	size int64
	elem *list.Element // LRU position; nil while in flight
}

// stageCache is a bounded, race-clean, content-keyed stage-result cache
// with singleflight de-duplication: concurrent callers of one key block
// on a single computation instead of racing to duplicate it. Completed
// entries are LRU-evicted once the byte bound is exceeded.
type stageCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*stageEntry
	lru      *list.List // completed entries, most recently used in front
}

func newStageCache(maxBytes int64) *stageCache {
	return &stageCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*stageEntry),
		lru:      list.New(),
	}
}

// stageTraffic is one run's own share of the cache's traffic, counted
// where do resolves each lookup its jobs make: every lookup is exactly
// one hit, miss or wait, and a miss's insertion may evict older entries.
type stageTraffic struct{ hits, misses, waits, evictions atomic.Int64 }

// sharedStageCache is the process-wide cache every campaign run shares
// unless Config.DisableStageCache. Like the circuit-artifact cache it
// lives for the process lifetime — deliberately: a long-running
// campaign service re-running overlapping matrices is exactly the
// caller cross-job (and cross-run) reuse exists for.
var sharedStageCache = newStageCache(defaultStageCacheBytes)

// do returns the cached result for key, waits on an in-flight
// computation of it, or runs compute as the key's singleflight leader.
// Errors — including cancellation of the leader's job — are delivered
// to the waiters of that flight but never cached: the entry is removed,
// so a later caller recomputes. A panic in compute ends the flight the
// same way, with an error naming the panic, and then resumes in the
// leader. ctx bounds only this caller's wait; the computation itself
// runs under the leader's own context. The lookup, and any eviction it
// causes, counts in t as well as on /metrics.
func (c *stageCache) do(ctx context.Context, key string, t *stageTraffic, compute func() (core.StageResult, error)) (core.StageResult, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed: a pure hit
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			obsStageCacheHits.Inc()
			t.hits.Add(1)
			return e.res, nil
		}
		c.mu.Unlock() // in flight: wait for the leader
		obsStageCacheWaits.Inc()
		t.waits.Add(1)
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return core.StageResult{}, ctx.Err()
		}
	}
	e := &stageEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	obsStageCacheMisses.Inc()
	t.misses.Add(1)
	obsStageCacheInflight.Add(1)
	defer func() {
		if r := recover(); r != nil {
			c.finish(e, t, core.StageResult{}, fmt.Errorf("campaign: stage computation panicked: %v", r))
			panic(r)
		}
	}()
	res, err := compute()
	c.finish(e, t, res, err)
	return res, err
}

// finish ends e's flight: it publishes the result to the flight's
// waiters and, on success, caches it.
func (c *stageCache) finish(e *stageEntry, t *stageTraffic, res core.StageResult, err error) {
	obsStageCacheInflight.Add(-1)
	c.mu.Lock()
	defer c.mu.Unlock()
	e.res, e.err = res, err
	if err != nil {
		// Never memoise failure: the next job with this key retries.
		delete(c.entries, e.key)
	} else {
		e.size = stageEntrySize(e.key, res)
		e.elem = c.lru.PushFront(e)
		c.bytes += e.size
		obsStageCacheEntries.Add(1)
		obsStageCacheBytes.Add(e.size)
		c.evictLocked(t)
	}
	close(e.done)
}

// evictLocked drops least-recently-used completed entries until the
// byte bound holds again, always keeping the newest entry, and counts
// each eviction in t.
func (c *stageCache) evictLocked(t *stageTraffic) {
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*stageEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		obsStageCacheEvicted.Inc()
		t.evictions.Add(1)
		obsStageCacheEntries.Add(-1)
		obsStageCacheBytes.Add(-e.size)
	}
}

// stageEntrySize approximates one entry's resident footprint: the key,
// the entry struct, the single fixed-size aspect report it points to,
// and a constant for map/list bookkeeping.
func stageEntrySize(key string, res core.StageResult) int64 {
	size := int64(len(key)) + int64(unsafe.Sizeof(stageEntry{})) + 64
	switch {
	case res.Quality != nil:
		size += int64(unsafe.Sizeof(*res.Quality))
	case res.Reliability != nil:
		size += int64(unsafe.Sizeof(*res.Reliability))
	case res.Safety != nil:
		size += int64(unsafe.Sizeof(*res.Safety))
	case res.Security != nil:
		size += int64(unsafe.Sizeof(*res.Security))
	}
	return size
}

// stageCoords maps a job's coordinates and flow parameters onto the
// core seed and key derivation. The circuit name is the cache-wide
// circuit identity: it is the key of the shared circuitArtifact cache,
// and registry constructors are deterministic, so equal names imply
// equal netlists, collapsed fault lists and compiled machines.
func stageCoords(j Job) core.StageCoords {
	return core.StageCoords{
		Circuit:     j.Circuit,
		Environment: j.Environment,
		Technology:  j.Technology,
		Shard:       j.Shard,
		Shards:      j.Shards,
		Patterns:    j.Patterns,
		Years:       j.Years,
	}
}

// jobBaseSeed recovers the campaign base seed from a job: DeriveSeed
// XOR-folds the coordinate hash into the base, so folding the same hash
// again cancels it. Stage seeds must branch from the base, not from the
// job seed — the job seed contains the scenario, and a
// scenario-flavoured stage seed would make the same stage differ
// between a holistic job and its single-scenario twin, defeating
// cross-job reuse.
func jobBaseSeed(j Job) int64 {
	return j.Seed ^ coordHash(j.Circuit, j.Environment, j.Technology, j.Scenario, j.Shard)
}

// stageSeedsFor derives the seed of every scheduled stage from the
// job's coordinates through the declared-input hasher. It is applied
// whether or not the cache is enabled, which is what makes cache-on and
// cache-off campaigns byte-identical.
func stageSeedsFor(j Job, stages []core.StageID) map[core.StageID]int64 {
	base := jobBaseSeed(j)
	coords := stageCoords(j)
	seeds := make(map[core.StageID]int64, len(stages))
	for _, id := range stages {
		seeds[id] = core.DeriveStageSeed(base, id, coords)
	}
	return seeds
}

// stageCacheKey renders the content key of one job stage (core.StageKey).
func stageCacheKey(j Job, id core.StageID) string {
	return core.StageKey(jobBaseSeed(j), id, stageCoords(j))
}

// jobMemo adapts the shared stage cache to one job's core.StageMemo:
// every stage RunStages schedules is resolved through the cache under
// the job's context and counted in its run's traffic.
type jobMemo struct {
	ctx     context.Context
	cache   *stageCache
	traffic *stageTraffic
	job     Job
}

func (m jobMemo) Stage(id core.StageID, compute func() (core.StageResult, error)) (core.StageResult, error) {
	return m.cache.do(m.ctx, stageCacheKey(m.job, id), m.traffic, compute)
}
