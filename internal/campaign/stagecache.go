package campaign

import (
	"container/list"
	"context"
	"sort"
	"sync"
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
// so a later caller recomputes. ctx bounds only this caller's wait; the
// computation itself runs under the leader's own context.
func (c *stageCache) do(ctx context.Context, key string, compute func() (core.StageResult, error)) (core.StageResult, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed: a pure hit
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			obsStageCacheHits.Inc()
			return e.res, nil
		}
		c.mu.Unlock() // in flight: wait for the leader
		obsStageCacheWaits.Inc()
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
	obsStageCacheInflight.Add(1)
	res, err := compute()
	obsStageCacheInflight.Add(-1)
	c.mu.Lock()
	e.res, e.err = res, err
	if err != nil {
		// Never memoise failure: the next job with this key retries.
		delete(c.entries, key)
	} else {
		e.size = stageEntrySize(key, res)
		e.elem = c.lru.PushFront(e)
		c.bytes += e.size
		obsStageCacheEntries.Add(1)
		obsStageCacheBytes.Add(e.size)
		c.evictLocked()
	}
	close(e.done)
	c.mu.Unlock()
	return res, err
}

// evictLocked drops least-recently-used completed entries until the
// byte bound holds again, always keeping the newest entry.
func (c *stageCache) evictLocked() {
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*stageEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		obsStageCacheEvicted.Inc()
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
// the job's context.
type jobMemo struct {
	ctx   context.Context
	cache *stageCache
	job   Job
}

func (m jobMemo) Stage(id core.StageID, compute func() (core.StageResult, error)) (core.StageResult, error) {
	return m.cache.do(m.ctx, stageCacheKey(m.job, id), compute)
}

// orderForCache groups pending jobs that share the cache key of the
// first stage they execute (core.ExecutionOrder) onto adjacent schedule
// slots: the group's first job computes while the rest arrive after (or
// while) the entry resolves, turning would-be duplicate computations
// scattered across the schedule into immediate hits or short
// singleflight waits. Scheduling order never affects results — the
// summary sorts by job ID — so this is pure locality; the sort is
// stable with a job-ID tiebreak and thus itself deterministic.
func orderForCache(pending []Job) []Job {
	keys := make([]string, len(pending))
	for i, j := range pending {
		if stages, err := j.Scenario.Stages(); err == nil && len(stages) > 0 {
			keys[i] = stageCacheKey(j, core.ExecutionOrder(stages)[0])
		}
	}
	idx := make([]int, len(pending))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return pending[idx[a]].ID < pending[idx[b]].ID
	})
	out := make([]Job, len(pending))
	for i, k := range idx {
		out[i] = pending[k]
	}
	return out
}
