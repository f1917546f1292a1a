package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rescue/internal/circuits"
	"rescue/internal/core"
)

// TestStageCacheSingleflight hammers one key from many goroutines: the
// computation must run exactly once, with every caller receiving the
// leader's result (same report pointer, since cached results are shared).
func TestStageCacheSingleflight(t *testing.T) {
	c := newStageCache(1 << 20)
	rep := &core.QualityReport{}
	var calls atomic.Int32
	compute := func() (core.StageResult, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the in-flight window
		return core.StageResult{Quality: rep}, nil
	}
	const workers = 32
	var wg sync.WaitGroup
	var traffic stageTraffic
	results := make([]core.StageResult, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.do(context.Background(), "k", &traffic, compute)
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computation ran %d times under singleflight, want 1", n)
	}
	// Every lookup counts once in its run's traffic: one miss, the rest
	// hits or waits.
	if m, hw := traffic.misses.Load(), traffic.hits.Load()+traffic.waits.Load(); m != 1 || hw != workers-1 {
		t.Fatalf("traffic = %d misses, %d hits and waits; want 1, %d", m, hw, workers-1)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].Quality != rep {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

// TestStageCacheErrorNotCached: a failed computation is delivered to the
// concurrent waiters of that flight but removed from the cache, so the
// next caller recomputes — and a successful recomputation is then a
// durable entry.
func TestStageCacheErrorNotCached(t *testing.T) {
	c := newStageCache(1 << 20)
	boom := errors.New("boom")
	ctx := context.Background()

	// A waiter blocked on the failing flight must see the leader's error.
	w0 := obsStageCacheWaits.Value()
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, "k", new(stageTraffic), func() (core.StageResult, error) {
			<-release
			return core.StageResult{}, boom
		})
		leaderDone <- err
	}()
	waitFor(t, func() bool { // leader registered its in-flight entry
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.entries["k"] != nil
	})
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, "k", new(stageTraffic), func() (core.StageResult, error) {
			t.Error("waiter must not compute while the leader is in flight")
			return core.StageResult{}, nil
		})
		waiterDone <- err
	}()
	waitFor(t, func() bool { return obsStageCacheWaits.Value() > w0 })
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want %v", err, boom)
	}
	if err := <-waiterDone; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want %v", err, boom)
	}

	c.mu.Lock()
	_, stillThere := c.entries["k"]
	c.mu.Unlock()
	if stillThere {
		t.Fatal("failed computation left an entry in the cache")
	}

	rep := &core.QualityReport{}
	calls := 0
	compute := func() (core.StageResult, error) {
		calls++
		return core.StageResult{Quality: rep}, nil
	}
	if res, err := c.do(ctx, "k", new(stageTraffic), compute); err != nil || res.Quality != rep {
		t.Fatalf("recompute after failure: res=%+v err=%v", res, err)
	}
	if res, err := c.do(ctx, "k", new(stageTraffic), compute); err != nil || res.Quality != rep {
		t.Fatalf("hit after recompute: res=%+v err=%v", res, err)
	}
	if calls != 1 {
		t.Fatalf("successful result computed %d times, want 1 (second call must hit)", calls)
	}
}

// TestStageCacheWaiterCancellation: a waiter whose context dies while
// the leader is still computing unblocks with the context error; the
// flight itself finishes and populates the cache normally.
func TestStageCacheWaiterCancellation(t *testing.T) {
	c := newStageCache(1 << 20)
	release := make(chan struct{})
	rep := &core.QualityReport{}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.do(context.Background(), "k", new(stageTraffic), func() (core.StageResult, error) {
			<-release
			return core.StageResult{Quality: rep}, nil
		})
		leaderDone <- err
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.entries["k"] != nil
	})
	wctx, cancel := context.WithCancel(context.Background())
	w0 := obsStageCacheWaits.Value()
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.do(wctx, "k", new(stageTraffic), func() (core.StageResult, error) {
			return core.StageResult{}, nil
		})
		waiterDone <- err
	}()
	waitFor(t, func() bool { return obsStageCacheWaits.Value() > w0 })
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if res, err := c.do(context.Background(), "k", new(stageTraffic), nil); err != nil || res.Quality != rep {
		t.Fatalf("entry after waiter cancellation: res=%+v err=%v", res, err)
	}
}

// TestStageCacheEvictionBounds: a cache bounded below one entry's size
// still always retains the newest entry, evicts the rest, and keeps its
// byte accounting consistent.
func TestStageCacheEvictionBounds(t *testing.T) {
	c := newStageCache(1) // smaller than any single entry
	ctx := context.Background()
	var traffic stageTraffic
	for _, key := range []string{"a", "b", "c"} {
		rep := &core.QualityReport{}
		if _, err := c.do(ctx, key, &traffic, func() (core.StageResult, error) {
			return core.StageResult{Quality: rep}, nil
		}); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		n, bytes := c.lru.Len(), c.bytes
		_, newest := c.entries[key]
		c.mu.Unlock()
		if n != 1 {
			t.Fatalf("after inserting %q: %d entries resident, want 1 (newest only)", key, n)
		}
		if !newest {
			t.Fatalf("after inserting %q: newest entry was evicted", key)
		}
		if bytes <= 0 {
			t.Fatalf("after inserting %q: accounted bytes = %d", key, bytes)
		}
	}
	// The insertions that evicted count the evictions in their traffic.
	if m, e := traffic.misses.Load(), traffic.evictions.Load(); m != 3 || e != 2 {
		t.Fatalf("traffic = %d misses, %d evictions; want 3, 2", m, e)
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline; used to sequence singleflight leaders and waiters without
// sleeping blindly.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStageCacheKeyDeclaredInputs pins the content-key contract: only a
// stage's declared inputs (plus the circuit and the stage itself) enter
// its key — and never the scenario, which is what lets a holistic job
// share results with its single-scenario twins.
func TestStageCacheKeyDeclaredInputs(t *testing.T) {
	const base = 7
	job := func(circ, env, tech string, scen Scenario, shard, shards int) Job {
		return Job{
			Circuit: circ, Environment: env, Technology: tech, Scenario: scen,
			Shard: shard, Shards: shards, Patterns: 32, Years: 5,
			Seed: DeriveSeed(base, circ, env, tech, scen, shard),
		}
	}
	ref := job("mul8", "sea-level", "28nm", ScenarioHolistic, 0, 1)

	// Every job recovers the campaign base seed from its own seed.
	for _, j := range []Job{
		ref,
		job("c17", "LEO", "65nm", ScenarioSecurity, 0, 1),
		job("mul8", "GEO", "130nm", ScenarioQuality, 2, 4),
	} {
		if got := jobBaseSeed(j); got != base {
			t.Fatalf("jobBaseSeed(%s) = %d, want %d", j.Name(), got, base)
		}
	}

	// Quality ignores environment and technology; the scenario is never
	// part of any key.
	if a, b := stageCacheKey(ref, core.StageQuality),
		stageCacheKey(job("mul8", "LEO", "65nm", ScenarioQuality, 0, 1), core.StageQuality); a != b {
		t.Errorf("quality key depends on undeclared coordinates:\n%s\n%s", a, b)
	}
	// Security declares nothing: equal across environment, technology
	// and shard.
	if a, b := stageCacheKey(ref, core.StageSecurity),
		stageCacheKey(job("mul8", "GEO", "130nm", ScenarioSecurity, 0, 1), core.StageSecurity); a != b {
		t.Errorf("security key depends on undeclared coordinates:\n%s\n%s", a, b)
	}
	// Reliability declares the environment, technology and shard: each
	// must split the key.
	relRef := stageCacheKey(ref, core.StageReliability)
	for _, j := range []Job{
		job("mul8", "LEO", "28nm", ScenarioHolistic, 0, 1),
		job("mul8", "sea-level", "65nm", ScenarioHolistic, 0, 1),
		job("mul8", "sea-level", "28nm", ScenarioHolistic, 1, 4),
	} {
		if k := stageCacheKey(j, core.StageReliability); k == relRef {
			t.Errorf("reliability key ignores a declared coordinate: %s vs %s", j.Name(), ref.Name())
		}
	}
	// Patterns are a declared reliability input but not a coordinate.
	pat := ref
	pat.Patterns = 64
	if stageCacheKey(pat, core.StageReliability) == relRef {
		t.Error("reliability key ignores the pattern count")
	}
	// Distinct circuits never collide, and distinct stages of one job
	// never collide.
	if stageCacheKey(job("c17", "sea-level", "28nm", ScenarioHolistic, 0, 1), core.StageQuality) ==
		stageCacheKey(ref, core.StageQuality) {
		t.Error("quality key ignores the circuit")
	}
	if stageCacheKey(ref, core.StageQuality) == stageCacheKey(ref, core.StageSafety) {
		t.Error("two stages of one job share a key")
	}
}

// TestOrderForCacheDeterminism: cache-aware ordering is a stable
// grouping — same multiset of jobs, sorted by (first-stage key, ID) —
// and therefore independent of the input permutation. A job's first
// stage is the first one core.ExecutionOrder runs.
func TestOrderForCacheDeterminism(t *testing.T) {
	m := Matrix{
		Circuits:     []string{"mul8", "c17"},
		Environments: EnvironmentNames(),
		Technologies: []string{"28nm", "65nm"},
		Scenarios:    []Scenario{ScenarioHolistic, ScenarioQuality},
		Patterns:     16, Years: 5, Seed: 3,
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ordered := orderForCache(jobs)
	reversed := make([]Job, len(jobs))
	for i, j := range jobs {
		reversed[len(jobs)-1-i] = j
	}
	fromReversed := orderForCache(reversed)
	for i := range ordered {
		if ordered[i].ID != fromReversed[i].ID {
			t.Fatalf("ordering depends on input permutation at slot %d", i)
		}
	}
	ids := make([]int, len(ordered))
	for i, j := range ordered {
		ids[i] = j.ID
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("ordering lost or duplicated job IDs: %v", ids)
		}
	}
	// Jobs sharing a first-stage key must be adjacent.
	seen := make(map[string]int)
	for i, j := range ordered {
		stages, err := j.Scenario.Stages()
		if err != nil {
			t.Fatal(err)
		}
		k := stageCacheKey(j, core.ExecutionOrder(stages)[0])
		if last, ok := seen[k]; ok && last != i-1 {
			t.Fatalf("jobs with key %s scattered (slots %d and %d)", k, last, i)
		}
		seen[k] = i
	}
}

// seedStageKeysDigest pins every (job, stage) seed and cache key of
// stageKeysMatrix, and the schedule orderForCache builds from them.
const seedStageKeysDigest = "06ce2b265277268b9af19b6d686eec81ac8da42f16fab7f31a3aabb105657e95"

// stageKeysMatrix crosses the registry with every environment, every
// technology and every scenario, sharding the circuits with at least
// 100 collapsed faults three ways.
func stageKeysMatrix() Matrix {
	return Matrix{
		Circuits:       circuits.Names(),
		Environments:   EnvironmentNames(),
		Technologies:   TechnologyNames(),
		Scenarios:      Scenarios(),
		Patterns:       4100,
		Years:          7.5,
		Seed:           11,
		Shards:         3,
		ShardThreshold: 100,
	}
}

// TestStageSeedsAndKeysMatchSeedDigest pins, byte for byte, the seed
// and cache key of every stage (scheduled by the job's scenario or not)
// of every job in stageKeysMatrix, and the cache-aware schedule.
func TestStageSeedsAndKeysMatchSeedDigest(t *testing.T) {
	jobs, err := stageKeysMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	keys := 0
	for _, j := range jobs {
		seeds := stageSeedsFor(j, core.AllStages())
		for _, id := range core.AllStages() {
			fmt.Fprintf(h, "%d %s %d %s\n", j.ID, id, seeds[id], stageCacheKey(j, id))
			keys++
		}
	}
	for _, j := range orderForCache(jobs) {
		fmt.Fprintf(h, "%d ", j.ID)
	}
	if keys != 14240 {
		t.Errorf("matrix has %d (job, stage) keys, want 14240", keys)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedStageKeysDigest {
		t.Errorf("stage seed and key digest = %s, want %s", got, seedStageKeysDigest)
	}
}

// cacheJSON runs the matrix at the given parallelism and cache setting
// and returns the canonical summary bytes.
func cacheJSON(t *testing.T, m Matrix, parallelism int, disableCache bool) []byte {
	t.Helper()
	sum, err := Run(context.Background(), m, Config{Parallelism: parallelism, DisableStageCache: disableCache})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("campaign failures:\n%s", sum.Render())
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestStageCacheEquivalenceRegistry is the registry-wide correctness
// gate of the memoization layer: for every built-in circuit under the
// holistic scenario, the cache-on campaign.json is byte-identical to
// cache-off at parallelism 1, 4 and NumCPU.
func TestStageCacheEquivalenceRegistry(t *testing.T) {
	m := Matrix{
		Circuits:  circuits.Names(),
		Scenarios: []Scenario{ScenarioHolistic},
		Patterns:  16,
		Years:     5,
		Seed:      11,
	}
	want := cacheJSON(t, m, 4, true)
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		if got := cacheJSON(t, m, p, false); !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d: cache-on summary differs from cache-off", p)
		}
	}
}

// TestStageCacheEquivalenceDedupHeavy drives the dedup-heavy shape the
// cache exists for — one circuit fanned across every environment, three
// technologies and overlapping scenarios — and checks both byte-identity
// and that the cache actually deduplicated (hits observed).
func TestStageCacheEquivalenceDedupHeavy(t *testing.T) {
	m := Matrix{
		Circuits:     []string{"mul8"},
		Environments: EnvironmentNames(),
		Technologies: []string{"28nm", "65nm", "130nm"},
		Scenarios:    []Scenario{ScenarioHolistic, ScenarioSecurity},
		Patterns:     16,
		Years:        5,
		Seed:         13,
	}
	want := cacheJSON(t, m, 4, true)
	h0 := obsStageCacheHits.Value()
	w0 := obsStageCacheWaits.Value()
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		if got := cacheJSON(t, m, p, false); !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d: cache-on summary differs from cache-off", p)
		}
	}
	// The quality stage of mul8 is shared by every environment ×
	// technology × {holistic, quality} job; with three cache-on runs the
	// dedup must show up as hits (or singleflight waits).
	if hits, waits := obsStageCacheHits.Value()-h0, obsStageCacheWaits.Value()-w0; hits+waits == 0 {
		t.Fatal("dedup-heavy matrix produced no cache hits or singleflight waits")
	}
}

// TestStageCacheResumeInterleaving kills a cache-on checkpointed run
// mid-flight (twice), resumes it with the cache still on, and checks the
// recovered campaign.json is byte-identical to an uninterrupted
// cache-OFF run: replayed jobs bypass the cache entirely and fresh jobs
// hit entries populated by the killed runs, yet nothing can tell.
//
// The killed rounds run on one worker, so at most one job can start after
// cancel(): a round cut on its k-th result finishes at most k+1 jobs.
// Round 0 finishes at most 3 of the 12 and round 1 at most 5 more, which
// leaves at least 4 fresh jobs and makes both cuts land mid-run however
// fast the hot stage cache replays the rest.
func TestStageCacheResumeInterleaving(t *testing.T) {
	m := testMatrix()
	m.Seed = 29 // a fresh seed: entries from other tests must not mask the interleaving
	want := cacheJSON(t, m, 4, true)
	dir := t.TempDir()
	for round, cutAfter := range []int32{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n int32
		cfg := Config{
			Parallelism: 1,
			OnResult: func(Result) {
				if atomic.AddInt32(&n, 1) == cutAfter {
					cancel()
				}
			},
		}
		_, err := RunCheckpointed(ctx, dir, m, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
	}
	ck, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	sum, err := ck.Run(context.Background(), Config{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, want) {
		t.Fatal("resumed cache-on summary differs from uninterrupted cache-off run")
	}
	if got, err := os.ReadFile(filepath.Join(dir, SummaryFile)); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%s differs from uninterrupted cache-off run", SummaryFile)
	}
}
