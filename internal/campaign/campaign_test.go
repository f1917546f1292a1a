package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/obs"
	"rescue/internal/sim"
)

// testMatrix is a ≥10-job matrix that exercises multiple circuits,
// environments and scenarios while staying fast.
func testMatrix() Matrix {
	return Matrix{
		Circuits:     []string{"c17", "rca8", "parity16"},
		Environments: []string{"sea-level", "LEO"},
		Scenarios:    []Scenario{ScenarioQuality, ScenarioSecurity},
		Patterns:     32,
		Years:        5,
		Seed:         7,
	}
}

func TestExpandDeterministicOrder(t *testing.T) {
	jobs, err := testMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3*2*2 {
		t.Fatalf("expanded %d jobs, want 12", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
		if j.Technology != "28nm" {
			t.Errorf("job %d: default technology not applied: %q", i, j.Technology)
		}
	}
	again, err := testMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("expansion not deterministic at job %d: %+v vs %+v", i, jobs[i], again[i])
		}
	}
}

func TestExpandValidation(t *testing.T) {
	cases := []Matrix{
		{},
		{Circuits: []string{"no-such-circuit"}},
		{Circuits: []string{"c17"}, Environments: []string{"mars"}},
		{Circuits: []string{"c17"}, Technologies: []string{"3nm"}},
		{Circuits: []string{"c17"}, Scenarios: []Scenario{"chaos"}},
	}
	for i, m := range cases {
		if _, err := m.Expand(); err == nil {
			t.Errorf("case %d: invalid matrix expanded without error", i)
		}
	}
}

func TestDeriveSeedIgnoresMatrixShape(t *testing.T) {
	small := Matrix{Circuits: []string{"rca8"}, Environments: []string{"LEO"}, Seed: 7}
	big := Matrix{
		Circuits:     []string{"c17", "rca8", "alu8"},
		Environments: []string{"sea-level", "LEO", "GEO"},
		Seed:         7,
	}
	sj, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := big.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := sj[0]
	for _, j := range bj {
		if j.Circuit == want.Circuit && j.Environment == want.Environment &&
			j.Technology == want.Technology && j.Scenario == want.Scenario {
			if j.Seed != want.Seed {
				t.Errorf("same coordinates, different seeds: %d vs %d", j.Seed, want.Seed)
			}
			return
		}
	}
	t.Fatal("matching job not found in the bigger matrix")
}

func TestShardBoundsPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 512, 1000} {
		for _, k := range []int{1, 2, 3, 8} {
			prev := 0
			total := 0
			for i := 0; i < k; i++ {
				lo, hi := ShardBounds(n, i, k)
				if lo != prev {
					t.Fatalf("n=%d k=%d shard %d: gap/overlap at %d (want %d)", n, k, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d k=%d shard %d: inverted bounds", n, k, i)
				}
				total += hi - lo
				prev = hi
			}
			if prev != n || total != n {
				t.Fatalf("n=%d k=%d: shards cover %d elements", n, k, total)
			}
		}
	}
}

func TestShardedCampaignCoversAllFaults(t *testing.T) {
	m := Matrix{
		Circuits:  []string{"alu8"},
		Scenarios: []Scenario{ScenarioQuality},
		Patterns:  16,
		Shards:    4, ShardThreshold: 100,
		Seed: 3,
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("expected 4 shard jobs, got %d", len(jobs))
	}
	sum, err := Run(context.Background(), m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("shard jobs failed:\n%s", sum.Render())
	}
	n, err := flowNetlist("alu8")
	if err != nil {
		t.Fatal(err)
	}
	all := len(fault.Collapse(n, fault.AllStuckAt(n)))
	if sum.Quality.Faults != all {
		t.Errorf("shards cover %d faults, full list has %d", sum.Quality.Faults, all)
	}
	// Small circuits must not shard.
	small := Matrix{Circuits: []string{"c17"}, Shards: 4, ShardThreshold: 100}
	sj, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(sj) != 1 || sj[0].Shards != 1 {
		t.Errorf("c17 sharded below threshold: %+v", sj)
	}
	// The security scenario has no fault-list dependency and must never
	// shard, even on large circuits.
	sec := Matrix{Circuits: []string{"alu8"}, Scenarios: []Scenario{ScenarioSecurity}, Shards: 4, ShardThreshold: 100}
	secJobs, err := sec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(secJobs) != 1 || secJobs[0].Shards != 1 {
		t.Errorf("security scenario sharded: %+v", secJobs)
	}
	// Over-sharding clamps to the fault count — no empty shards, which
	// would divide by zero in the SDC computation and poison the JSON.
	over := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioReliability}, Shards: 1000, ShardThreshold: 1, Patterns: 8}
	oj, err := over.Expand()
	if err != nil {
		t.Fatal(err)
	}
	nf := collapsedFaultCount("c17")
	if len(oj) != nf {
		t.Fatalf("1000-way shard of c17 expanded to %d jobs, want clamp to %d faults", len(oj), nf)
	}
	osum, err := Run(context.Background(), over, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if osum.Failed != 0 {
		t.Fatalf("over-sharded run failed:\n%s", osum.Render())
	}
	if _, err := osum.JSON(); err != nil {
		t.Fatalf("over-sharded summary not serialisable: %v", err)
	}
}

func TestShardedFITNotInflated(t *testing.T) {
	// Sharding must partition the circuit's FIT contribution, not
	// multiply it: the sharded campaign's total derated FIT has to stay
	// close to the unsharded run, and raw FIT shares must sum exactly.
	base := Matrix{
		Circuits:  []string{"alu8"},
		Scenarios: []Scenario{ScenarioReliability},
		Patterns:  64,
		Seed:      5,
	}
	whole, err := Run(context.Background(), base, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards, sharded.ShardThreshold = 4, 100
	parts, err := Run(context.Background(), sharded, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Failed != 0 || parts.Failed != 0 {
		t.Fatalf("failures:\n%s%s", whole.Render(), parts.Render())
	}
	rawSum := 0.0
	for _, r := range parts.Results {
		rawSum += r.Report.Reliability.RawFIT
	}
	if wholeRaw := whole.Results[0].Report.Reliability.RawFIT; !closeTo(rawSum, wholeRaw, 1e-9) {
		t.Errorf("shard raw FITs sum to %v, whole circuit has %v", rawSum, wholeRaw)
	}
	ratio := parts.Reliability.TotalDeratedFIT / whole.Reliability.TotalDeratedFIT
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("sharded derated FIT total is %.2fx the unsharded value", ratio)
	}
	// The SDC mean must weight each shard by its own fault count.
	if parts.Reliability.MeanSDC <= 0 || parts.Reliability.MeanSDC > 1 {
		t.Errorf("sharded mean SDC = %v", parts.Reliability.MeanSDC)
	}
}

func closeTo(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	return d <= rel*m
}

func TestShardedHolisticMeasuresSecurityAndAgingOnce(t *testing.T) {
	m := Matrix{
		Circuits:  []string{"alu8"},
		Scenarios: []Scenario{ScenarioHolistic},
		Patterns:  16,
		Years:     10,
		Shards:    4, ShardThreshold: 100,
		Seed: 9,
	}
	sum, err := Run(context.Background(), m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failures:\n%s", sum.Render())
	}
	if sum.Quality.Jobs != 4 || sum.Security.Jobs != 1 {
		t.Errorf("quality jobs=%d security jobs=%d, want 4/1 (security only on shard 0)",
			sum.Quality.Jobs, sum.Security.Jobs)
	}
	// The whole-netlist aging analysis likewise runs on shard 0 only.
	for _, r := range sum.Results {
		slow := r.Report.Reliability.AgingSlowdown
		if r.Job.Shard == 0 && slow <= 1 {
			t.Errorf("shard 0 must carry the aging analysis, got %v", slow)
		}
		if r.Job.Shard > 0 && slow != 0 {
			t.Errorf("shard %d recomputed aging: %v", r.Job.Shard, slow)
		}
	}
	if sum.Reliability.MaxAgingSlowdown <= 1 {
		t.Errorf("rollup lost the aging number: %v", sum.Reliability.MaxAgingSlowdown)
	}
}

// TestDeterminismAcrossParallelism is the seed-derivation regression
// test: the aggregated campaign JSON must be byte-identical at
// parallelism 1, 4 and NumCPU.
func TestDeterminismAcrossParallelism(t *testing.T) {
	m := testMatrix()
	var baseline []byte
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		sum, err := Run(context.Background(), m, Config{Parallelism: p})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if sum.Failed != 0 {
			t.Fatalf("parallelism %d: failures:\n%s", p, sum.Render())
		}
		js, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = js
			continue
		}
		if !bytes.Equal(js, baseline) {
			t.Fatalf("parallelism %d: aggregated JSON differs from serial baseline", p)
		}
	}
}

// forgetCircuitArtifacts drops circuits from the process-wide artifact
// cache, so the next run builds fresh netlists and searches every PODEM
// verdict again instead of recalling it from the netlist's verdict
// table.
func forgetCircuitArtifacts(names ...string) {
	for _, name := range names {
		artifactCache.Delete(name)
	}
}

// TestLendingMatchesSerial forces lending: at parallelism 2 the worker
// that finishes c17 finds the queue drained and lends itself to mul8's
// quality and safety stages. The summary must be byte-identical to the
// serial run's, and PODEM helpers must have run on the lent slot. The
// stage cache is off and each run starts from fresh circuit artifacts,
// so the lent run recomputes every stage and searches every verdict.
func TestLendingMatchesSerial(t *testing.T) {
	m := Matrix{
		Circuits:  []string{"c17", "mul8"},
		Scenarios: []Scenario{ScenarioHolistic},
		Patterns:  16,
		Years:     5,
		Seed:      1,
	}
	counter := func(name string) float64 { return obs.Default.Snapshot()[name] }
	forgetCircuitArtifacts(m.Circuits...)
	serial := cacheJSON(t, m, 1, true)
	forgetCircuitArtifacts(m.Circuits...)
	lent, searched := counter("atpg_lent_workers_total"), counter("atpg_podem_calls_total")
	if got := cacheJSON(t, m, 2, true); !bytes.Equal(got, serial) {
		t.Fatal("parallelism 2 with lending: summary differs from the serial run")
	}
	if counter("atpg_lent_workers_total") == lent {
		t.Error("no PODEM helper ran on a lent worker slot")
	}
	if counter("atpg_podem_calls_total") == searched {
		t.Error("the lent run performed no PODEM search")
	}
}

func TestHolisticScenarioOverRegistry(t *testing.T) {
	// Every registry circuit — including sequential ones, via the scan
	// view — must survive the holistic flow.
	m := Matrix{
		Circuits:  circuits.Names(),
		Scenarios: []Scenario{ScenarioHolistic},
		Patterns:  16,
		Years:     5,
		Seed:      1,
	}
	sum, err := Run(context.Background(), m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("registry campaign failures:\n%s", sum.Render())
	}
	if sum.Quality == nil || sum.Reliability == nil || sum.Safety == nil || sum.Security == nil {
		t.Fatal("holistic campaign must populate all four rollups")
	}
	if sum.Security.Leaky != sum.Security.Jobs {
		t.Errorf("leaky comparer undetected in %d/%d jobs", sum.Security.Jobs-sum.Security.Leaky, sum.Security.Jobs)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done int32
	cfg := Config{
		Parallelism: 1,
		OnResult: func(Result) {
			if atomic.AddInt32(&done, 1) == 2 {
				cancel()
			}
		},
	}
	sum, err := Run(ctx, testMatrix(), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum == nil {
		t.Fatal("cancelled run must still return the partial summary")
	}
	if got := len(sum.Results); got >= 12 {
		t.Errorf("cancellation did not drop queued jobs: %d results", got)
	}
	// Interrupted jobs are cancelled, not failed.
	if sum.Failed != 0 {
		t.Errorf("cancellation counted as %d failures:\n%s", sum.Failed, sum.Render())
	}
	for _, r := range sum.Results {
		if r.Err != "" && !r.Canceled {
			t.Errorf("interrupted job %s reported as failed: %s", r.Job.Name(), r.Err)
		}
	}
}

func TestWorkerPanicRecovery(t *testing.T) {
	cfg := Config{
		Parallelism: 4,
		runJob: func(ctx context.Context, j Job) Result {
			if j.ID == 3 {
				panic("injected failure")
			}
			return RunJob(ctx, j)
		},
	}
	sum, err := Run(context.Background(), testMatrix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || sum.Completed != 11 {
		t.Fatalf("completed=%d failed=%d, want 11/1", sum.Completed, sum.Failed)
	}
	var panicked *Result
	for i := range sum.Results {
		if sum.Results[i].Job.ID == 3 {
			panicked = &sum.Results[i]
		}
	}
	if panicked == nil || !strings.Contains(panicked.Err, "panic: injected failure") {
		t.Fatalf("panic not captured as job error: %+v", panicked)
	}
	if !strings.Contains(sum.Render(), "FAILED") {
		t.Error("summary rendering must surface failed jobs")
	}
}

// TestOnResultSerialized pins Config.OnResult's serialization
// guarantee: the engine calls it from a single collector goroutine,
// never concurrently, so callers (like the CLI's unsynchronized
// progress counter and JSONL encoder) need no locking of their own.
// The callback deliberately mutates plain shared state — the -race CI
// job turns any future engine regression into a detector report — and
// an enter/exit flag catches runtime overlap even without -race.
func TestOnResultSerialized(t *testing.T) {
	m := Matrix{
		Circuits:  []string{"mul8"},
		Scenarios: []Scenario{ScenarioQuality},
		Shards:    64, ShardThreshold: 1,
		Patterns: 8,
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var inCallback atomic.Bool
	var overlaps atomic.Int64
	calls := 0 // deliberately unsynchronized: the guarantee under test
	cfg := Config{
		Parallelism: 16,
		// The stub reports a job failure (Aggregate reads no Report from
		// failed jobs) — OnResult streams every result regardless, which
		// is all this test observes.
		runJob: func(_ context.Context, j Job) Result { return Result{Job: j, Err: "stub"} },
		OnResult: func(Result) {
			if !inCallback.CompareAndSwap(false, true) {
				overlaps.Add(1)
				return
			}
			calls++
			inCallback.Store(false)
		},
	}
	if _, err := Run(context.Background(), m, cfg); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("OnResult overlapped with itself %d times; the engine must serialize it", n)
	}
	if calls != len(jobs) {
		t.Fatalf("OnResult ran %d times, want %d (one per job, serialized)", calls, len(jobs))
	}
}

func TestCampaignMatchesRunFlow(t *testing.T) {
	// A one-job holistic campaign must reproduce core.RunStages exactly
	// (same derived seed path), keeping campaign results comparable with
	// single-design flow runs.
	m := Matrix{Circuits: []string{"rca8"}, Patterns: 64, Years: 10, Seed: 42}
	sum, err := Run(context.Background(), m, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("campaign failed:\n%s", sum.Render())
	}
	direct := RunJob(context.Background(), sum.Results[0].Job)
	if direct.Err != "" {
		t.Fatal(direct.Err)
	}
	a, err := json.Marshal(direct.Report)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sum.Results[0].Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("campaign result differs from direct job run:\n%s\nvs\n%s", a, b)
	}
}

// TestCircuitArtifactSharedAcrossJobs checks the compiled-artifact
// cache contract: every job of a circuit — shard jobs included — gets
// the same netlist instance, the same compiled machine and the same
// collapsed fault list, and the netlist's own artifact cache hands the
// campaign's compiled machine to any session built over it.
func TestCircuitArtifactSharedAcrossJobs(t *testing.T) {
	a1 := circuitArtifactFor("mul8")
	if a1.err != nil {
		t.Fatal(a1.err)
	}
	a2 := circuitArtifactFor("mul8")
	if a1 != a2 || a1.n != a2.n || a1.compiled != a2.compiled {
		t.Fatal("circuit artifact must be shared across jobs of one circuit")
	}
	if len(a1.faults) == 0 {
		t.Fatal("artifact must carry the collapsed fault list")
	}
	c, err := sim.Compile(a1.n)
	if err != nil {
		t.Fatal(err)
	}
	if c != a1.compiled {
		t.Fatal("sessions over the shared netlist must reuse the campaign's compiled machine")
	}
	if other := circuitArtifactFor("alu8"); other.err == nil && other.n == a1.n {
		t.Fatal("different circuits must not share an artifact")
	}
	if bad := circuitArtifactFor("no-such-circuit"); bad.err == nil {
		t.Fatal("unknown circuit must yield an artifact error")
	}
}
