package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/obs"
)

// Campaign engine instrumentation. The queue-depth gauge tracks jobs
// expanded but not yet claimed by a worker, summed across concurrent
// runs (each run adds its pending count and decrements per claim,
// returning its remainder on exit); the job histogram records per-job
// wall-clock.
var (
	obsRuns          = obs.NewCounter("campaign_runs_total", "Campaign runs started.")
	obsJobsStarted   = obs.NewCounter("campaign_jobs_started_total", "Jobs dispatched to campaign workers.")
	obsJobsCompleted = obs.NewCounter("campaign_jobs_completed_total", "Jobs finished by campaign workers (any outcome).")
	obsJobsFailed    = obs.NewCounter("campaign_jobs_failed_total", "Jobs finished with an error (cancellations excluded).")
	obsJobsCanceled  = obs.NewCounter("campaign_jobs_canceled_total", "Jobs interrupted by campaign cancellation.")
	obsJobsReplayed  = obs.NewCounter("campaign_jobs_replayed_total", "Jobs skipped because a checkpoint log already held their result.")
	obsQueueDepth    = obs.NewGauge("campaign_queue_depth", "Jobs expanded but not yet dispatched, across all in-process runs.")
	obsJobSeconds    = obs.NewHistogram("campaign_job_seconds", "Wall-clock of one campaign job.", obs.DurationBuckets)
)

// Config tunes one campaign run.
type Config struct {
	// Parallelism is the worker count; <= 0 selects runtime.NumCPU().
	// Workers with no queued job left are lent to the running jobs'
	// PODEM searches (see Run), so a matrix narrower than the machine
	// still uses every worker.
	Parallelism int
	// OnResult, when set, streams each job result as it completes. It is
	// called from a single collector goroutine (never concurrently), in
	// completion order — which is nondeterministic under parallelism; the
	// final Summary is always sorted and deterministic. Results a
	// checkpoint replays (see Checkpoint.Run) are not streamed — they were
	// streamed by the run that produced them.
	//
	// The serialization is a load-bearing API guarantee, not an
	// implementation accident: callers (the CLI's progress counter and
	// JSONL stream encoder among them) mutate shared state from the
	// callback without any locking of their own. The engine owns that
	// synchronization — all workers funnel into one collector loop — and
	// TestOnResultSerialized pins it under the race detector.
	OnResult func(Result)

	// DisableStageCache bypasses the process-wide cross-job stage cache:
	// every job recomputes all of its stages. Results are byte-identical
	// either way — a stage's cache key covers every declared input, so a
	// hit returns exactly what recomputation would — making this an
	// ablation/debugging escape hatch (rescue-campaign -stage-cache=off),
	// not a semantics switch.
	DisableStageCache bool

	// completed holds the results Checkpoint.Run replays from its log:
	// their jobs are skipped instead of re-run and the results merge into
	// the Summary as-is, so a resumed campaign aggregates to the same
	// bytes as an uninterrupted one. Every entry must match a distinct
	// job of the expanded matrix exactly. Replayed jobs never execute, so
	// they neither consult nor repopulate the stage cache.
	completed []Result
	// traffic, when set, counts the run's own stage-cache lookups (the
	// multi-run server's /status block).
	traffic *stageTraffic

	// runJob overrides the job runner in tests (panic injection etc.).
	runJob func(context.Context, Job) Result
}

// Result is the outcome of one job. Exactly one of Report/Err is set.
type Result struct {
	Job    Job          `json:"job"`
	Report *core.Report `json:"report,omitempty"`
	Err    string       `json:"error,omitempty"`
	// Canceled marks a job interrupted by campaign cancellation rather
	// than failed on its own; Err still carries the context error.
	Canceled bool `json:"canceled,omitempty"`
	// Elapsed is wall-clock and excluded from JSON so that serialised
	// campaign output is bit-identical across runs and parallelism levels.
	Elapsed time.Duration `json:"-"`
}

// Run expands the matrix and executes every job on a worker pool whose
// workers claim the jobs in matrix order. The returned Summary
// aggregates all completed jobs sorted by job ID, so it is byte-for-byte
// identical at any parallelism level. On cancellation it returns the
// partial summary together with the context error; in-flight jobs stop
// at the next stage boundary and are recorded as cancelled (not
// failed), unclaimed jobs are dropped.
//
// The run keeps a budget of spare worker slots (atpg.Slots) that its
// jobs' quality and safety stages borrow PODEM helpers from. A worker
// adds its slot only once it finds no job left to claim, and workers a
// short queue never needs start out lent, so lending never delays a
// queued job. Which goroutine runs a search never changes its result.
func Run(ctx context.Context, m Matrix, cfg Config) (*Summary, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	// Replayed results take their jobs off the schedule; each must match
	// its matrix cell exactly, or the checkpoint belongs to a different
	// campaign and resuming would silently mix runs.
	replayed := make(map[int]bool, len(cfg.completed))
	for _, r := range cfg.completed {
		if err := validateReplayed(r, jobs, replayed); err != nil {
			return nil, fmt.Errorf("campaign: completed result: %v", err)
		}
	}
	pending := jobs
	if len(replayed) > 0 {
		pending = make([]Job, 0, len(jobs)-len(replayed))
		for _, j := range jobs {
			if !replayed[j.ID] {
				pending = append(pending, j)
			}
		}
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	spare := atpg.NewSlots(workers - len(pending))
	if workers > len(pending) {
		workers = len(pending)
	}
	run := cfg.runJob
	if run == nil {
		cache := sharedStageCache
		if cfg.DisableStageCache {
			cache = nil
		}
		traffic := cfg.traffic
		if traffic == nil {
			traffic = new(stageTraffic)
		}
		run = func(ctx context.Context, j Job) Result { return runJobWith(ctx, j, spare, cache, traffic) }
	}
	obsRuns.Inc()
	obsJobsReplayed.Add(int64(len(replayed)))
	obsQueueDepth.Add(int64(len(pending)))

	// Workers claim pending jobs in matrix order. The context is checked
	// before every claim, so a canceled run starts no further job.
	var next atomic.Int64
	resCh := make(chan Result)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(pending)) {
					break
				}
				obsQueueDepth.Add(-1)
				obsJobsStarted.Inc()
				resCh <- safeRun(ctx, pending[i], run)
			}
			// Nothing is left to claim: lend this worker to the jobs
			// still running.
			spare.Add(1)
		}()
	}
	go func() {
		wg.Wait()
		// Jobs never claimed (cancellation) leave the queue with the run.
		obsQueueDepth.Add(-max(int64(len(pending))-next.Load(), 0))
		close(resCh)
	}()

	results := make([]Result, 0, len(jobs))
	results = append(results, cfg.completed...)
	for r := range resCh {
		obsJobsCompleted.Inc()
		switch {
		case r.Canceled:
			obsJobsCanceled.Inc()
		case r.Err != "":
			obsJobsFailed.Inc()
		}
		if cfg.OnResult != nil {
			cfg.OnResult(r)
		}
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job.ID < results[j].Job.ID })
	sum := Aggregate(len(jobs), workers, results)
	if err := ctx.Err(); err != nil && (sum.Canceled > 0 || len(results) < len(jobs)) {
		// A cancellation that arrived after the last job finished did not
		// cost anything — don't discard a complete campaign over it.
		return sum, err
	}
	return sum, nil
}

// safeRun shields the worker pool from a panicking job: the panic becomes
// that job's error result and the remaining jobs keep running. The job's
// wall-clock is measured by an obs span — ending it both records the
// campaign_job_seconds histogram and yields the Elapsed the result
// carries — so the engine itself never reads the clock (rescue-lint's
// determinism pass keeps it that way).
func safeRun(ctx context.Context, j Job, run func(context.Context, Job) Result) (res Result) {
	sp := obs.StartSpan(obsJobSeconds)
	defer func() {
		if r := recover(); r != nil {
			res = Result{Job: j, Err: fmt.Sprintf("panic: %v", r)}
		}
		res.Elapsed = sp.End()
	}()
	return run(ctx, j)
}

// runJobWith executes one job: it takes the circuit's shared
// per-campaign artifact (flow netlist, compiled simulation machine,
// collapsed fault list — built once, shared by every shard job and
// repeated scenario of the circuit), slices the job's fault shard, and
// runs the scenario's stages with per-stage declared-input seeds derived
// from the job coordinates. Every input is recomputed from the
// coordinates, so the result is independent of which worker runs it and
// of what ran before — including whether a stage came out of the shared
// stage cache. The run's spare-worker budget and stage cache (nil for
// none) are not Job coordinates: results are identical at any budget
// and with the cache on or off, so checkpoints and job identity stay
// untouched by both. The job's cache lookups count in traffic.
func runJobWith(ctx context.Context, j Job, spare *atpg.Slots, cache *stageCache, traffic *stageTraffic) Result {
	art := circuitArtifactFor(j.Circuit)
	if art.err != nil {
		return Result{Job: j, Err: art.err.Error()}
	}
	n := art.n
	env, ok := Environments[j.Environment]
	if !ok {
		return Result{Job: j, Err: fmt.Sprintf("campaign: unknown environment %q", j.Environment)}
	}
	tech, ok := Technologies[j.Technology]
	if !ok {
		return Result{Job: j, Err: fmt.Sprintf("campaign: unknown technology %q", j.Technology)}
	}
	stages, err := j.Scenario.Stages()
	if err != nil {
		return Result{Job: j, Err: err.Error()}
	}
	// The memoised canonical fault list is identical to what the flow
	// would collapse itself (fault indices are instance-independent), so
	// every job of a circuit shares one collapse.
	all := art.faults
	faults := all
	var share float64
	skipAging := false
	if j.Shards > 1 {
		lo, hi := ShardBounds(len(all), j.Shard, j.Shards)
		faults = all[lo:hi]
		share = float64(hi-lo) / float64(len(all))
		// The security stage and the BTI aging analysis cover the whole
		// netlist regardless of the fault subset, so only shard 0
		// measures them — the other shards would just repeat the same
		// whole-circuit computation at a different seed.
		if j.Shard > 0 {
			skipAging = true
			kept := stages[:0]
			for _, s := range stages {
				if s != core.StageSecurity {
					kept = append(kept, s)
				}
			}
			stages = kept
		}
	}
	cfg := core.FlowConfig{
		Netlist:     n,
		Faults:      faults,
		FaultShare:  share,
		SkipAging:   skipAging,
		Environment: env,
		Technology:  tech,
		Years:       j.Years,
		Patterns:    j.Patterns,
		Seed:        j.Seed,
		StageSeeds:  stageSeedsFor(j, stages),
		Spare:       spare,
	}
	if cache != nil {
		cfg.Memo = jobMemo{ctx: ctx, cache: cache, traffic: traffic, job: j}
	}
	rep, err := core.RunStages(ctx, cfg, stages...)
	if err != nil {
		return Result{Job: j, Err: err.Error(), Canceled: ctx.Err() != nil && errors.Is(err, ctx.Err())}
	}
	return Result{Job: j, Report: rep}
}
