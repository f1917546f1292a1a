package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"rescue/internal/obs"
)

// RunState is the lifecycle of one campaign run, as /status and the
// multi-run server's listing report it.
type RunState string

const (
	// RunQueued: built (and, on the server, durably headered on disk)
	// but not started.
	RunQueued RunState = "queued"
	// RunRunning: the campaign is executing.
	RunRunning RunState = "running"
	// RunDone: completed; the canonical campaign.json exists.
	RunDone RunState = "done"
	// RunFailed: the campaign itself errored (not merely job failures).
	RunFailed RunState = "failed"
	// RunCanceled: canceled while queued or running (DELETE, or a server
	// drain — drained runs resume from their checkpoint on restart).
	RunCanceled RunState = "canceled"
)

// errCanceledBeforeExecution is the error of a run canceled while queued.
var errCanceledBeforeExecution = errors.New("canceled before execution")

// serverRun is one campaign run on the multi-run server and the state
// behind its /runs/{id} endpoints: /status answers with the per-aspect
// rollup-so-far, /jobs pages through per-job states, and /result serves
// the canonical campaign.json once the run is done. A run starts queued;
// an executor moves it to running and then to done, failed or canceled,
// or Cancel ends it while still queued. A run finished in an earlier
// process is restored done from its run directory.
//
// The fields down to traffic are fixed when the record is built. The
// rest are guarded by Server.mu, so each lifecycle transition is one
// critical section of the server's lock, and the endpoints read them
// under it.
type serverRun struct {
	id      int
	dir     string
	cfg     Config
	jobs    []Job
	workers int
	// result holds a restored run's campaign.json as read from disk.
	result []byte
	// traffic counts the run's own stage-cache lookups; its jobs add to
	// it atomically.
	traffic stageTraffic

	state   RunState
	results map[int]Result
	sum     *Summary
	runErr  error
	clock   obs.Span // started with the run
	// elapsed freezes the run's wall-clock when it ends.
	elapsed  time.Duration
	replayed int // checkpoint-replayed results (not executed here)
	// cacheEnd freezes the /status stage-cache block when the run ends,
	// so the shared cache's later gauges never reach it.
	cacheEnd *StageCacheStatus
	// ck is the run's open (and flock'd) checkpoint log. It has one
	// owner at a time: Submit until the run is queued, the queue until an
	// executor takes the run, then the executor; Cancel or Shutdown takes
	// it from a queued run. Whoever takes it under the lock closes it
	// outside.
	ck     *Checkpoint
	cancel context.CancelFunc // non-nil while running
	// userCanceled records an explicit tenant DELETE while running: the
	// run directory is discarded even if a server drain races the unwind
	// (s.ctx.Err() alone cannot tell the two apart).
	userCanceled bool
	// queueSpan measures admission-to-execution latency.
	queueSpan obs.Span
}

// newServerRun builds the queued record of a run over its expanded
// matrix.
func newServerRun(id int, dir string, jobs []Job, cfg Config) *serverRun {
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &serverRun{id: id, dir: dir, cfg: cfg, jobs: jobs, workers: workers,
		state: RunQueued, results: make(map[int]Result, len(jobs))}
}

// info is the run's listing entry. The caller holds Server.mu.
func (r *serverRun) info() RunInfo {
	in := RunInfo{ID: r.id, State: r.state, Jobs: len(r.jobs), Results: len(r.results), Dir: r.dir}
	if r.runErr != nil {
		in.Error = r.runErr.Error()
	}
	return in
}

// ServiceStatus is the /status payload: campaign progress plus the
// per-aspect rollups aggregated over the results so far.
type ServiceStatus struct {
	// State is "queued", "running", "done", "canceled" or "failed"
	// ("failed" meaning the campaign itself errored, not that individual
	// jobs failed — those count in Failed).
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Pending   int    `json:"pending"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Canceled  int    `json:"canceled,omitempty"`
	Workers   int    `json:"workers"`
	// Replayed counts checkpoint-replayed results included in Completed;
	// throughput is computed over the executed remainder only.
	Replayed int `json:"replayed,omitempty"`
	// ElapsedSec is wall-clock since the run started (frozen at completion);
	// JobsPerSec is executed-jobs-so-far over that window — the
	// throughput-so-far of the live campaign.
	ElapsedSec float64 `json:"elapsed_sec"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	Error      string  `json:"error,omitempty"`

	Quality     *QualityRollup     `json:"quality,omitempty"`
	Reliability *ReliabilityRollup `json:"reliability,omitempty"`
	Safety      *SafetyRollup      `json:"safety,omitempty"`
	Security    *SecurityRollup    `json:"security,omitempty"`

	// StageCache surfaces the cross-job stage cache's dedup
	// effectiveness (omitted when the run disables the cache).
	StageCache *StageCacheStatus `json:"stage_cache,omitempty"`
}

// StageCacheStatus is the /status view of the stage cache. Hits,
// Misses, Waits and Evictions are this run's own traffic, counted where
// the cache resolves each of the run's lookups (zero until it starts),
// so two campaigns sharing the process (the multi-run server's whole
// point) each report only their own dedup rate, even while both
// execute. InFlight, Entries and Bytes are point-in-time gauges of the
// shared cache itself. The whole block is frozen when the run ends. The
// raw cumulative series stay on /metrics.
type StageCacheStatus struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Waits     int64 `json:"waits"`
	InFlight  int64 `json:"in_flight"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions,omitempty"`
}

// status renders a run's stage-cache block: its own traffic and the
// shared cache's gauges.
func (t *stageTraffic) status() *StageCacheStatus {
	return &StageCacheStatus{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Waits:     t.waits.Load(),
		InFlight:  obsStageCacheInflight.Value(),
		Entries:   obsStageCacheEntries.Value(),
		Bytes:     obsStageCacheBytes.Value(),
		Evictions: t.evictions.Load(),
	}
}

// runState maps a finished campaign's error to its lifecycle state — the
// single classification shared by /status, /result and the server's
// counters, so they can never disagree about what "canceled" means.
func runState(err error) RunState {
	switch {
	case err == nil:
		return RunDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return RunCanceled
	default:
		return RunFailed
	}
}

// status aggregates r's rollup-so-far. It is what /runs/{id}/status
// serves: the run's fields are read under s.mu, the rollups aggregated
// outside it.
func (s *Server) status(r *serverRun) ServiceStatus {
	s.mu.Lock()
	results := make([]Result, 0, len(r.results))
	for _, res := range r.results {
		results = append(results, res)
	}
	state, runErr, replayed, cache := r.state, r.runErr, r.replayed, r.cacheEnd
	elapsed := r.elapsed
	if state == RunRunning {
		elapsed = r.clock.Elapsed()
	}
	s.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].Job.ID < results[j].Job.ID })

	agg := Aggregate(len(r.jobs), r.workers, results)
	st := ServiceStatus{
		State:       string(state),
		Jobs:        agg.Jobs,
		Pending:     agg.Jobs - len(results),
		Completed:   agg.Completed,
		Failed:      agg.Failed,
		Canceled:    agg.Canceled,
		Workers:     r.workers,
		Replayed:    replayed,
		ElapsedSec:  elapsed.Seconds(),
		Quality:     agg.Quality,
		Reliability: agg.Reliability,
		Safety:      agg.Safety,
		Security:    agg.Security,
	}
	if executed := len(results) - replayed; executed > 0 && st.ElapsedSec > 0 {
		st.JobsPerSec = float64(executed) / st.ElapsedSec
	}
	if runErr != nil {
		st.Error = runErr.Error()
	}
	if !r.cfg.DisableStageCache {
		if cache == nil {
			cache = r.traffic.status()
		}
		st.StageCache = cache
	}
	return st
}

// JobStatus is one entry of the /jobs page.
type JobStatus struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"` // "pending", "ok", "failed" or "canceled"
	Error  string `json:"error,omitempty"`
}

// JobsPage is the /jobs payload: one contiguous job-ID window over the
// expanded matrix.
type JobsPage struct {
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Count  int         `json:"count"`
	Jobs   []JobStatus `json:"jobs"`
}

// Page-limit discipline, shared by every paged endpoint (Server.jobs,
// Server.Runs): a non-positive limit means the default page, and no
// caller — programmatic or HTTP — ever gets more than maxPageLimit rows
// per call. The clamps live here, not in the HTTP handlers, because the
// expensive part (assembling rows under the store mutex) happens in the
// accessors: Jobs(0, 0) must not build the whole expanded matrix.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// clampPage normalizes a page window. Negative offsets clamp to 0 here;
// the HTTP layer is stricter (pageParams rejects them with 400) so a
// malformed query fails loudly while programmatic callers stay total.
func clampPage(offset, limit int) (int, int) {
	if offset < 0 {
		offset = 0
	}
	if limit <= 0 {
		limit = defaultPageLimit
	} else if limit > maxPageLimit {
		limit = maxPageLimit
	}
	return offset, limit
}

// jobs returns r's [offset, offset+limit) window of per-job states in
// job-ID order, clamped per clampPage. It is what /runs/{id}/jobs
// serves.
func (s *Server) jobs(r *serverRun, offset, limit int) JobsPage {
	offset, limit = clampPage(offset, limit)
	if offset > len(r.jobs) {
		offset = len(r.jobs)
	}
	end := offset + limit
	// end < offset catches integer overflow of a huge offset.
	if end > len(r.jobs) || end < offset {
		end = len(r.jobs)
	}
	page := JobsPage{Total: len(r.jobs), Offset: offset, Jobs: make([]JobStatus, 0, end-offset)}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range r.jobs[offset:end] {
		js := JobStatus{ID: j.ID, Name: j.Name(), Status: "pending"}
		if res, ok := r.results[j.ID]; ok {
			switch {
			case res.Canceled:
				js.Status = "canceled"
				js.Error = res.Err
			case res.Err != "":
				js.Status = "failed"
				js.Error = res.Err
			default:
				js.Status = "ok"
			}
		}
		page.Jobs = append(page.Jobs, js)
	}
	page.Count = len(page.Jobs)
	return page
}

// writeResult serves r's canonical campaign result: the campaign.json
// bytes once the run completed, 409 {"state":"queued"} or
// {"state":"running"} before, 409 {"state":"canceled"} for a canceled run
// (cancellation is a lifecycle conflict, not a server fault — matching
// /status's state machine), and 500 {"state":"failed"} only when the
// campaign itself errored.
func (s *Server) writeResult(w http.ResponseWriter, r *serverRun) {
	s.mu.Lock()
	state, sum, runErr := r.state, r.sum, r.runErr
	s.mu.Unlock()
	switch state {
	case RunQueued, RunRunning:
		writeJSON(w, http.StatusConflict, map[string]string{"state": string(state), "error": "campaign still " + string(state)})
		return
	case RunCanceled:
		writeJSON(w, http.StatusConflict, map[string]string{"state": string(state), "error": runErr.Error()})
		return
	case RunFailed:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"state": string(state), "error": runErr.Error()})
		return
	}
	result := r.result
	if result == nil {
		js, err := sum.JSON()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"state": string(RunFailed), "error": err.Error()})
			return
		}
		result = append(js, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// pageParams reads the offset and limit query parameters (defaults 0 and
// defaultPageLimit), answering 400 itself when one is malformed.
func pageParams(w http.ResponseWriter, r *http.Request) (offset, limit int, ok bool) {
	q := r.URL.Query()
	vals := [2]int{0, defaultPageLimit}
	for i, name := range [2]string{"offset", "limit"} {
		raw := q.Get(name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad %s parameter %q", name, raw)})
			return 0, 0, false
		}
		vals[i] = v
	}
	return vals[0], vals[1], true
}
