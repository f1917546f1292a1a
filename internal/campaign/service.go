package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
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
	// RunRunning: Run is executing the campaign.
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

// Service is one campaign run and its HTTP API: /status answers with the
// per-aspect rollup-so-far, /jobs pages through per-job states, and
// /result serves the canonical campaign.json once the run is done. A
// Service starts queued; Run moves it to running and then to done,
// failed or canceled. The multi-run server additionally cancels queued
// services before they run and restores finished ones from their run
// directories, and serves the same endpoints under /runs/{id}. The
// handlers are safe against the in-flight worker pool, so a long
// campaign can be observed live; Serve drains in-flight requests on
// shutdown.
type Service struct {
	matrix  Matrix
	cfg     Config
	jobs    []Job
	workers int

	mu      sync.Mutex
	state   RunState
	results map[int]Result
	sum     *Summary
	// result holds a restored run's campaign.json as read from disk.
	result []byte
	runErr error
	clock  obs.Span // started with the run
	// elapsed freezes the run's wall-clock when it ends.
	elapsed  time.Duration
	replayed int // checkpoint-replayed results (not executed here)
	// cacheBase is the process-wide stage-cache counter snapshot taken
	// when this run started (nil before); /status reports deltas against
	// it so a multi-run process never misattributes other runs' cache
	// traffic. cacheEnd freezes the block when the run ends, so traffic
	// of runs made after it never reaches its /status either.
	cacheBase, cacheEnd *StageCacheStatus
}

// drainTimeout bounds the graceful-shutdown drain of in-flight requests.
const drainTimeout = 5 * time.Second

// NewService validates the matrix and prepares a queued service around
// it. Run starts the campaign; Handler (or Serve) answers concurrently
// from the first request on.
func NewService(m Matrix, cfg Config) (*Service, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Service{
		matrix:  m,
		cfg:     cfg,
		jobs:    jobs,
		workers: workers,
		state:   RunQueued,
		results: make(map[int]Result, len(jobs)),
	}, nil
}

// restoreService rebuilds the done Service of a run that completed in an
// earlier process from its campaign.json bytes, which /result then serves
// as they are. It never runs here, so it has no workers, no stage-cache
// view and no wall-clock to report.
func restoreService(m Matrix, raw []byte) (*Service, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	var sum Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return nil, err
	}
	s := &Service{matrix: m, cfg: Config{DisableStageCache: true}, jobs: jobs,
		state: RunDone, result: raw, results: make(map[int]Result, len(jobs))}
	seen := make(map[int]bool, len(sum.Results))
	for _, r := range sum.Results {
		if err := validateReplayed(r, jobs, seen); err != nil {
			return nil, err
		}
		s.results[r.Job.ID] = r
	}
	return s, nil
}

// Run executes the campaign, recording every result for the HTTP API; a
// non-nil checkpoint makes the run durable (replayed jobs appear as
// already completed, new results hit the log before the API sees them).
// It blocks until the campaign finishes and must be called at most once,
// on a queued service.
func (s *Service) Run(ctx context.Context, ck *Checkpoint) (*Summary, error) {
	if err := s.start(); err != nil {
		return nil, err
	}
	return s.run(ctx, ck)
}

// start moves a queued service to running.
func (s *Service) start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != RunQueued {
		return fmt.Errorf("campaign: run already %s", s.state)
	}
	base := stageCacheSnapshot()
	s.state, s.cacheBase, s.clock = RunRunning, &base, obs.StartSpan(nil)
	return nil
}

// run executes a started service's campaign; see Run.
func (s *Service) run(ctx context.Context, ck *Checkpoint) (*Summary, error) {
	cfg := s.cfg
	user := cfg.OnResult
	cfg.OnResult = func(r Result) {
		s.record(r)
		if user != nil {
			user(r)
		}
	}
	var sum *Summary
	var err error
	if ck != nil {
		err = s.bind(ck)
		if err == nil {
			sum, err = ck.Run(ctx, cfg)
		}
	} else {
		sum, err = Run(ctx, s.matrix, cfg)
	}
	s.mu.Lock()
	s.state, s.sum, s.runErr = runState(err), sum, err
	s.elapsed = s.clock.Elapsed()
	s.cacheEnd = stageCacheTraffic(s.cacheBase)
	s.mu.Unlock()
	return sum, err
}

// cancelQueued ends a service that has not started: it reports canceled
// with errCanceledBeforeExecution, and Run refuses to start it. It
// returns false once the service has started.
func (s *Service) cancelQueued() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != RunQueued {
		return false
	}
	s.state, s.runErr = RunCanceled, errCanceledBeforeExecution
	s.cacheEnd = stageCacheTraffic(nil)
	return true
}

// bind verifies the checkpoint belongs to this service's matrix and
// surfaces its replayed results through the API. Binding the same log
// twice is harmless: results are keyed by job ID.
func (s *Service) bind(ck *Checkpoint) error {
	a, err := matrixIdentity(s.matrix)
	if err != nil {
		return err
	}
	b, err := matrixIdentity(ck.matrix)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("campaign: service and checkpoint matrices differ")
	}
	for _, r := range ck.Completed() {
		s.record(r)
	}
	s.mu.Lock()
	s.replayed = len(ck.Completed())
	s.mu.Unlock()
	return nil
}

func (s *Service) record(r Result) {
	s.mu.Lock()
	s.results[r.Job.ID] = r
	s.mu.Unlock()
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
	// ElapsedSec is wall-clock since Run started (frozen at completion);
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
// Misses, Waits and Evictions are this run's own traffic — deltas of
// the process-wide counters since the run started (zero until it
// starts), so two campaigns sharing the process (the multi-run server's
// whole point) each report only their own dedup rate. InFlight, Entries
// and Bytes are point-in-time gauges of the shared cache itself. The
// whole block is frozen when the run ends. The raw cumulative series
// stay on /metrics.
type StageCacheStatus struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Waits     int64 `json:"waits"`
	InFlight  int64 `json:"in_flight"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions,omitempty"`
}

// stageCacheSnapshot samples the cache's process-wide obs series.
func stageCacheSnapshot() StageCacheStatus {
	return StageCacheStatus{
		Hits:      obsStageCacheHits.Value(),
		Misses:    obsStageCacheMisses.Value(),
		Waits:     obsStageCacheWaits.Value(),
		InFlight:  obsStageCacheInflight.Value(),
		Entries:   obsStageCacheEntries.Value(),
		Bytes:     obsStageCacheBytes.Value(),
		Evictions: obsStageCacheEvicted.Value(),
	}
}

// stageCacheTraffic reports the shared cache's gauges and a run's own
// traffic since base, the snapshot taken when the run started (none
// while base is nil: the run has not started).
func stageCacheTraffic(base *StageCacheStatus) *StageCacheStatus {
	now := stageCacheSnapshot()
	st := &StageCacheStatus{InFlight: now.InFlight, Entries: now.Entries, Bytes: now.Bytes}
	if base != nil {
		st.Hits = now.Hits - base.Hits
		st.Misses = now.Misses - base.Misses
		st.Waits = now.Waits - base.Waits
		st.Evictions = now.Evictions - base.Evictions
	}
	return st
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

// Status aggregates the rollup-so-far. It is what /status serves.
func (s *Service) Status() ServiceStatus {
	s.mu.Lock()
	results := make([]Result, 0, len(s.results))
	for _, r := range s.results {
		results = append(results, r)
	}
	state, runErr, replayed := s.state, s.runErr, s.replayed
	cacheBase, cacheEnd := s.cacheBase, s.cacheEnd
	elapsed := s.elapsed
	if state == RunRunning {
		elapsed = s.clock.Elapsed()
	}
	s.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].Job.ID < results[j].Job.ID })

	agg := Aggregate(len(s.jobs), s.workers, results)
	st := ServiceStatus{
		State:       string(state),
		Jobs:        agg.Jobs,
		Pending:     agg.Jobs - len(results),
		Completed:   agg.Completed,
		Failed:      agg.Failed,
		Canceled:    agg.Canceled,
		Workers:     s.workers,
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
	if !s.cfg.DisableStageCache {
		if cacheEnd != nil {
			frozen := *cacheEnd
			st.StageCache = &frozen
		} else {
			st.StageCache = stageCacheTraffic(cacheBase)
		}
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

// Page-limit discipline, shared by every paged endpoint (Service.Jobs,
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

// Jobs returns the [offset, offset+limit) window of per-job states in
// job-ID order, clamped per clampPage. It is what /jobs serves.
func (s *Service) Jobs(offset, limit int) JobsPage {
	offset, limit = clampPage(offset, limit)
	if offset > len(s.jobs) {
		offset = len(s.jobs)
	}
	end := offset + limit
	// end < offset catches integer overflow of a huge offset.
	if end > len(s.jobs) || end < offset {
		end = len(s.jobs)
	}
	page := JobsPage{Total: len(s.jobs), Offset: offset, Jobs: make([]JobStatus, 0, end-offset)}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs[offset:end] {
		js := JobStatus{ID: j.ID, Name: j.Name(), Status: "pending"}
		if r, ok := s.results[j.ID]; ok {
			switch {
			case r.Canceled:
				js.Status = "canceled"
				js.Error = r.Err
			case r.Err != "":
				js.Status = "failed"
				js.Error = r.Err
			default:
				js.Status = "ok"
			}
		}
		page.Jobs = append(page.Jobs, js)
	}
	page.Count = len(page.Jobs)
	return page
}

// runInfo is the run's listing entry on the multi-run server.
func (s *Service) runInfo(id int, dir string) RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := RunInfo{ID: id, State: s.state, Jobs: len(s.jobs), Results: len(s.results), Dir: dir}
	if s.runErr != nil {
		in.Error = s.runErr.Error()
	}
	return in
}

// Handler returns the service's HTTP API:
//
//	GET /status  — ServiceStatus JSON (rollup-so-far + throughput-so-far)
//	GET /jobs    — JobsPage JSON; query params offset, limit (default 100)
//	GET /result  — the canonical campaign.json once done (409 before)
//	GET /metrics — the process-wide obs registry in Prometheus text format
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Default.Handler())
	runRoutes(mux, "", func(http.ResponseWriter, *http.Request) *Service { return s })
	return mux
}

// runRoutes registers one run's endpoints under prefix: GET
// prefix/status, prefix/jobs and prefix/result, answered by the Service
// resolve returns for the request. resolve answers the request itself
// and returns nil when there is no such run.
func runRoutes(mux *http.ServeMux, prefix string, resolve func(http.ResponseWriter, *http.Request) *Service) {
	mux.HandleFunc("GET "+prefix+"/status", func(w http.ResponseWriter, r *http.Request) {
		if s := resolve(w, r); s != nil {
			writeJSON(w, http.StatusOK, s.Status())
		}
	})
	mux.HandleFunc("GET "+prefix+"/jobs", func(w http.ResponseWriter, r *http.Request) {
		s := resolve(w, r)
		if s == nil {
			return
		}
		// Jobs itself clamps (default page on limit<=0, maxPageLimit cap),
		// so an explicit limit=0 serves the default page, never the whole
		// expanded matrix.
		if offset, limit, ok := pageParams(w, r); ok {
			writeJSON(w, http.StatusOK, s.Jobs(offset, limit))
		}
	})
	mux.HandleFunc("GET "+prefix+"/result", func(w http.ResponseWriter, r *http.Request) {
		if s := resolve(w, r); s != nil {
			s.writeResult(w)
		}
	})
}

// writeResult serves the canonical campaign result: the campaign.json
// bytes once the run completed, 409 {"state":"queued"} or
// {"state":"running"} before, 409 {"state":"canceled"} for a canceled run
// (cancellation is a lifecycle conflict, not a server fault — matching
// /status's state machine), and 500 {"state":"failed"} only when the
// campaign itself errored.
func (s *Service) writeResult(w http.ResponseWriter) {
	s.mu.Lock()
	state, sum, result, runErr := s.state, s.sum, s.result, s.runErr
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

// Serve answers API requests on the listener until ctx is cancelled,
// then shuts down gracefully: new connections stop, in-flight requests
// drain (bounded by drainTimeout) before Serve returns. The campaign
// itself is driven by Run, typically in another goroutine.
func (s *Service) Serve(ctx context.Context, ln net.Listener) error {
	return serve(ctx, ln, s.Handler(), nil)
}

// serve answers h on the listener until ctx is cancelled. It then runs
// drain, if any, and lets in-flight requests finish, both within
// drainTimeout, and returns drain's error first.
func serve(ctx context.Context, ln net.Listener, h http.Handler, drain func(context.Context) error) error {
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		var derr error
		if drain != nil {
			derr = drain(shctx)
		}
		herr := srv.Shutdown(shctx)
		<-errCh // Serve has returned http.ErrServerClosed
		if derr != nil {
			return derr
		}
		return herr
	}
}
