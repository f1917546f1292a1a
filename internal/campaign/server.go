package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rescue/internal/obs"
)

// The multi-tenant campaign server, the one HTTP surface for campaigns
// (rescue-campaign -multi BASE_DIR -serve ADDR). Matrix specs POSTed to
// /runs are validated (Matrix.Expand) and admitted into a bounded run
// queue — a full queue answers 429 with Retry-After instead of letting
// work pile up unboundedly — and a fixed pool of executors drains the
// queue with bounded concurrency. Every run owns a run directory under
// the server's base directory, written exclusively through the fsync'd
// checkpoint layer, so a server crash loses no completed job: on
// restart the base directory is scanned and every unfinished run
// re-queues from its log, byte-identical to never having crashed.
// Concurrent runs share the process-wide circuit-artifact and stage
// caches — overlapping matrices deduplicate across tenants exactly as
// overlapping jobs deduplicate within one run.

// Server admission/lifecycle instrumentation. Queue depth tracks runs
// admitted but not yet taken by an executor; the wait histogram records
// how long an admitted run sat in the queue before an executor picked it
// up — the number the load-test harness watches to find the
// admission/concurrency knee.
var (
	obsServerQueueDepth = obs.NewGauge("campaign_server_run_queue_depth",
		"Campaign runs admitted to the server queue but not yet executing.")
	obsServerQueueWait = obs.NewHistogram("campaign_server_queue_wait_seconds",
		"Time an admitted run spent queued before an executor took it.", obs.DurationBuckets)
	obsServerAdmitted = obs.NewCounter("campaign_server_runs_admitted_total",
		"Campaign runs accepted into the server's run queue.")
	obsServerRejected = obs.NewCounter("campaign_server_runs_rejected_total",
		"Campaign run submissions rejected because the run queue was full.")
	obsServerCompleted = obs.NewCounter("campaign_server_runs_completed_total",
		"Server-managed campaign runs that finished with a summary.")
	obsServerFailed = obs.NewCounter("campaign_server_runs_failed_total",
		"Server-managed campaign runs that ended in an error (cancellations excluded).")
	obsServerCanceled = obs.NewCounter("campaign_server_runs_canceled_total",
		"Server-managed campaign runs canceled while queued or running.")
	obsServerRecovered = obs.NewCounter("campaign_server_runs_recovered_total",
		"Unfinished runs re-queued from their run directories at server start.")
	obsServerRecoverSkipped = obs.NewCounter("campaign_server_recover_skipped_total",
		"Run directories skipped at server start (undecodable header or log).")
	obsServerActive = obs.NewGauge("campaign_server_active_runs",
		"Campaign runs currently executing on the server.")
)

// retryAfterSec is the Retry-After hint, in seconds, attached to 429
// responses.
const retryAfterSec = 1

// ServerConfig tunes a multi-run campaign server.
type ServerConfig struct {
	// BaseDir is the directory run directories are created under
	// (BaseDir/run-NNNNNN). It is required: the server is durable by
	// design, and every admitted run is headered on disk before the
	// client sees 202. On construction the directory is scanned and
	// unfinished runs re-queue from their checkpoints.
	BaseDir string
	// QueueCapacity bounds the admission queue (0 selects 16; negative
	// is refused). A POST arriving at a full queue is rejected with 429
	// and Retry-After — backpressure, not buffering.
	QueueCapacity int
	// MaxActiveRuns bounds how many runs execute concurrently (0 selects
	// 2; negative is refused). Each run additionally parallelises
	// internally per RunConfig.Parallelism.
	MaxActiveRuns int
	// RunConfig is the engine Config template every run executes under.
	// OnResult must be nil: results stream per run through the checkpoint
	// log and the /runs API.
	RunConfig Config
}

// RunInfo is one entry of the /runs listing (and the POST /runs and
// DELETE /runs/{id} response body).
type RunInfo struct {
	ID    int      `json:"id"`
	State RunState `json:"state"`
	// Jobs is the expanded matrix size; Results counts job results
	// recorded so far (any outcome — the per-state split lives on
	// /runs/{id}/status).
	Jobs    int    `json:"jobs"`
	Results int    `json:"results"`
	Dir     string `json:"dir,omitempty"`
	Error   string `json:"error,omitempty"`
}

// RunsPage is the /runs payload: one admission-ordered window over the
// server's runs.
type RunsPage struct {
	Total  int       `json:"total"`
	Offset int       `json:"offset"`
	Count  int       `json:"count"`
	Runs   []RunInfo `json:"runs"`
}

// Server is a long-lived multi-run campaign service. Construct with
// NewServer, expose Handler (or Serve), submit matrices over POST /runs,
// and Shutdown to drain: active runs stop at the next stage boundary
// with their checkpoints intact, queued runs stay durable on disk, and
// both resume when the next server starts on the same base directory.
//
// mu is the one lock on every run's lifecycle: admission, dispatch,
// cancellation and drain are each a single critical section over the
// listing, the queue and the run's record.
type Server struct {
	cfg ServerConfig

	ctx    context.Context // cancelled by Shutdown; parents every run
	cancel context.CancelFunc
	wg     sync.WaitGroup // executors
	// wake holds one token: a run was queued or the server drains.
	wake chan struct{}

	mu        sync.Mutex
	runs      map[int]*serverRun
	order     []*serverRun // admission order; the /runs listing walks this
	queue     []*serverRun // queued runs in admission order, bounded by QueueCapacity
	nextID    int
	draining  bool
	recovered int

	// testBeforeQueue, when non-nil, runs in Submit's window between the
	// checkpoint write and the queue insert — tests use it to interleave
	// a rival Submit deterministically.
	testBeforeQueue func()
}

// NewServer validates the config, recovers the base directory's
// unfinished runs into the queue, and starts the executor pool.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("campaign: ServerConfig.BaseDir is required (the server is durable by design)")
	}
	if cfg.RunConfig.OnResult != nil {
		return nil, fmt.Errorf("campaign: ServerConfig.RunConfig must not set OnResult (per-run streaming belongs to the server)")
	}
	if cfg.QueueCapacity < 0 || cfg.MaxActiveRuns < 0 {
		return nil, fmt.Errorf("campaign: ServerConfig.QueueCapacity and MaxActiveRuns must not be negative, got %d and %d", cfg.QueueCapacity, cfg.MaxActiveRuns)
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 16
	}
	if cfg.MaxActiveRuns == 0 {
		cfg.MaxActiveRuns = 2
	}
	if err := os.MkdirAll(cfg.BaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: server base dir: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
		runs:   make(map[int]*serverRun),
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	for w := 0; w < cfg.MaxActiveRuns; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				ctx, r, ck := s.take()
				if r == nil {
					return
				}
				s.execute(ctx, r, ck)
			}
		}()
	}
	return s, nil
}

// Recovered reports how many unfinished runs NewServer re-queued from
// the base directory.
func (s *Server) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// runDirName renders (and runDirID parses) the durable run-directory
// naming scheme — the run ID survives restarts through it.
func runDirName(id int) string { return fmt.Sprintf("run-%06d", id) }

func runDirID(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "run-")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	// Only the canonical spelling names a run: run-1, run-+1 or
	// run-0000001 would otherwise alias run-000001's ID in the run table.
	if err != nil || id < 0 || runDirName(id) != name {
		return 0, false
	}
	return id, true
}

// recover scans the base directory and rebuilds the run table: a run
// directory with a campaign.json is a completed run served from disk; one
// with only a checkpoint log re-queues and resumes. Directories whose
// header cannot be decoded (nothing durable ever landed) are skipped and
// counted — never silently deleted.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.BaseDir) // ReadDir sorts by name = ID order
	if err != nil {
		return fmt.Errorf("campaign: scanning %s: %v", s.cfg.BaseDir, err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id, ok := runDirID(ent.Name())
		if !ok {
			continue
		}
		dir := filepath.Join(s.cfg.BaseDir, ent.Name())
		if id >= s.nextID {
			s.nextID = id + 1
		}
		r, err := s.recoverRun(id, dir)
		if err != nil {
			obsServerRecoverSkipped.Inc()
			continue
		}
		// Recovery never drops a durable run, whatever the queue's bound.
		s.mu.Lock()
		s.addLocked(r)
		if r.ck != nil { // unfinished
			s.recovered++
			obsServerRecovered.Inc()
		}
		s.mu.Unlock()
	}
	return nil
}

func (s *Server) recoverRun(id int, dir string) (*serverRun, error) {
	m, err := PeekMatrix(dir)
	if err != nil {
		return nil, err
	}
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, SummaryFile)); err == nil {
		// Completed before the previous process died: serve the durable
		// bytes as-is — no re-execution, so no workers, no stage-cache
		// view and no wall-clock to report.
		var sum Summary
		if err := json.Unmarshal(raw, &sum); err != nil {
			return nil, fmt.Errorf("campaign: %s: corrupt %s: %v", dir, SummaryFile, err)
		}
		r := &serverRun{id: id, dir: dir, cfg: Config{DisableStageCache: true}, jobs: jobs,
			state: RunDone, result: raw, results: make(map[int]Result, len(jobs))}
		seen := make(map[int]bool, len(sum.Results))
		for _, res := range sum.Results {
			if err := validateReplayed(res, jobs, seen); err != nil {
				return nil, fmt.Errorf("campaign: %s: corrupt %s: %v", dir, SummaryFile, err)
			}
			r.results[res.Job.ID] = res
		}
		return r, nil
	}
	// Unfinished: hold the log (and its flock) and re-queue. Resume
	// validates every durable record against the header's own matrix, and
	// the logged results count on the API while the run waits.
	ck, err := Resume(dir, m)
	if err != nil {
		return nil, err
	}
	r := newServerRun(id, dir, jobs, s.cfg.RunConfig)
	for _, res := range ck.Completed() {
		r.results[res.Job.ID] = res
	}
	r.replayed, r.ck = len(ck.Completed()), ck
	return r, nil
}

// addLocked lists r and, while it holds a checkpoint to run under,
// queues it and wakes an executor. The caller holds s.mu.
func (s *Server) addLocked(r *serverRun) {
	s.runs[r.id] = r
	s.order = append(s.order, r)
	if r.ck != nil {
		r.queueSpan = obs.StartSpan(obsServerQueueWait)
		s.queue = append(s.queue, r)
		obsServerQueueDepth.Add(1)
		s.signal()
	}
}

// refuseLocked reports why the server admits no run now: it drains, or
// its queue is full (counted as a rejection). The caller holds s.mu.
func (s *Server) refuseLocked() error {
	switch {
	case s.draining:
		return ErrDraining
	case len(s.queue) >= s.cfg.QueueCapacity:
		obsServerRejected.Inc()
		return ErrQueueFull
	}
	return nil
}

// Submit validates and admits one matrix: the run directory and its
// checkpoint header are durable before Submit returns. A full queue
// returns ErrQueueFull; a draining server returns ErrDraining. Both are
// checked before the checkpoint write, so a rejection storm churns no
// directories, and again when the run joins the listing and the queue
// together; a Submit that loses the last slot (or to a drain) in between
// destroys only its own directory.
func (s *Server) Submit(m Matrix) (RunInfo, error) {
	jobs, err := m.Expand()
	if err != nil {
		return RunInfo{}, err
	}
	s.mu.Lock()
	err = s.refuseLocked()
	id := s.nextID
	if err == nil {
		s.nextID++
	}
	s.mu.Unlock()
	if err != nil {
		return RunInfo{}, err
	}

	dir := filepath.Join(s.cfg.BaseDir, runDirName(id))
	// Expand already validated the spec above, so a failure here is the
	// server's own (disk) — wrapped so the HTTP layer can tell it from a
	// bad matrix.
	ck, err := NewCheckpoint(dir, m)
	if err != nil {
		return RunInfo{}, fmt.Errorf("%w: %v", errSubmitInternal, err)
	}
	r := newServerRun(id, dir, jobs, s.cfg.RunConfig)
	r.ck = ck
	if s.testBeforeQueue != nil {
		s.testBeforeQueue()
	}
	var info RunInfo
	s.mu.Lock()
	if err = s.refuseLocked(); err == nil {
		s.addLocked(r)
		info = r.info()
	}
	s.mu.Unlock()
	if err != nil {
		ck.Destroy()
		return RunInfo{}, err
	}
	obsServerAdmitted.Inc()
	return info, nil
}

// Sentinel admission errors; the HTTP layer maps them to 429/503.
var (
	// ErrQueueFull is returned when the run queue is at capacity.
	ErrQueueFull = errors.New("campaign: server run queue is full")
	// ErrDraining is returned once Shutdown has begun.
	ErrDraining = errors.New("campaign: server is draining")
	// errSubmitInternal wraps admission failures that are the server's
	// fault (checkpoint I/O) rather than the client's matrix — the HTTP
	// layer answers 500, not 400, so well-behaved clients keep retrying
	// valid specs.
	errSubmitInternal = errors.New("campaign: run admission failed server-side")
)

// Cancel cancels a queued or running campaign. A queued run never
// executes and its run directory is removed; a running run stops at the
// next stage boundary (poll its status for the terminal "canceled").
// Finished runs are not cancellable.
func (s *Server) Cancel(id int) (RunInfo, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return RunInfo{}, errUnknownRun
	}
	var ck *Checkpoint
	queued := r.state == RunQueued
	switch {
	case queued:
		// Shutdown's drain may already have emptied the queue (and taken
		// the checkpoint); the run still never starts.
		if i := slices.Index(s.queue, r); i >= 0 {
			s.queue = slices.Delete(s.queue, i, i+1)
			obsServerQueueDepth.Add(-1)
			r.queueSpan.End()
		}
		r.state, r.runErr = RunCanceled, errCanceledBeforeExecution
		r.cacheEnd = r.traffic.status()
		ck, r.ck = r.ck, nil
	case r.state == RunRunning:
		r.userCanceled = true
		r.cancel()
	default:
		s.mu.Unlock()
		return RunInfo{}, fmt.Errorf("campaign: run %d already %s", id, r.state)
	}
	info := r.info()
	s.mu.Unlock()
	if queued {
		if ck != nil {
			ck.Destroy()
		} else {
			// Shutdown's drain already closed the checkpoint log; the
			// directory must still go, or the next server start would
			// resurrect a run its tenant explicitly canceled.
			destroyRunDir(r.dir)
		}
		obsServerCanceled.Inc()
	}
	return info, nil
}

var errUnknownRun = errors.New("campaign: unknown run")

// take blocks until a run is queued and starts it — state, clock and
// cancel func — in the critical section that pops it, so a run Cancel
// removed from the queue is never taken. It returns a nil run once the
// server drains: drained runs stay queued on disk for the next start.
func (s *Server) take() (context.Context, *serverRun, *Checkpoint) {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.signal() // cascade the drain wake-up to the other executors
			return nil, nil, nil
		}
		if len(s.queue) > 0 {
			r := s.queue[0]
			s.queue = s.queue[1:]
			obsServerQueueDepth.Add(-1)
			r.queueSpan.End()
			ctx, cancel := context.WithCancel(s.ctx)
			r.state, r.clock, r.cancel = RunRunning, obs.StartSpan(nil), cancel
			ck := r.ck
			if len(s.queue) > 0 {
				s.signal() // other executors may be waiting too
			}
			s.mu.Unlock()
			return ctx, r, ck
		}
		s.mu.Unlock()
		<-s.wake
	}
}

// signal leaves the wake token for one executor, unless one is pending.
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// execute drives one started run to its end under its checkpoint,
// sharing the process-wide artifact and stage caches with every
// concurrent run: each new result hits the log before the API sees it.
// User cancellation discards the run directory (an explicit discard); a
// server drain keeps it resumable.
func (s *Server) execute(ctx context.Context, r *serverRun, ck *Checkpoint) {
	cfg := r.cfg
	cfg.traffic = &r.traffic
	cfg.OnResult = func(res Result) {
		s.mu.Lock()
		r.results[res.Job.ID] = res
		s.mu.Unlock()
	}
	obsServerActive.Add(1)
	sum, err := ck.Run(ctx, cfg)
	obsServerActive.Add(-1)

	state := runState(err)
	s.mu.Lock()
	r.state, r.sum, r.runErr = state, sum, err
	r.elapsed, r.cacheEnd = r.clock.Elapsed(), r.traffic.status()
	r.cancel()
	r.cancel, r.ck = nil, nil
	// An explicit DELETE discards the run's directory so it cannot
	// resurrect at the next restart — even when a server drain raced the
	// unwind.
	discard := state == RunCanceled && r.userCanceled
	s.mu.Unlock()

	switch state {
	case RunDone:
		obsServerCompleted.Inc()
	case RunCanceled:
		obsServerCanceled.Inc()
	default:
		obsServerFailed.Inc()
	}
	if discard {
		ck.Destroy()
	} else {
		// Done, failed (completed jobs stay durable and a restart retries
		// only the remainder), or drained (the run resumes on the next
		// start).
		ck.Close()
	}
}

// Runs returns the [offset, offset+limit) admission-ordered window of
// run listings, with the same clamping discipline as the /jobs pages.
func (s *Server) Runs(offset, limit int) RunsPage {
	offset, limit = clampPage(offset, limit)
	s.mu.Lock()
	defer s.mu.Unlock()
	total := len(s.order)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total || end < offset {
		end = total
	}
	page := RunsPage{Total: total, Offset: offset, Runs: make([]RunInfo, 0, end-offset)}
	for _, r := range s.order[offset:end] {
		page.Runs = append(page.Runs, r.info())
	}
	page.Count = len(page.Runs)
	return page
}

func (s *Server) lookup(id int) (*serverRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Handler returns the multi-run HTTP API:
//
//	POST   /runs             — submit a matrix spec; 202 + RunInfo, or
//	                           429 + Retry-After under backpressure
//	GET    /runs             — RunsPage; query params offset, limit
//	GET    /runs/{id}        — RunInfo
//	GET    /runs/{id}/status — the run's ServiceStatus (state "queued"
//	                           until an executor takes it)
//	GET    /runs/{id}/jobs   — the run's JobsPage; offset, limit
//	GET    /runs/{id}/result — canonical campaign.json once done;
//	                           409 while queued/running or canceled
//	DELETE /runs/{id}        — cancel a queued or running run
//	GET    /metrics          — process-wide obs registry (Prometheus)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Default.Handler())
	mux.HandleFunc("POST /runs", func(w http.ResponseWriter, r *http.Request) {
		var m Matrix
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "parsing matrix spec: " + err.Error()})
			return
		}
		info, err := s.Submit(m)
		switch {
		case err == nil:
			w.Header().Set("Location", fmt.Sprintf("/runs/%d", info.ID))
			writeJSON(w, http.StatusAccepted, info)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
		case errors.Is(err, ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		case errors.Is(err, errSubmitInternal):
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		if offset, limit, ok := pageParams(w, r); ok {
			writeJSON(w, http.StatusOK, s.Runs(offset, limit))
		}
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		if r := s.resolve(w, req); r != nil {
			s.mu.Lock()
			info := r.info()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, info)
		}
	})
	mux.HandleFunc("DELETE /runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		r := s.resolve(w, req)
		if r == nil {
			return
		}
		info, err := s.Cancel(r.id)
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /runs/{id}/status", func(w http.ResponseWriter, req *http.Request) {
		if r := s.resolve(w, req); r != nil {
			writeJSON(w, http.StatusOK, s.status(r))
		}
	})
	mux.HandleFunc("GET /runs/{id}/jobs", func(w http.ResponseWriter, req *http.Request) {
		r := s.resolve(w, req)
		if r == nil {
			return
		}
		// jobs itself clamps (default page on limit<=0, maxPageLimit cap),
		// so an explicit limit=0 serves the default page, never the whole
		// expanded matrix.
		if offset, limit, ok := pageParams(w, req); ok {
			writeJSON(w, http.StatusOK, s.jobs(r, offset, limit))
		}
	})
	mux.HandleFunc("GET /runs/{id}/result", func(w http.ResponseWriter, req *http.Request) {
		if r := s.resolve(w, req); r != nil {
			s.writeResult(w, r)
		}
	})
	return mux
}

// resolve finds the run the {id} path value names, answering 400 or 404
// itself and returning nil when there is none.
func (s *Server) resolve(w http.ResponseWriter, req *http.Request) *serverRun {
	id, err := strconv.Atoi(req.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad run id " + req.PathValue("id")})
		return nil
	}
	r, ok := s.lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown run %d", id)})
		return nil
	}
	return r
}

// Shutdown drains the server: admission stops (503), queued runs stay
// durable on disk for the next start, active runs are canceled and stop
// at their next stage boundary — everything they completed is already
// fsync'd, so nothing is lost. ctx bounds the wait for the executors.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	// The queued runs' checkpoints hold their log files (and flocks) open
	// from admission; the runs stay queued in the listing, and their
	// directories remain for the next server start to re-queue. The gauge
	// must not keep counting runs this process will never dispatch.
	var queued []*Checkpoint
	for _, r := range s.queue {
		queued = append(queued, r.ck)
		r.ck = nil
	}
	obsServerQueueDepth.Add(int64(-len(s.queue)))
	s.queue = nil
	s.mu.Unlock()
	for _, ck := range queued {
		ck.Close()
	}
	s.signal()
	s.cancel() // cancels every active run's context
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drainTimeout bounds Serve's graceful shutdown: the server's drain and
// the in-flight HTTP requests together.
const drainTimeout = 5 * time.Second

// Serve answers the multi-run API on the listener until ctx is
// cancelled, then shuts down gracefully: the server drains (Shutdown)
// and in-flight HTTP requests finish, both within drainTimeout. A drain
// error is returned before an HTTP one.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
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
		derr := s.Shutdown(shctx)
		herr := srv.Shutdown(shctx)
		<-errCh // Serve has returned http.ErrServerClosed
		if derr != nil {
			return derr
		}
		return herr
	}
}
