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
	"strconv"
	"strings"
	"sync"

	"rescue/internal/obs"
)

// The multi-tenant campaign server: rescue-campaign -serve grown from
// one-run observation into a long-lived service. Matrix specs POSTed to
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

// Server admission/lifecycle instrumentation (the queue itself owns the
// depth gauge and wait histogram in runqueue.go).
var (
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

// ServerConfig tunes a multi-run campaign server.
type ServerConfig struct {
	// BaseDir is the directory run directories are created under
	// (BaseDir/run-NNNNNN). It is required: the server is durable by
	// design, and every admitted run is headered on disk before the
	// client sees 202. On construction the directory is scanned and
	// unfinished runs re-queue from their checkpoints.
	BaseDir string
	// QueueCapacity bounds the admission queue (default 16). A POST
	// arriving at a full queue is rejected with 429 and Retry-After —
	// backpressure, not buffering.
	QueueCapacity int
	// MaxActiveRuns bounds how many runs execute concurrently (default
	// 2). Each run additionally parallelises internally per
	// RunConfig.Parallelism.
	MaxActiveRuns int
	// RetryAfterSec is the Retry-After hint attached to 429 responses
	// (default 1).
	RetryAfterSec int
	// RunConfig is the engine Config template every run executes under.
	// OnResult and Completed must be nil: results stream per run through
	// the checkpoint log and the /runs API, and replay is the
	// checkpoint's job.
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
type Server struct {
	cfg   ServerConfig
	queue *runQueue

	ctx    context.Context // cancelled by Shutdown; parents every run
	cancel context.CancelFunc
	wg     sync.WaitGroup // executors

	mu        sync.Mutex
	runs      map[int]*serverRun
	order     []*serverRun // admission order; the /runs listing walks this
	nextID    int
	draining  bool
	recovered int

	// testBeforeOffer, when non-nil, runs in Submit's window between the
	// listing insert and the queue offer — tests use it to interleave a
	// rival Submit deterministically.
	testBeforeOffer func()
}

// NewServer validates the config, recovers the base directory's
// unfinished runs into the queue, and starts the executor pool.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("campaign: ServerConfig.BaseDir is required (the server is durable by design)")
	}
	if cfg.RunConfig.OnResult != nil || cfg.RunConfig.Completed != nil {
		return nil, fmt.Errorf("campaign: ServerConfig.RunConfig must not set OnResult or Completed (per-run streaming and replay belong to the server)")
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 16
	}
	if cfg.MaxActiveRuns <= 0 {
		cfg.MaxActiveRuns = 2
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = 1
	}
	if err := os.MkdirAll(cfg.BaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: server base dir: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		queue:  newRunQueue(cfg.QueueCapacity),
		ctx:    ctx,
		cancel: cancel,
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
			s.executor()
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
		s.runs[id] = r
		s.order = append(s.order, r)
		if r.ck != nil { // unfinished
			s.queue.offer(r, true) // recovery never drops a durable run
			s.recovered++
			obsServerRecovered.Inc()
		}
	}
	return nil
}

func (s *Server) recoverRun(id int, dir string) (*serverRun, error) {
	m, err := PeekMatrix(dir)
	if err != nil {
		return nil, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, SummaryFile)); err == nil {
		// Completed before the previous process died: serve the durable
		// bytes as-is — no re-execution.
		svc, err := restoreService(m, raw)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: corrupt %s: %v", dir, SummaryFile, err)
		}
		return &serverRun{id: id, dir: dir, svc: svc}, nil
	}
	// Unfinished: hold the log (and its flock) and re-queue. Resume
	// validates every durable record against the header's own matrix.
	ck, err := Resume(dir, m)
	if err != nil {
		return nil, err
	}
	svc, err := NewService(m, s.cfg.RunConfig)
	if err == nil {
		// The logged results count on the API while the run waits.
		err = svc.bind(ck)
	}
	if err != nil {
		ck.Close()
		return nil, err
	}
	return &serverRun{id: id, dir: dir, svc: svc, ck: ck}, nil
}

// Submit validates and admits one matrix: the run directory and its
// checkpoint header are durable before Submit returns. A full queue
// returns ErrQueueFull; a draining server returns ErrDraining.
func (s *Server) Submit(m Matrix) (RunInfo, error) {
	svc, err := NewService(m, s.cfg.RunConfig)
	if err != nil {
		return RunInfo{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return RunInfo{}, ErrDraining
	}
	// Fast-path rejection before any disk work. The queue's own offer
	// below is the authoritative check; this one just keeps a rejection
	// storm from churning directories.
	if s.queue.depth() >= s.cfg.QueueCapacity {
		s.mu.Unlock()
		obsServerRejected.Inc()
		return RunInfo{}, ErrQueueFull
	}
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	dir := filepath.Join(s.cfg.BaseDir, runDirName(id))
	// NewService already validated the spec above, so a failure here is
	// the server's own (disk) — wrapped so the HTTP layer can tell it
	// from a bad matrix.
	ck, err := NewCheckpoint(dir, m)
	if err != nil {
		return RunInfo{}, fmt.Errorf("%w: %v", errSubmitInternal, err)
	}
	r := &serverRun{id: id, dir: dir, svc: svc, ck: ck}
	s.mu.Lock()
	draining := s.draining
	if !draining {
		s.runs[id] = r
		s.order = append(s.order, r)
	}
	s.mu.Unlock()
	if s.testBeforeOffer != nil {
		s.testBeforeOffer()
	}
	if draining || !s.queue.offer(r, false) {
		// Lost the race for the last slot (or to a drain): undo the
		// admission completely — the directory must not resurrect the
		// run at the next restart. s.mu was released across offer, so a
		// concurrent Submit may have appended behind r: splice r out by
		// identity, never by position.
		s.mu.Lock()
		if s.runs[id] == r {
			delete(s.runs, id)
			for i, it := range s.order {
				if it == r {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
		s.mu.Unlock()
		ck.Destroy()
		if draining {
			return RunInfo{}, ErrDraining
		}
		obsServerRejected.Inc()
		return RunInfo{}, ErrQueueFull
	}
	obsServerAdmitted.Inc()
	return r.info(), nil
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
	r, ok := s.lookup(id)
	if !ok {
		return RunInfo{}, errUnknownRun
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.svc.cancelQueued():
		// Whether or not the queue still holds it (an executor may have
		// taken it and be blocked on r.mu right now), the canceled
		// Service never starts.
		s.queue.remove(r)
		if r.ck != nil {
			r.ck.Destroy()
			r.ck = nil
		} else {
			// Shutdown's drain already closed the checkpoint log; the
			// directory must still go, or the next server start would
			// resurrect a run its tenant explicitly canceled.
			destroyRunDir(r.dir)
		}
		obsServerCanceled.Inc()
	case r.cancel != nil:
		r.userCanceled = true
		r.cancel()
	default:
		return RunInfo{}, fmt.Errorf("campaign: run %d already %s", id, r.info().State)
	}
	return r.info(), nil
}

var errUnknownRun = errors.New("campaign: unknown run")

// executor drains the queue until shutdown, one run at a time.
func (s *Server) executor() {
	for {
		r, ok := s.queue.take(s.ctx)
		if !ok {
			return
		}
		s.execute(r)
	}
}

// execute drives one run start to finish: the per-run Service runs
// under the run's checkpoint, sharing the process-wide artifact and
// stage caches with every concurrent run. User cancellation discards
// the run directory (an explicit discard); a server drain keeps it
// resumable.
func (s *Server) execute(r *serverRun) {
	r.mu.Lock()
	if r.svc.start() != nil { // canceled between queue and here
		r.mu.Unlock()
		return
	}
	runCtx, cancel := context.WithCancel(s.ctx)
	r.cancel = cancel
	ck := r.ck
	r.mu.Unlock()

	obsServerActive.Add(1)
	_, err := r.svc.run(runCtx, ck)
	obsServerActive.Add(-1)
	cancel()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.cancel = nil
	r.ck = nil
	switch runState(err) {
	case RunDone:
		obsServerCompleted.Inc()
		ck.Close()
	case RunCanceled:
		obsServerCanceled.Inc()
		if r.userCanceled {
			// Explicit DELETE: the tenant discarded the run; its directory
			// must not resurrect it at the next restart — even when a
			// server drain raced the unwind.
			ck.Destroy()
		} else {
			// Server drain (or a deadline the engine surfaced): keep the
			// checkpoint — the run resumes on the next start.
			ck.Close()
		}
	default:
		obsServerFailed.Inc()
		// Keep the log: completed jobs stay durable and a restart retries
		// only the remainder.
		ck.Close()
	}
}

// Runs returns the [offset, offset+limit) admission-ordered window of
// run listings, with the same clamping discipline as Service.Jobs.
func (s *Server) Runs(offset, limit int) RunsPage {
	offset, limit = clampPage(offset, limit)
	s.mu.Lock()
	total := len(s.order)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total || end < offset {
		end = total
	}
	window := make([]*serverRun, end-offset)
	copy(window, s.order[offset:end])
	s.mu.Unlock()
	page := RunsPage{Total: total, Offset: offset, Runs: make([]RunInfo, 0, len(window))}
	for _, r := range window {
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
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSec))
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
			writeJSON(w, http.StatusOK, r.info())
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
	runRoutes(mux, "/runs/{id}", func(w http.ResponseWriter, req *http.Request) *Service {
		if r := s.resolve(w, req); r != nil {
			return r.svc
		}
		return nil
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
	s.mu.Unlock()
	s.queue.close()
	s.cancel() // cancels every active run's context
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Close the checkpoints of runs that never executed — they hold the
	// log files (and flocks) open from admission. Their directories
	// remain: the next server start re-queues them.
	for _, r := range s.queue.drainQueued() {
		r.mu.Lock()
		if r.ck != nil {
			r.ck.Close()
			r.ck = nil
		}
		r.mu.Unlock()
	}
	return err
}

// Serve answers the multi-run API on the listener until ctx is
// cancelled, then shuts down gracefully: the server drains (Shutdown)
// and in-flight HTTP requests get drainTimeout to finish.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return serve(ctx, ln, s.Handler(), s.Shutdown)
}
