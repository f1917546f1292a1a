package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// postRun submits a matrix to the server's handler and returns the
// status code and decoded body.
func postRun(t *testing.T, h http.Handler, m Matrix) (int, []byte) {
	t.Helper()
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(js)))
	return rec.Code, rec.Body.Bytes()
}

func deleteRun(t *testing.T, h http.Handler, id int) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/runs/%d", id), nil))
	return rec.Code, rec.Body.Bytes()
}

// waitRunState polls /runs/{id} until the run reaches want (or any
// terminal state) and returns the final RunInfo.
func waitRunState(t *testing.T, h http.Handler, id int, want RunState) RunInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, h, fmt.Sprintf("/runs/%d", id))
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%d: status %d (%s)", id, code, body)
		}
		info := decode[RunInfo](t, body)
		if info.State == want {
			return info
		}
		switch info.State {
		case RunDone, RunFailed, RunCanceled:
			t.Fatalf("run %d reached terminal state %q while waiting for %q (error %q)",
				id, info.State, want, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d stuck in %q waiting for %q", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.BaseDir == "" {
		cfg.BaseDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestServerLifecycle drives one run end to end over the HTTP API and
// checks the byte-identity acceptance criterion: the served result and
// the run directory's campaign.json both match a standalone Run of the
// same matrix.
func TestServerLifecycle(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 2}})
	h := s.Handler()

	code, body := postRun(t, h, m)
	if code != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d (%s)", code, body)
	}
	info := decode[RunInfo](t, body)
	if info.Jobs != 12 {
		t.Fatalf("admitted run reports %d jobs, want 12", info.Jobs)
	}

	done := waitRunState(t, h, info.ID, RunDone)
	if done.Results != 12 {
		t.Errorf("done run reports %d results, want 12", done.Results)
	}

	st := decode[ServiceStatus](t, second(get(t, h, fmt.Sprintf("/runs/%d/status", info.ID))))
	if st.State != "done" || st.Completed != 12 {
		t.Errorf("/status = state %q completed %d, want done/12", st.State, st.Completed)
	}

	page := decode[JobsPage](t, second(get(t, h, fmt.Sprintf("/runs/%d/jobs?limit=5", info.ID))))
	if page.Total != 12 || page.Count != 5 {
		t.Errorf("/jobs page = total %d count %d, want 12/5", page.Total, page.Count)
	}

	code, res := get(t, h, fmt.Sprintf("/runs/%d/result", info.ID))
	if code != http.StatusOK {
		t.Fatalf("/result: status %d (%s)", code, res)
	}
	if !bytes.Equal(res, want) {
		t.Error("/result differs from a standalone Run of the same matrix")
	}
	if disk := readSummary(t, info.Dir); !bytes.Equal(disk, want) {
		t.Error("run directory campaign.json differs from a standalone Run")
	}

	list := decode[RunsPage](t, second(get(t, h, "/runs")))
	if list.Total != 1 || list.Runs[0].State != RunDone {
		t.Errorf("/runs listing = %+v", list)
	}
}

// TestServerConcurrentByteIdentical is the headline acceptance test: N
// runs POSTed concurrently — same matrix, so they hammer the shared
// stage and artifact caches against each other — each produce a
// campaign.json byte-identical to a standalone campaign.Run.
func TestServerConcurrentByteIdentical(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 16,
		MaxActiveRuns: 4,
		RunConfig:     Config{Parallelism: 2},
	})
	h := s.Handler()

	const n = 6
	ids := make([]int, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postRun(t, h, m)
			if code != http.StatusAccepted {
				t.Errorf("concurrent POST %d: status %d (%s)", i, code, body)
				return
			}
			info := decode[RunInfo](t, body)
			mu.Lock()
			ids[i] = info.ID
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		info := waitRunState(t, h, id, RunDone)
		code, res := get(t, h, fmt.Sprintf("/runs/%d/result", id))
		if code != http.StatusOK {
			t.Fatalf("run %d /result: status %d", id, code)
		}
		if !bytes.Equal(res, want) {
			t.Errorf("run %d result differs from standalone Run", id)
		}
		if disk := readSummary(t, info.Dir); !bytes.Equal(disk, want) {
			t.Errorf("run %d campaign.json differs from standalone Run", id)
		}
	}
}

// blockingRunConfig returns a Config whose jobs block until release is
// closed — the lever every queue/backpressure test below leans on.
func blockingRunConfig(release <-chan struct{}) Config {
	return Config{
		Parallelism: 1,
		runJob: func(ctx context.Context, j Job) Result {
			select {
			case <-release:
			case <-ctx.Done():
				return Result{Job: j, Canceled: true, Err: ctx.Err().Error()}
			}
			return Result{Job: j, Err: "stub"}
		},
	}
}

// TestServerBackpressure pins the admission contract: once
// MaxActiveRuns runs are executing and QueueCapacity runs are queued,
// further POSTs get 429 with a Retry-After hint — and succeed again
// after capacity frees up.
func TestServerBackpressure(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 2,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()

	// One run executing (blocked) + two queued fill the server. The
	// first must reach running before the queue fills, or its queue slot
	// still counts against the two that follow.
	var ids []int
	for i := 0; i < 3; i++ {
		code, body := postRun(t, h, m)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: status %d (%s)", i, code, body)
		}
		ids = append(ids, decode[RunInfo](t, body).ID)
		if i == 0 {
			waitRunState(t, h, ids[0], RunRunning)
		}
	}

	// The queue is full: concurrent POSTs must all bounce with 429.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			js, _ := json.Marshal(m)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(js)))
			if rec.Code != http.StatusTooManyRequests {
				t.Errorf("POST beyond capacity: status %d, want 429", rec.Code)
				return
			}
			if got := rec.Header().Get("Retry-After"); got != "1" {
				t.Errorf("Retry-After = %q, want %q", got, "1")
			}
		}()
	}
	wg.Wait()

	// Overflow must not have leaked run directories: exactly the three
	// admitted runs exist on disk.
	entries, err := os.ReadDir(s.cfg.BaseDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("%d run directories after overflow, want 3", len(entries))
	}

	// Capacity frees as runs finish; admission recovers.
	close(release)
	for _, id := range ids {
		waitRunState(t, h, id, RunDone)
	}
	if code, body := postRun(t, h, m); code != http.StatusAccepted {
		t.Errorf("POST after drain: status %d (%s)", code, body)
	}
}

// TestServerCancelQueued pins DELETE of a queued run: it never
// executes, its directory is removed, and a restart on the same base
// directory does not resurrect it.
func TestServerCancelQueued(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	defer close(release)
	base := t.TempDir()
	s := newTestServer(t, ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()

	_, body := postRun(t, h, m)
	blocker := decode[RunInfo](t, body)
	waitRunState(t, h, blocker.ID, RunRunning)
	_, body = postRun(t, h, m)
	queued := decode[RunInfo](t, body)

	code, body := deleteRun(t, h, queued.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE queued run: status %d (%s)", code, body)
	}
	if st := decode[RunInfo](t, body).State; st != RunCanceled {
		t.Fatalf("canceled run state %q, want %q", st, RunCanceled)
	}
	if _, err := os.Stat(queued.Dir); !os.IsNotExist(err) {
		t.Errorf("canceled queued run kept its directory %s (err %v)", queued.Dir, err)
	}
	// Idempotence edge: a second DELETE conflicts instead of crashing.
	if code, _ := deleteRun(t, h, queued.ID); code != http.StatusConflict {
		t.Errorf("second DELETE: status %d, want 409", code)
	}
	// The canceled run must report 409 from /result and "canceled" from
	// /status while the server still knows it.
	code, body = get(t, h, fmt.Sprintf("/runs/%d/result", queued.ID))
	if code != http.StatusConflict {
		t.Errorf("/result of canceled run: status %d (%s)", code, body)
	}
	st := decode[ServiceStatus](t, second(get(t, h, fmt.Sprintf("/runs/%d/status", queued.ID))))
	if st.State != string(RunCanceled) {
		t.Errorf("/status of canceled run: state %q", st.State)
	}

	// It must never have executed.
	if got := decode[RunInfo](t, second(get(t, h, fmt.Sprintf("/runs/%d", queued.ID)))); got.Results != 0 {
		t.Errorf("canceled queued run executed %d jobs", got.Results)
	}
}

// TestServerShutdownResume pins the drain contract: Shutdown leaves
// queued and interrupted runs durable on disk, and a new server on the
// same base directory re-queues and finishes them — byte-identical to
// never having been interrupted.
func TestServerShutdownResume(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	base := t.TempDir()
	release := make(chan struct{})

	s1, err := NewServer(ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	if err != nil {
		t.Fatal(err)
	}
	h1 := s1.Handler()
	_, body := postRun(t, h1, m)
	running := decode[RunInfo](t, body)
	waitRunState(t, h1, running.ID, RunRunning)
	_, body = postRun(t, h1, m)
	queued := decode[RunInfo](t, body)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(release)
	// Draining must refuse new admissions.
	if code, _ := postRun(t, h1, m); code != http.StatusServiceUnavailable {
		t.Errorf("POST to draining server: status %d, want 503", code)
	}

	// Both run directories survived the drain.
	for _, id := range []int{running.ID, queued.ID} {
		if _, err := os.Stat(filepath.Join(base, runDirName(id), CheckpointFile)); err != nil {
			t.Fatalf("run %d lost its checkpoint across shutdown: %v", id, err)
		}
	}

	// A fresh server on the same directory recovers both and runs them
	// to completion with the real job runner.
	s2 := newTestServer(t, ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 2,
		RunConfig:     Config{Parallelism: 2},
	})
	if got := s2.Recovered(); got != 2 {
		t.Fatalf("recovered %d runs, want 2", got)
	}
	h2 := s2.Handler()
	for _, id := range []int{running.ID, queued.ID} {
		waitRunState(t, h2, id, RunDone)
		code, res := get(t, h2, fmt.Sprintf("/runs/%d/result", id))
		if code != http.StatusOK {
			t.Fatalf("recovered run %d /result: status %d", id, code)
		}
		if !bytes.Equal(res, want) {
			t.Errorf("recovered run %d result differs from uninterrupted run", id)
		}
	}

	// A third server sees them as already done (no Service, result
	// served from disk) and recovers nothing into the queue.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	if got := s3.Recovered(); got != 0 {
		t.Fatalf("completed runs re-queued at restart: %d", got)
	}
	h3 := s3.Handler()
	list := decode[RunsPage](t, second(get(t, h3, "/runs")))
	if list.Total != 2 {
		t.Fatalf("/runs after restart lists %d runs, want 2", list.Total)
	}
	for _, id := range []int{running.ID, queued.ID} {
		code, res := get(t, h3, fmt.Sprintf("/runs/%d/result", id))
		if code != http.StatusOK || !bytes.Equal(res, want) {
			t.Errorf("done run %d not served from disk after restart (status %d)", id, code)
		}
		st := decode[ServiceStatus](t, second(get(t, h3, fmt.Sprintf("/runs/%d/status", id))))
		if st.State != "done" || st.Completed != 12 {
			t.Errorf("recovered-done run %d /status = %q/%d", id, st.State, st.Completed)
		}
		page := decode[JobsPage](t, second(get(t, h3, fmt.Sprintf("/runs/%d/jobs?limit=5", id))))
		if page.Total != 12 || page.Count != 5 {
			t.Errorf("recovered-done run %d /jobs = total %d count %d", id, page.Total, page.Count)
		}
	}
}

// TestServerCancelRunning pins DELETE of an executing run: the run
// stops, reports canceled, and — being an explicit discard — its
// directory is removed so a restart cannot resurrect it.
func TestServerCancelRunning(t *testing.T) {
	m := testMatrix()
	release := make(chan struct{})
	defer close(release)
	base := t.TempDir()
	s := newTestServer(t, ServerConfig{
		BaseDir:   base,
		RunConfig: blockingRunConfig(release),
	})
	h := s.Handler()
	_, body := postRun(t, h, m)
	info := decode[RunInfo](t, body)
	waitRunState(t, h, info.ID, RunRunning)

	if code, body := deleteRun(t, h, info.ID); code != http.StatusOK {
		t.Fatalf("DELETE running run: status %d (%s)", code, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := decode[RunInfo](t, second(get(t, h, fmt.Sprintf("/runs/%d", info.ID))))
		if got.State == RunCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %q after DELETE", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Poll for directory removal too: the executor deletes it after the
	// engine unwinds, slightly after the state flip.
	for {
		if _, err := os.Stat(info.Dir); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled running run kept its directory")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerRejectsBadSubmissions pins the admission validation edges.
func TestServerRejectsBadSubmissions(t *testing.T) {
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 1}})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader([]byte("{not json"))))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", rec.Code)
	}

	// A matrix that fails Expand (no circuits) must be rejected before
	// any run directory is created.
	if code, _ := postRun(t, h, Matrix{}); code != http.StatusBadRequest {
		t.Errorf("empty matrix: status %d, want 400", code)
	}
	if code, _ := postRun(t, h, Matrix{Circuits: []string{"c17"}, Patterns: -1}); code != http.StatusBadRequest {
		t.Errorf("negative pattern count: status %d, want 400", code)
	}
	if code, _ := postRun(t, h, Matrix{Circuits: []string{"c17"}, Years: -5}); code != http.StatusBadRequest {
		t.Errorf("negative aging horizon: status %d, want 400", code)
	}
	entries, err := os.ReadDir(s.cfg.BaseDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("rejected submissions left %d run directories behind", len(entries))
	}

	if code, _ := get(t, h, "/runs/999"); code != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404", code)
	}
	if code, _ := get(t, h, "/runs/bogus"); code != http.StatusBadRequest {
		t.Errorf("non-numeric run id: status %d, want 400", code)
	}

	// The config rejects callbacks that cannot be shared across runs.
	if _, err := NewServer(ServerConfig{BaseDir: t.TempDir(), RunConfig: Config{OnResult: func(Result) {}}}); err == nil {
		t.Error("NewServer accepted a shared OnResult callback")
	}
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("NewServer accepted an empty BaseDir")
	}
	// Zero selects a default limit; a negative one is a mistake.
	for _, cfg := range []ServerConfig{{QueueCapacity: -1}, {MaxActiveRuns: -1}} {
		cfg.BaseDir = t.TempDir()
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("NewServer accepted QueueCapacity %d, MaxActiveRuns %d", cfg.QueueCapacity, cfg.MaxActiveRuns)
		}
	}
}

// TestServerSubmitUndoKeepsRivalRun pins the undo path of a Submit that
// loses the race for the last queue slot: a rival Submit that landed in
// the listing behind the loser must survive the loser's rollback
// (splice by identity, never tail truncation).
func TestServerSubmitUndoKeepsRivalRun(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 1,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()

	// One run occupies the only executor, leaving the single queue slot
	// empty.
	_, body := postRun(t, h, m)
	blocker := decode[RunInfo](t, body)
	waitRunState(t, h, blocker.ID, RunRunning)

	// While the victim Submit sits between its checkpoint write and its
	// queue insert, a rival Submit takes the last slot.
	var rival RunInfo
	var rivalErr error
	s.testBeforeQueue = func() {
		s.testBeforeQueue = nil // the rival's own Submit queues unimpeded
		rival, rivalErr = s.Submit(m)
	}
	if _, err := s.Submit(m); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("victim Submit error = %v, want ErrQueueFull", err)
	}
	if rivalErr != nil {
		t.Fatalf("rival Submit: %v", rivalErr)
	}

	// The listing must hold exactly the blocker and the rival — the
	// rival not evicted, no phantom entry for the destroyed victim.
	page := s.Runs(0, 0)
	if page.Total != 2 {
		t.Fatalf("/runs total = %d after undo, want 2", page.Total)
	}
	if page.Runs[1].ID != rival.ID {
		t.Fatalf("listing holds run %d after undo, want rival %d", page.Runs[1].ID, rival.ID)
	}
	if _, err := os.Stat(rival.Dir); err != nil {
		t.Fatalf("rival run lost its directory: %v", err)
	}

	// And the rival still executes to completion.
	close(release)
	waitRunState(t, h, blocker.ID, RunDone)
	waitRunState(t, h, rival.ID, RunDone)
}

// TestServerCancelRunningDuringDrain pins the classification of a run
// its tenant DELETEd while running when a server drain races the engine
// unwind: the explicit discard wins — the directory is removed and the
// run does not resurrect at the next start.
func TestServerCancelRunningDuringDrain(t *testing.T) {
	m := testMatrix()
	base := t.TempDir()
	gate := make(chan struct{})
	s, err := NewServer(ServerConfig{
		BaseDir: base,
		RunConfig: Config{
			Parallelism: 1,
			// Ignores cancellation until the gate opens, so the drain
			// reliably begins before the engine observes the DELETE.
			runJob: func(_ context.Context, j Job) Result {
				<-gate
				return Result{Job: j, Err: "stub"}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	_, body := postRun(t, h, m)
	info := decode[RunInfo](t, body)
	waitRunState(t, h, info.ID, RunRunning)

	if code, body := deleteRun(t, h, info.ID); code != http.StatusOK {
		t.Fatalf("DELETE running run: status %d (%s)", code, body)
	}
	// Begin the drain, and only then let the engine unwind: at
	// classification time the server context is already cancelled.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.ctx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("shutdown never cancelled the server context")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, err := os.Stat(info.Dir); !os.IsNotExist(err) {
		t.Errorf("DELETEd run kept its directory across a racing drain (err %v)", err)
	}
	s2 := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 1}})
	if got := s2.Recovered(); got != 0 {
		t.Errorf("DELETEd run resurrected at restart: recovered %d, want 0", got)
	}
}

// TestServerCancelQueuedAfterDrain pins DELETE of a queued run once
// Shutdown's drain has already closed its checkpoint log: the directory
// is still removed, so the canceled run cannot resurrect at the next
// server start.
func TestServerCancelQueuedAfterDrain(t *testing.T) {
	m := testMatrix()
	base := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	s, err := NewServer(ServerConfig{
		BaseDir:       base,
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	_, body := postRun(t, h, m)
	running := decode[RunInfo](t, body)
	waitRunState(t, h, running.ID, RunRunning)
	_, body = postRun(t, h, m)
	queued := decode[RunInfo](t, body)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The drain closed the queued run's checkpoint log; DELETE must
	// still remove its directory.
	if code, body := deleteRun(t, h, queued.ID); code != http.StatusOK {
		t.Fatalf("DELETE queued run after drain: status %d (%s)", code, body)
	}
	if _, err := os.Stat(queued.Dir); !os.IsNotExist(err) {
		t.Errorf("canceled queued run kept its directory after drain (err %v)", err)
	}

	// Only the drained running run resumes at the next start.
	s2 := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	if got := s2.Recovered(); got != 1 {
		t.Errorf("recovered %d runs, want only the drained running run", got)
	}
	if _, ok := s2.lookup(queued.ID); ok {
		t.Errorf("canceled queued run %d resurrected at restart", queued.ID)
	}
	waitRunState(t, s2.Handler(), running.ID, RunDone)
}

// TestServerSubmitInternalError pins the admission error split: a spec
// failing matrix validation is the client's fault (400, covered by
// TestServerRejectsBadSubmissions), but a server-side checkpoint
// failure on a valid spec answers 500.
func TestServerSubmitInternalError(t *testing.T) {
	m := testMatrix()
	base := t.TempDir()
	s := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	h := s.Handler()

	// Occupy the next run directory's path with a regular file: the
	// checkpoint's MkdirAll fails server-side on an otherwise valid spec.
	if err := os.WriteFile(filepath.Join(base, runDirName(0)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := postRun(t, h, m)
	if code != http.StatusInternalServerError {
		t.Errorf("server-side admission failure: status %d (%s), want 500", code, body)
	}

	// The failure consumed only the colliding ID; a clean retry of the
	// same valid spec is admitted and completes.
	code, body = postRun(t, h, m)
	if code != http.StatusAccepted {
		t.Fatalf("retry after internal failure: status %d (%s)", code, body)
	}
	waitRunState(t, h, decode[RunInfo](t, body).ID, RunDone)
}

// TestServerRecoverIgnoresNonCanonicalRunDirs pins recovery to the
// canonical run-directory spelling: run-1 parses to the same ID as
// run-000001 but must not be adopted, or /runs would list ID 1 twice and
// DELETE /runs/1 could reach only one of the two runs.
func TestServerRecoverIgnoresNonCanonicalRunDirs(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	base := t.TempDir()
	for _, name := range []string{runDirName(1), "run-1"} {
		if _, err := RunCheckpointed(context.Background(), filepath.Join(base, name), m, Config{Parallelism: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"run-1", "run-+1", "run-0000001"} {
		if id, ok := runDirID(name); ok {
			t.Errorf("runDirID(%q) = %d, want rejected", name, id)
		}
	}
	s := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 1}})
	list := decode[RunsPage](t, second(get(t, s.Handler(), "/runs")))
	if list.Total != 1 || len(list.Runs) != 1 || list.Runs[0].ID != 1 {
		t.Fatalf("/runs = %+v, want run 1 listed exactly once", list)
	}
	if got := list.Runs[0].Dir; got != filepath.Join(base, runDirName(1)) {
		t.Errorf("run 1 recovered from %s, want the canonical directory", got)
	}
}

// TestServerRecoverSkipsRefusedMatrix: a run directory whose header
// carries a matrix Expand now refuses (a negative aging horizon, which
// older builds admitted) is skipped and counted at recovery, and left
// on disk.
func TestServerRecoverSkipsRefusedMatrix(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, runDirName(1))
	ck, err := NewCheckpoint(dir, Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Years: 5})
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	path := filepath.Join(dir, CheckpointFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`"years":5`)
	if !bytes.Contains(raw, old) {
		t.Fatalf("header %s does not record the horizon", raw)
	}
	if err := os.WriteFile(path, bytes.Replace(raw, old, []byte(`"years":-5`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	skipped := obsServerRecoverSkipped.Value()
	s := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 1}})
	if n := s.Recovered(); n != 0 {
		t.Errorf("recovered %d runs, want 0", n)
	}
	if got := obsServerRecoverSkipped.Value() - skipped; got != 1 {
		t.Errorf("recovery skipped %d run directories, want 1", got)
	}
	if list := decode[RunsPage](t, second(get(t, s.Handler(), "/runs"))); list.Total != 0 {
		t.Errorf("/runs = %+v, want no run", list)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("skipped run directory must stay on disk: %v", err)
	}
}

// TestServerRunsPaging pins /runs paging and the queue-state listing.
func TestServerRunsPaging(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, ServerConfig{
		QueueCapacity: 8,
		MaxActiveRuns: 1,
		RunConfig:     blockingRunConfig(release),
	})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		if code, body := postRun(t, h, m); code != http.StatusAccepted {
			t.Fatalf("POST %d: status %d (%s)", i, code, body)
		}
	}
	page := decode[RunsPage](t, second(get(t, h, "/runs?offset=1&limit=2")))
	if page.Total != 5 || page.Count != 2 || page.Runs[0].ID != 1 {
		t.Errorf("/runs?offset=1&limit=2 = total %d count %d first %d", page.Total, page.Count, page.Runs[0].ID)
	}
	if code, _ := get(t, h, "/runs?offset=-1"); code != http.StatusBadRequest {
		t.Errorf("/runs?offset=-1: status %d, want 400", code)
	}
	// At most one run is executing; the rest report queued.
	queued := 0
	for _, r := range decode[RunsPage](t, second(get(t, h, "/runs"))).Runs {
		if r.State == RunQueued {
			queued++
		}
	}
	if queued < 4 {
		t.Errorf("%d runs report queued, want >= 4", queued)
	}
}

// TestServerRecoveredQueuedRunShowsReplayedResults pins a recovered run
// still waiting in the queue: the results its log already holds count on
// /runs/{id}, /status and /jobs before the run executes again.
func TestServerRecoveredQueuedRunShowsReplayedResults(t *testing.T) {
	m := testMatrix()
	full, err := Run(context.Background(), m, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	// run-000000 has an empty log and takes the only executor;
	// run-000001 has 5 of its 12 jobs logged and waits behind it.
	for id, k := range []int{0, 5} {
		ck, err := NewCheckpoint(filepath.Join(base, runDirName(id)), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range full.Results[:k] {
			if err := ck.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, ServerConfig{BaseDir: base, MaxActiveRuns: 1, RunConfig: blockingRunConfig(release)})
	h := s.Handler()

	if info := decode[RunInfo](t, second(get(t, h, "/runs/1"))); info.State != RunQueued || info.Results != 5 {
		t.Errorf("/runs/1 = state %q, %d results; want queued with 5", info.State, info.Results)
	}
	st := decode[ServiceStatus](t, second(get(t, h, "/runs/1/status")))
	if st.State != "queued" || st.Completed != 5 || st.Pending != 7 {
		t.Errorf("/runs/1/status = state %q, completed %d, pending %d; want queued, 5, 7", st.State, st.Completed, st.Pending)
	}
	page := decode[JobsPage](t, second(get(t, h, "/runs/1/jobs")))
	for _, js := range page.Jobs {
		want := "pending"
		if js.ID < 5 {
			want = "ok"
		}
		if js.Status != want {
			t.Errorf("/runs/1/jobs: job %d is %q, want %q", js.ID, js.Status, want)
		}
	}
}

// TestServerQueuedRunHasNoStageCacheTraffic pins /status's stage-cache
// block for a run that has not started: the hits, misses and waits other
// runs make while it waits in the queue are not its own.
func TestServerQueuedRunHasNoStageCacheTraffic(t *testing.T) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8}
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, ServerConfig{QueueCapacity: 4, MaxActiveRuns: 1, RunConfig: blockingRunConfig(release)})
	h := s.Handler()
	_, body := postRun(t, h, m)
	waitRunState(t, h, decode[RunInfo](t, body).ID, RunRunning)
	_, body = postRun(t, h, m)
	queued := decode[RunInfo](t, body)
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	single := newServerRun(0, "", jobs, Config{})

	lookups := func() int64 {
		return obsStageCacheHits.Value() + obsStageCacheMisses.Value() + obsStageCacheWaits.Value()
	}
	before := lookups()
	if _, err := Run(context.Background(), testMatrix(), Config{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if lookups() == before {
		t.Fatal("the campaign elsewhere made no stage-cache traffic")
	}

	st := decode[ServiceStatus](t, second(get(t, h, fmt.Sprintf("/runs/%d/status", queued.ID))))
	for label, sc := range map[string]*StageCacheStatus{"queued server run": st.StageCache, "unstarted run": s.status(single).StageCache} {
		if sc == nil || sc.Hits != 0 || sc.Misses != 0 || sc.Waits != 0 || sc.Evictions != 0 {
			t.Errorf("%s reports stage-cache traffic %+v, want none", label, sc)
		}
	}
}
