package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests below pin one run's endpoints, /runs/{id}/status, /jobs and
// /result, which the server answers from the run's record.

func get(t *testing.T, h http.Handler, target string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.Bytes()
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return v
}

func second(_ int, b []byte) []byte { return b }

// submitRun POSTs the matrix and returns the admitted run's ID.
func submitRun(t *testing.T, h http.Handler, m Matrix) int {
	t.Helper()
	code, body := postRun(t, h, m)
	if code != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d (%s)", code, body)
	}
	return decode[RunInfo](t, body).ID
}

// runToDone submits the matrix and waits for the run to finish.
func runToDone(t *testing.T, h http.Handler, m Matrix) int {
	t.Helper()
	id := submitRun(t, h, m)
	waitRunState(t, h, id, RunDone)
	return id
}

func runStatus(t *testing.T, h http.Handler, id int) ServiceStatus {
	t.Helper()
	return decode[ServiceStatus](t, second(get(t, h, fmt.Sprintf("/runs/%d/status", id))))
}

// TestServiceLifecycle walks one run's endpoints through its life:
// /status's rollup over the results so far while the run is held
// mid-flight, /result before and after, /jobs paging with 400 on a
// malformed window, and 405 for any method but GET on a run route.
func TestServiceLifecycle(t *testing.T) {
	m := testMatrix()
	full, err := Run(context.Background(), m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Each job waits for a token before it runs for real, and one worker
	// runs them in job-ID order, so the test holds the run with exactly
	// the first five results recorded.
	tokens := make(chan struct{}, len(full.Results))
	s := newTestServer(t, ServerConfig{RunConfig: Config{
		Parallelism: 1,
		runJob: func(ctx context.Context, j Job) Result {
			select {
			case <-tokens:
			case <-ctx.Done():
				return Result{Job: j, Canceled: true, Err: ctx.Err().Error()}
			}
			return runJobWith(ctx, j, nil, sharedStageCache, new(stageTraffic))
		},
	}})
	h := s.Handler()
	id := submitRun(t, h, m)
	prefix := fmt.Sprintf("/runs/%d", id)

	for range 5 {
		tokens <- struct{}{}
	}
	var st ServiceStatus
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st = runStatus(t, h, id); st.Completed == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck at %+v waiting for 5 results", st)
		}
	}
	if st.State != "running" || st.Jobs != 12 || st.Pending != 7 || st.Failed != 0 {
		t.Fatalf("mid-run status = %+v", st)
	}
	sofar := Aggregate(len(full.Results), 1, full.Results[:5])
	if got, want := indentJSON(t, []any{st.Quality, st.Reliability, st.Safety, st.Security}),
		indentJSON(t, []any{sofar.Quality, sofar.Reliability, sofar.Safety, sofar.Security}); !bytes.Equal(got, want) {
		t.Fatalf("mid-run rollups = %s, want the first five results' %s", got, want)
	}
	if code, _ := get(t, h, prefix+"/result"); code != http.StatusConflict {
		t.Fatalf("/result mid-run: status %d, want 409", code)
	}

	for range len(full.Results) - 5 {
		tokens <- struct{}{}
	}
	waitRunState(t, h, id, RunDone)
	st = runStatus(t, h, id)
	if st.State != "done" || st.Completed != 12 || st.Pending != 0 || st.Failed != 0 {
		t.Fatalf("final status = %+v", st)
	}
	if st.Quality == nil || st.Security == nil {
		t.Fatal("final status must carry the per-aspect rollups")
	}
	code, body := get(t, h, prefix+"/result")
	if code != http.StatusOK {
		t.Fatalf("/result: status %d", code)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatal("/result differs from Summary.JSON()")
	}

	page := decode[JobsPage](t, second(get(t, h, prefix+"/jobs")))
	if page.Total != 12 || page.Count != 12 || page.Offset != 0 {
		t.Fatalf("default page = %+v", page)
	}
	for _, js := range page.Jobs {
		if js.Status != "ok" {
			t.Fatalf("job %d status %q after completion", js.ID, js.Status)
		}
	}
	page = decode[JobsPage](t, second(get(t, h, prefix+"/jobs?offset=10&limit=5")))
	if page.Count != 2 || page.Offset != 10 || page.Jobs[0].ID != 10 {
		t.Fatalf("offset page = %+v", page)
	}
	page = decode[JobsPage](t, second(get(t, h, prefix+"/jobs?offset=2&limit=3")))
	if page.Count != 3 || page.Jobs[0].ID != 2 || page.Jobs[2].ID != 4 {
		t.Fatalf("window page = %+v", page)
	}
	for _, q := range []string{"offset=bogus", "limit=-2"} {
		if code, _ := get(t, h, prefix+"/jobs?"+q); code != http.StatusBadRequest {
			t.Fatalf("/jobs?%s: status %d, want 400", q, code)
		}
	}
	for _, route := range []string{"/status", "/jobs", "/result"} {
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, prefix+route, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s%s: status %d, want 405", method, prefix, route, rec.Code)
			}
		}
	}
}

// TestServiceMetricsEndpoint scrapes /metrics after a completed run and
// requires the Prometheus exposition to carry the cross-layer series —
// campaign engine, simulation kernel, and artifact cache — plus the
// throughput fields on the run's /status. This is the end-to-end proof
// that the obs wiring reaches every layer under a real campaign.
func TestServiceMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 2}})
	h := s.Handler()
	id := runToDone(t, h, testMatrix())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body := rec.Body.String()
	for _, series := range []string{
		"campaign_jobs_completed_total",
		"campaign_queue_depth",
		"sim_gate_evals_total",
		"artifact_cache_hits_total",
		"atpg_podem_calls_total",
		"atpg_imply_gate_evals_total",
		"atpg_verdict_hits_total",
		"atpg_lent_workers_total",
		"flow_stage_seconds_bucket",
		"campaign_server_runs_completed_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics output lacks %s", series)
		}
	}
	// The run just finished, so the completed counter must be non-zero.
	if strings.Contains(body, "campaign_jobs_completed_total 0\n") {
		t.Error("campaign_jobs_completed_total still zero after a completed run")
	}

	st := runStatus(t, h, id)
	if st.ElapsedSec <= 0 || st.JobsPerSec <= 0 {
		t.Fatalf("status throughput = elapsed %v jobs/s %v, want both > 0",
			st.ElapsedSec, st.JobsPerSec)
	}
}

// TestServiceConcurrentQueries hammers a run's /status and /jobs from
// several goroutines while the campaign is in flight — the race-detector
// coverage for the live API against the worker pool. The stage cache is
// off so that earlier tests' entries cannot finish the run at once.
func TestServiceConcurrentQueries(t *testing.T) {
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 4, DisableStageCache: true}})
	h := s.Handler()
	id := submitRun(t, h, testMatrix())
	var stopQueries atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopQueries.Load(); i++ {
				target := fmt.Sprintf("/runs/%d/status", id)
				if (i+w)%2 == 0 {
					target = fmt.Sprintf("/runs/%d/jobs?offset=%d&limit=4", id, i%12)
				}
				code, body := get(t, h, target)
				if code != http.StatusOK {
					t.Errorf("%s: status %d: %s", target, code, body)
					return
				}
				if strings.HasSuffix(target, "/status") {
					st := decode[ServiceStatus](t, body)
					if st.Jobs != 12 || st.Completed+st.Failed+st.Canceled+st.Pending != 12 {
						t.Errorf("inconsistent mid-flight status %+v", st)
						return
					}
				}
			}
		}(w)
	}
	waitRunState(t, h, id, RunDone)
	stopQueries.Store(true)
	wg.Wait()
	if st := runStatus(t, h, id); st.State != "done" || st.Completed != 12 {
		t.Fatalf("final status = state %q, completed %d; want done, 12", st.State, st.Completed)
	}
}

// TestServiceCheckpointed pins a run recovered from a log that already
// holds five of its twelve results: the finished run counts them as
// replayed, and its /result and campaign.json match the uninterrupted
// bytes.
func TestServiceCheckpointed(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	base := t.TempDir()
	dir := filepath.Join(base, runDirName(0))
	if err := os.Rename(interruptedLog(t, m, 5), dir); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ServerConfig{BaseDir: base, RunConfig: Config{Parallelism: 2}})
	if got := s.Recovered(); got != 1 {
		t.Fatalf("recovered %d runs, want 1", got)
	}
	h := s.Handler()
	waitRunState(t, h, 0, RunDone)
	if st := runStatus(t, h, 0); st.Replayed != 5 || st.Completed != 12 {
		t.Errorf("/status = %d replayed, %d completed; want 5, 12", st.Replayed, st.Completed)
	}
	if _, body := get(t, h, "/runs/0/result"); !bytes.Equal(body, want) {
		t.Error("served result differs from uninterrupted run")
	}
	if got := readSummary(t, dir); !bytes.Equal(got, want) {
		t.Errorf("%s differs from uninterrupted run", SummaryFile)
	}
}

// httpGet fetches url over the network and returns the status and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServiceServeGracefulDrain exercises Server.Serve over TCP: a run
// POSTed and queried live, its /result once done, and a context-driven
// graceful shutdown after which nothing answers.
func TestServiceServeGracefulDrain(t *testing.T) {
	m := testMatrix()
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 2}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: %d: %s", resp.StatusCode, body)
	}
	id := decode[RunInfo](t, body).ID
	// Query the live server while the run is (possibly still) in flight.
	if code, body := httpGet(t, fmt.Sprintf("%s/runs/%d/status", base, id)); code != http.StatusOK {
		t.Fatalf("live /status: %d: %s", code, body)
	}
	waitRunState(t, s.Handler(), id, RunDone)
	if code, _ := httpGet(t, fmt.Sprintf("%s/runs/%d/result", base, id)); code != http.StatusOK {
		t.Fatalf("/result after completion: %d", code)
	}
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	if _, err := http.Get(base + "/runs"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestResultCanceledConflict pins /result of a run whose context was
// canceled under it, here by a server drain: cancellation is a lifecycle
// state, not a server fault, so the endpoint answers 409 with
// {"state":"canceled"} — consistent with /status's state machine —
// rather than collapsing every run error into a generic 500.
func TestResultCanceledConflict(t *testing.T) {
	s := newTestServer(t, ServerConfig{RunConfig: blockingRunConfig(nil)})
	h := s.Handler()
	id := submitRun(t, h, testMatrix())
	waitRunState(t, h, id, RunRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, body := get(t, h, fmt.Sprintf("/runs/%d/result", id))
	if code != http.StatusConflict {
		t.Fatalf("/result of canceled campaign: status %d, want 409 (body %s)", code, body)
	}
	payload := decode[map[string]string](t, body)
	if payload["state"] != "canceled" || payload["error"] != "context canceled" {
		t.Fatalf("/result of canceled campaign = %s, want state canceled with the context's error", body)
	}
	if st := runStatus(t, h, id); st.State != "canceled" {
		t.Fatalf("/status state %q disagrees with /result's %q", st.State, payload["state"])
	}
}

// TestStatusStageCachePerRun pins /status's stage-cache accounting to
// the run's own traffic. The counters behind it are process-wide (and
// stay cumulative on /metrics); before the fix a second campaign in the
// same process reported the first one's hits as its own. Every stage
// slot resolves to exactly one of hit/miss/wait, so a run's delta total
// is a fixed function of its matrix — equal across back-to-back runs,
// where cumulative reporting would roughly double.
func TestStatusStageCachePerRun(t *testing.T) {
	m := testMatrix()
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 2}})
	h := s.Handler()
	run1 := runStatus(t, h, runToDone(t, h, m)).StageCache
	run2 := runStatus(t, h, runToDone(t, h, m)).StageCache
	if run1 == nil || run2 == nil {
		t.Fatal("stage-cache status missing from /status")
	}
	totalOf := func(s *StageCacheStatus) int64 { return s.Hits + s.Misses + s.Waits }
	if totalOf(run1) == 0 {
		t.Fatal("first run reports no stage-cache traffic at all")
	}
	if totalOf(run1) != totalOf(run2) {
		t.Fatalf("per-run stage totals differ across identical runs: %d then %d (cumulative leak)",
			totalOf(run1), totalOf(run2))
	}
	if run2.Hits == 0 {
		t.Error("second identical run saw no stage-cache hits")
	}
}

// TestStatusStageCacheFrozenAtEnd pins a finished run's stage-cache
// block: it is frozen when the run ends, so an identical run made
// afterwards in the same process — all hits on the first run's entries
// — leaves the first run's /status unchanged.
func TestStatusStageCacheFrozenAtEnd(t *testing.T) {
	s := newTestServer(t, ServerConfig{RunConfig: Config{Parallelism: 2}})
	h := s.Handler()
	stageCache := func(id int) StageCacheStatus {
		t.Helper()
		st := runStatus(t, h, id)
		if st.StageCache == nil {
			t.Fatal("stage-cache status missing from /status")
		}
		return *st.StageCache
	}
	first := runToDone(t, h, testMatrix())
	before := stageCache(first)
	runToDone(t, h, testMatrix())
	if after := stageCache(first); after != before {
		t.Errorf("finished run's stage cache moved with a later run: %+v, then %+v", before, after)
	}
}

// TestStatusStageCacheConcurrentRuns pins the per-run stage-cache block
// while two runs execute at once: each run's hits, misses and waits add
// up to its own lookups, one per job stage, however the two runs'
// lookups interleave. Counting deltas of the process-wide counters gave
// the long mul8 run the small run's twelve lookups as well.
func TestStatusStageCacheConcurrentRuns(t *testing.T) {
	s := newTestServer(t, ServerConfig{MaxActiveRuns: 2, RunConfig: Config{Parallelism: 2}})
	h := s.Handler()
	long := submitRun(t, h, Matrix{Circuits: []string{"mul8"}, Scenarios: []Scenario{ScenarioQuality}, Seed: 29})
	m := testMatrix()
	m.Seed = 30
	short := submitRun(t, h, m)
	for id, lookups := range map[int]int64{long: 1, short: 12} {
		waitRunState(t, h, id, RunDone)
		sc := runStatus(t, h, id).StageCache
		if sc == nil {
			t.Fatalf("run %d: stage-cache status missing from /status", id)
		}
		if got := sc.Hits + sc.Misses + sc.Waits; got != lookups {
			t.Errorf("run %d reports %d stage-cache lookups (%+v), want its own %d", id, got, *sc, lookups)
		}
	}
}

// TestJobsLimitCaps pins the paging caps on a matrix that expands past
// both: an explicit limit=0 means the default page (not the whole
// matrix), and oversized limits clamp to 1000.
func TestJobsLimitCaps(t *testing.T) {
	m := Matrix{
		Circuits:  []string{"mul8"},
		Scenarios: []Scenario{ScenarioQuality},
		Shards:    1200, ShardThreshold: 1,
		Patterns: 8,
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if total := len(jobs); total <= 1000 {
		t.Fatalf("matrix expands to %d jobs, need > 1000 to exercise the caps", total)
	}
	single := newServerRun(0, "", jobs, Config{})
	// The run's first job blocks until the server drains, so every job
	// stays pending.
	s := newTestServer(t, ServerConfig{RunConfig: blockingRunConfig(nil)})
	h := s.Handler()
	prefix := fmt.Sprintf("/runs/%d/jobs", submitRun(t, h, m))
	page := decode[JobsPage](t, second(get(t, h, prefix+"?limit=0")))
	if page.Count != 100 {
		t.Errorf("limit=0 returned %d entries, want the default page of 100", page.Count)
	}
	page = decode[JobsPage](t, second(get(t, h, prefix+"?limit=999999")))
	if page.Count != 1000 {
		t.Errorf("limit=999999 returned %d entries, want the 1000 cap", page.Count)
	}
	if code, _ := get(t, h, prefix+"?offset=-1"); code != http.StatusBadRequest {
		t.Errorf("GET %s?offset=-1 = %d, want 400", prefix, code)
	}
	// The clamps live in jobs itself, not the handler: programmatic
	// jobs(r, 0, 0) must serve the default page, never assemble the whole
	// expanded matrix under the server's lock.
	if got := len(s.jobs(single, 0, 0).Jobs); got != defaultPageLimit {
		t.Errorf("Server.jobs(r, 0, 0) returned %d entries, want the default page of %d", got, defaultPageLimit)
	}
	if got := len(s.jobs(single, 0, 999999).Jobs); got != maxPageLimit {
		t.Errorf("Server.jobs(r, 0, 999999) returned %d entries, want the %d cap", got, maxPageLimit)
	}
	// Negative offsets clamp programmatically (the HTTP layer rejects
	// them with 400 before jobs ever sees one).
	if page := s.jobs(single, -5, 10); page.Offset != 0 || len(page.Jobs) != 10 {
		t.Errorf("Server.jobs(r, -5, 10) = offset %d, %d entries; want offset 0, 10 entries", page.Offset, len(page.Jobs))
	}
}
