package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

func TestServiceLifecycle(t *testing.T) {
	m := testMatrix()
	svc, err := NewService(m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	// Before the run starts, /result must refuse and /status must say
	// queued with every job accounted for.
	if code, _ := get(t, h, "/result"); code != http.StatusConflict {
		t.Fatalf("/result before completion: status %d, want 409", code)
	}
	st := decode[ServiceStatus](t, second(get(t, h, "/status")))
	if st.State != "queued" || st.Jobs != 12 || st.Pending != 12 {
		t.Fatalf("initial status = %+v", st)
	}

	sum, err := svc.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	st = decode[ServiceStatus](t, second(get(t, h, "/status")))
	if st.State != "done" || st.Completed != 12 || st.Pending != 0 || st.Failed != 0 {
		t.Fatalf("final status = %+v", st)
	}
	if st.Quality == nil || st.Security == nil {
		t.Fatal("final status must carry the per-aspect rollups")
	}

	// /result serves the canonical campaign.json bytes.
	code, body := get(t, h, "/result")
	if code != http.StatusOK {
		t.Fatalf("/result: status %d", code)
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(js, '\n')) {
		t.Fatal("/result differs from Summary.JSON()")
	}

	// /jobs paging.
	page := decode[JobsPage](t, second(get(t, h, "/jobs")))
	if page.Total != 12 || page.Count != 12 || page.Offset != 0 {
		t.Fatalf("default page = %+v", page)
	}
	for _, js := range page.Jobs {
		if js.Status != "ok" {
			t.Fatalf("job %d status %q after completion", js.ID, js.Status)
		}
	}
	page = decode[JobsPage](t, second(get(t, h, "/jobs?offset=10&limit=5")))
	if page.Count != 2 || page.Offset != 10 || page.Jobs[0].ID != 10 {
		t.Fatalf("offset page = %+v", page)
	}
	page = decode[JobsPage](t, second(get(t, h, "/jobs?offset=2&limit=3")))
	if page.Count != 3 || page.Jobs[0].ID != 2 || page.Jobs[2].ID != 4 {
		t.Fatalf("window page = %+v", page)
	}
	if code, _ := get(t, h, "/jobs?offset=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad offset: status %d, want 400", code)
	}
	if code, _ := get(t, h, "/jobs?limit=-2"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/status", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status: status %d, want 405", rec.Code)
	}
}

func second(_ int, b []byte) []byte { return b }

// TestServiceMetricsEndpoint scrapes /metrics after a completed run and
// requires the Prometheus exposition to carry the cross-layer series —
// campaign engine, simulation kernel, and artifact cache — plus the
// throughput fields on /status. This is the end-to-end proof that the
// obs wiring reaches every layer under a real campaign.
func TestServiceMetricsEndpoint(t *testing.T) {
	svc, err := NewService(testMatrix(), Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	if _, err := svc.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

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
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics output lacks %s", series)
		}
	}
	// The run just finished, so the completed counter must be non-zero
	// and the queue drained back to its pre-run depth.
	if strings.Contains(body, "campaign_jobs_completed_total 0\n") {
		t.Error("campaign_jobs_completed_total still zero after a completed run")
	}

	st := decode[ServiceStatus](t, second(get(t, h, "/status")))
	if st.ElapsedSec <= 0 || st.JobsPerSec <= 0 {
		t.Fatalf("status throughput = elapsed %v jobs/s %v, want both > 0",
			st.ElapsedSec, st.JobsPerSec)
	}
}

// TestServiceConcurrentQueries hammers /status and /jobs from several
// goroutines while the campaign is in flight — the race-detector
// coverage for the live API against the worker pool.
func TestServiceConcurrentQueries(t *testing.T) {
	m := testMatrix()
	svc, err := NewService(m, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	var stopQueries atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopQueries.Load(); i++ {
				target := "/status"
				if (i+w)%2 == 0 {
					target = fmt.Sprintf("/jobs?offset=%d&limit=4", i%12)
				}
				code, body := get(t, h, target)
				if code != http.StatusOK {
					t.Errorf("%s: status %d: %s", target, code, body)
					return
				}
				if target == "/status" {
					st := decode[ServiceStatus](t, body)
					if st.Jobs != 12 || st.Completed+st.Failed+st.Canceled+st.Pending != 12 {
						t.Errorf("inconsistent mid-flight status %+v", st)
						return
					}
				}
			}
		}(w)
	}
	sum, err := svc.Run(context.Background(), nil)
	stopQueries.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 12 {
		t.Fatalf("completed %d jobs, want 12:\n%s", sum.Completed, sum.Render())
	}
	st := decode[ServiceStatus](t, second(get(t, h, "/status")))
	if st.State != "done" {
		t.Fatalf("state %q after Run returned", st.State)
	}
}

// TestServiceCheckpointed runs the service over a checkpoint: replayed
// results surface through the API immediately and the served /result
// matches the uninterrupted campaign.json bytes.
func TestServiceCheckpointed(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	dir := interruptedLog(t, m, 5)
	ck, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	svc, err := NewService(m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(context.Background(), ck); err != nil {
		t.Fatal(err)
	}
	// Release the flock before the second Resume below.
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, svc.Handler(), "/result")
	if !bytes.Equal(body, want) {
		t.Fatal("served result differs from uninterrupted run")
	}
	if got := readSummary(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("%s differs from uninterrupted run", SummaryFile)
	}
	// A checkpoint for a different matrix must be refused.
	other := m
	other.Seed++
	svc2, err := NewService(other, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if _, err := svc2.Run(context.Background(), ck2); err == nil || !strings.Contains(err.Error(), "matrices differ") {
		t.Fatalf("mismatched service/checkpoint matrices: err = %v", err)
	}
}

// TestServiceServeGracefulDrain exercises the real HTTP server: live
// queries during the run, /result afterwards, and a context-driven
// graceful shutdown.
func TestServiceServeGracefulDrain(t *testing.T) {
	m := testMatrix()
	svc, err := NewService(m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	runDone := make(chan error, 1)
	go func() {
		_, err := svc.Run(context.Background(), nil)
		runDone <- err
	}()
	// Query the live server while (possibly still) running.
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live /status: %d: %s", resp.StatusCode, body)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/result after completion: %d", resp.StatusCode)
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
	if _, err := http.Get(base + "/status"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestResultCanceledConflict pins /result's handling of a canceled
// campaign: cancellation is a lifecycle state, not a server fault, so
// the endpoint must answer 409 with {"state":"canceled"} — consistent
// with /status's state machine — rather than collapsing every non-nil
// run error into a generic 500.
func TestResultCanceledConflict(t *testing.T) {
	svc, err := NewService(testMatrix(), Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under canceled context = %v, want context.Canceled", err)
	}
	h := svc.Handler()
	code, body := get(t, h, "/result")
	if code != http.StatusConflict {
		t.Fatalf("/result of canceled campaign: status %d, want 409 (body %s)", code, body)
	}
	payload := decode[map[string]string](t, body)
	if payload["state"] != "canceled" {
		t.Fatalf("/result of canceled campaign: state %q, want %q (body %s)", payload["state"], "canceled", body)
	}
	st := decode[ServiceStatus](t, second(get(t, h, "/status")))
	if st.State != "canceled" {
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
	runOnce := func() *StageCacheStatus {
		t.Helper()
		svc, err := NewService(m, Config{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return svc.Status().StageCache
	}
	run1 := runOnce()
	run2 := runOnce()
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
	run := func() http.Handler {
		t.Helper()
		svc, err := NewService(testMatrix(), Config{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return svc.Handler()
	}
	stageCache := func(h http.Handler) StageCacheStatus {
		t.Helper()
		st := decode[ServiceStatus](t, second(get(t, h, "/status")))
		if st.StageCache == nil {
			t.Fatal("stage-cache status missing from /status")
		}
		return *st.StageCache
	}
	first := run()
	before := stageCache(first)
	run()
	if after := stageCache(first); after != before {
		t.Errorf("finished run's stage cache moved with a later run: %+v, then %+v", before, after)
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
	svc, err := NewService(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := len(svc.jobs)
	if total <= 1000 {
		t.Fatalf("matrix expands to %d jobs, need > 1000 to exercise the caps", total)
	}
	h := svc.Handler()
	page := decode[JobsPage](t, second(get(t, h, "/jobs?limit=0")))
	if page.Count != 100 {
		t.Errorf("limit=0 returned %d entries, want the default page of 100", page.Count)
	}
	page = decode[JobsPage](t, second(get(t, h, "/jobs?limit=999999")))
	if page.Count != 1000 {
		t.Errorf("limit=999999 returned %d entries, want the 1000 cap", page.Count)
	}
	// The clamps live in Jobs itself, not the handler: programmatic
	// Jobs(0, 0) must serve the default page, never assemble the whole
	// expanded matrix under the store mutex.
	if got := len(svc.Jobs(0, 0).Jobs); got != defaultPageLimit {
		t.Errorf("Service.Jobs(0, 0) returned %d entries, want the default page of %d", got, defaultPageLimit)
	}
	if got := len(svc.Jobs(0, 999999).Jobs); got != maxPageLimit {
		t.Errorf("Service.Jobs(0, 999999) returned %d entries, want the %d cap", got, maxPageLimit)
	}
	// Negative offsets clamp programmatically (the HTTP layer rejects
	// them with 400 before Jobs ever sees one).
	if page := svc.Jobs(-5, 10); page.Offset != 0 || len(page.Jobs) != 10 {
		t.Errorf("Service.Jobs(-5, 10) = offset %d, %d entries; want offset 0, 10 entries", page.Offset, len(page.Jobs))
	}
	if code, _ := get(t, h, "/jobs?offset=-1"); code != http.StatusBadRequest {
		t.Errorf("GET /jobs?offset=-1 = %d, want 400", code)
	}
}
