package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// lifecycleWant is what the four per-run endpoints answer for one run in
// one lifecycle state.
type lifecycleWant struct {
	state   RunState
	err     string // RunInfo.Error and the /status error
	results int    // RunInfo.Results
	// completed, failed, canceled and pending are the /status counts.
	completed, failed, canceled, pending int
	// jobs gives each job's /jobs entry; nil means every job pending.
	jobs func(j Job) JobStatus
	// resultCode and result are the /result answer.
	resultCode int
	result     []byte
}

// indentJSON encodes v the way the API's JSON responses are encoded.
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// conflict is the /result body of a run that has no result.
func conflict(t *testing.T, state RunState, msg string) []byte {
	return indentJSON(t, map[string]string{"state": string(state), "error": msg})
}

// checkRunEndpoints pins GET /runs/{id}, /status, /jobs and /result of
// one run. The wall-clock fields, workers and the stage-cache block of
// /status are not pinned.
func checkRunEndpoints(t *testing.T, label string, h http.Handler, base string, id int, jobs []Job, rollups map[string]any, want lifecycleWant) {
	t.Helper()
	prefix := fmt.Sprintf("/runs/%d", id)

	code, body := get(t, h, prefix)
	if code != http.StatusOK {
		t.Fatalf("%s: GET %s: status %d (%s)", label, prefix, code, body)
	}
	wantInfo := RunInfo{ID: id, State: want.state, Jobs: len(jobs), Results: want.results,
		Dir: filepath.Join(base, runDirName(id)), Error: want.err}
	if info := decode[RunInfo](t, body); info != wantInfo {
		t.Errorf("%s: GET %s = %+v, want %+v", label, prefix, info, wantInfo)
	}

	code, body = get(t, h, prefix+"/status")
	if code != http.StatusOK {
		t.Fatalf("%s: GET %s/status: status %d (%s)", label, prefix, code, body)
	}
	st := decode[map[string]any](t, body)
	for _, k := range []string{"elapsed_sec", "jobs_per_sec", "workers", "stage_cache"} {
		delete(st, k)
	}
	wantSt := map[string]any{
		"state":     string(want.state),
		"jobs":      float64(len(jobs)),
		"completed": float64(want.completed),
		"failed":    float64(want.failed),
		"pending":   float64(want.pending),
	}
	if want.canceled != 0 {
		wantSt["canceled"] = float64(want.canceled)
	}
	if want.err != "" {
		wantSt["error"] = want.err
	}
	if want.state == RunDone {
		for k, v := range rollups {
			wantSt[k] = v
		}
	}
	if !reflect.DeepEqual(st, wantSt) {
		t.Errorf("%s: GET %s/status = %v, want %v", label, prefix, st, wantSt)
	}

	code, body = get(t, h, prefix+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("%s: GET %s/jobs: status %d (%s)", label, prefix, code, body)
	}
	page := JobsPage{Total: len(jobs), Count: len(jobs)}
	for _, j := range jobs {
		js := JobStatus{ID: j.ID, Name: j.Name(), Status: "pending"}
		if want.jobs != nil {
			js = want.jobs(j)
		}
		page.Jobs = append(page.Jobs, js)
	}
	if wantBody := indentJSON(t, page); !bytes.Equal(body, wantBody) {
		t.Errorf("%s: GET %s/jobs =\n%s\nwant\n%s", label, prefix, body, wantBody)
	}

	code, body = get(t, h, prefix+"/result")
	if code != want.resultCode || !bytes.Equal(body, want.result) {
		t.Errorf("%s: GET %s/result = %d %s, want %d %s", label, prefix, code, body, want.resultCode, want.result)
	}
	if want.state == RunDone {
		if disk := readSummary(t, filepath.Join(base, runDirName(id))); !bytes.Equal(disk, want.result) {
			t.Errorf("%s: %s differs from the served result", label, SummaryFile)
		}
	}
}

// TestRunLifecycleStates drives server runs through every lifecycle
// state — queued, running, done, canceled before execution, canceled
// while running, and, after a restart on the same base directory,
// recovered while queued and recovered done — and pins what the per-run
// endpoints answer in each: the status codes, the lifecycle fields of
// /runs/{id} and /status, the whole /jobs page and the /result body,
// which for a done run is the exact campaign.json of an uninterrupted
// Run.
func TestRunLifecycleStates(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var rollups map[string]any
	if err := json.Unmarshal(want, &rollups); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"jobs", "completed", "failed", "canceled", "results"} {
		delete(rollups, k)
	}

	// Every job waits for a token (or its run's cancellation) before
	// running for real, so each run is held in the state under test
	// until the test lets it go. started reports the first job to begin.
	started := make(chan struct{}, 1)
	tokens := make(chan struct{}, len(jobs))
	cfg := ServerConfig{
		BaseDir:       t.TempDir(),
		QueueCapacity: 4,
		MaxActiveRuns: 1,
		RunConfig: Config{
			Parallelism: 1,
			runJob: func(ctx context.Context, j Job) Result {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-tokens:
				case <-ctx.Done():
					return Result{Job: j, Canceled: true, Err: ctx.Err().Error()}
				}
				return runJobWith(ctx, j, nil, sharedStageCache, new(stageTraffic))
			},
		},
	}
	submit := func(h http.Handler) int {
		t.Helper()
		code, body := postRun(t, h, m)
		if code != http.StatusAccepted {
			t.Fatalf("POST /runs: status %d (%s)", code, body)
		}
		return decode[RunInfo](t, body).ID
	}
	okJobs := func(j Job) JobStatus { return JobStatus{ID: j.ID, Name: j.Name(), Status: "ok"} }
	queued := lifecycleWant{state: RunQueued, pending: len(jobs),
		resultCode: http.StatusConflict, result: conflict(t, RunQueued, "campaign still queued")}
	done := lifecycleWant{state: RunDone, results: len(jobs), completed: len(jobs), jobs: okJobs,
		resultCode: http.StatusOK, result: want}

	s1 := newTestServer(t, cfg)
	h1 := s1.Handler()
	check := func(label string, h http.Handler, id int, w lifecycleWant) {
		t.Helper()
		checkRunEndpoints(t, label, h, cfg.BaseDir, id, jobs, rollups, w)
	}

	a := submit(h1)
	// Cancel-while-running below needs a job in flight, not just a
	// running state.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the first run's first job never started")
	}
	check("running", h1, a, lifecycleWant{state: RunRunning, pending: len(jobs),
		resultCode: http.StatusConflict, result: conflict(t, RunRunning, "campaign still running")})

	b := submit(h1)
	check("queued", h1, b, queued)

	if code, body := deleteRun(t, h1, b); code != http.StatusOK {
		t.Fatalf("DELETE queued run: status %d (%s)", code, body)
	}
	check("canceled before execution", h1, b, lifecycleWant{state: RunCanceled,
		err: "canceled before execution", pending: len(jobs),
		resultCode: http.StatusConflict, result: conflict(t, RunCanceled, "canceled before execution")})

	c := submit(h1)
	if code, body := deleteRun(t, h1, a); code != http.StatusOK {
		t.Fatalf("DELETE running run: status %d (%s)", code, body)
	}
	waitRunState(t, h1, a, RunCanceled)
	check("canceled while running", h1, a, lifecycleWant{state: RunCanceled,
		err: "context canceled", results: 1, canceled: 1, pending: len(jobs) - 1,
		jobs: func(j Job) JobStatus {
			if j.ID == 0 {
				return JobStatus{ID: j.ID, Name: j.Name(), Status: "canceled", Error: "context canceled"}
			}
			return JobStatus{ID: j.ID, Name: j.Name(), Status: "pending"}
		},
		resultCode: http.StatusConflict, result: conflict(t, RunCanceled, "context canceled")})

	for range jobs {
		tokens <- struct{}{}
	}
	waitRunState(t, h1, c, RunDone)
	check("done", h1, c, done)

	// Leave one run drained mid-execution and one queued, then restart.
	d := submit(h1)
	waitRunState(t, h1, d, RunRunning)
	e := submit(h1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := newTestServer(t, cfg)
	if got := s2.Recovered(); got != 2 {
		t.Fatalf("recovered %d runs, want 2", got)
	}
	h2 := s2.Handler()
	waitRunState(t, h2, d, RunRunning)
	check("recovered queued", h2, e, queued)
	check("recovered done", h2, c, done)
	for _, id := range []int{a, b} {
		if code, _ := get(t, h2, fmt.Sprintf("/runs/%d", id)); code != http.StatusNotFound {
			t.Errorf("canceled run %d after restart: status %d, want 404", id, code)
		}
	}
}
