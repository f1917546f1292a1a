package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// uninterruptedJSON runs the matrix start-to-finish and returns the
// canonical campaign.json bytes every durable run must reproduce.
func uninterruptedJSON(t *testing.T, m Matrix) []byte {
	t.Helper()
	sum, err := Run(context.Background(), m, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("baseline failures:\n%s", sum.Render())
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(js, '\n')
}

func readSummary(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResumeEquivalence is the resume-determinism property test: a
// campaign cut off after k completed jobs and resumed must produce a
// campaign.json byte-identical to the uninterrupted run — for k = 0, 1,
// a middle value and all jobs, at parallelism 1, 4 and NumCPU.
func TestResumeEquivalence(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	full, err := Run(context.Background(), m, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 5, len(full.Results)} {
		for _, p := range []int{1, 4, runtime.NumCPU()} {
			dir := t.TempDir()
			// Synthesize the interrupted run: a log holding the header
			// and the first k completed jobs.
			ck, err := NewCheckpoint(dir, m)
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
			sum, err := RunCheckpointed(context.Background(), dir, m, Config{Parallelism: p})
			if err != nil {
				t.Fatalf("k=%d p=%d: %v", k, p, err)
			}
			js, err := sum.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(js, '\n'), want) {
				t.Fatalf("k=%d p=%d: resumed summary differs from uninterrupted run", k, p)
			}
			if got := readSummary(t, dir); !bytes.Equal(got, want) {
				t.Fatalf("k=%d p=%d: %s differs from uninterrupted run", k, p, SummaryFile)
			}
		}
	}
}

// TestResumeAfterCancellation interrupts a real run (twice) via context
// cancellation and resumes it, checking the end-to-end kill-and-resume
// path: cancelled jobs are not checkpointed, replayed jobs are not
// re-run, and the final bytes match the uninterrupted run.
func TestResumeAfterCancellation(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	dir := t.TempDir()
	for round, cutAfter := range []int32{2, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var n int32
		cfg := Config{
			Parallelism: 3,
			OnResult: func(Result) {
				if atomic.AddInt32(&n, 1) == cutAfter {
					cancel()
				}
			},
		}
		_, err := RunCheckpointed(ctx, dir, m, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		if _, err := os.Stat(filepath.Join(dir, SummaryFile)); !os.IsNotExist(err) {
			t.Fatalf("round %d: interrupted run must not write %s", round, SummaryFile)
		}
	}
	ck, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	replayed := len(ck.Completed())
	if replayed == 0 {
		t.Fatal("no results survived the interruptions")
	}
	var reran int32
	sum, err := ck.Run(context.Background(), Config{
		Parallelism: 2,
		OnResult:    func(Result) { atomic.AddInt32(&reran, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if int(reran)+replayed != len(sum.Results) {
		t.Errorf("resume re-ran %d jobs with %d replayed, want %d total", reran, replayed, len(sum.Results))
	}
	if got := readSummary(t, dir); !bytes.Equal(got, want) {
		t.Errorf("resumed %s differs from uninterrupted run", SummaryFile)
	}
}

// interruptedLog builds a run directory whose log holds the header plus
// the first k results of a complete reference run.
func interruptedLog(t *testing.T, m Matrix, k int) string {
	t.Helper()
	dir := t.TempDir()
	full, err := Run(context.Background(), m, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewCheckpoint(dir, m)
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
	return dir
}

func logPath(dir string) string { return filepath.Join(dir, CheckpointFile) }

func appendRaw(t *testing.T, dir, raw string) {
	t.Helper()
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornFinalLineDropped covers the crash-time torn write: a partial
// final record — with or without its newline — is dropped, its job
// re-runs, and the resumed run still reproduces the uninterrupted bytes.
func TestTornFinalLineDropped(t *testing.T) {
	m := testMatrix()
	want := uninterruptedJSON(t, m)
	for _, torn := range []string{
		`{"type":"result","resu`,                // cut mid-record, no newline
		`{"type":"result","result":{"jo` + "\n", // newline made it, JSON did not
	} {
		dir := interruptedLog(t, m, 2)
		appendRaw(t, dir, torn)
		ck, err := Resume(dir, m)
		if err != nil {
			t.Fatalf("torn %q: %v", torn, err)
		}
		if got := len(ck.Completed()); got != 2 {
			t.Fatalf("torn %q: replayed %d results, want 2", torn, got)
		}
		sum, err := ck.Run(context.Background(), Config{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		ck.Close()
		js, _ := sum.JSON()
		if !bytes.Equal(append(js, '\n'), want) {
			t.Fatalf("torn %q: resumed summary differs from uninterrupted run", torn)
		}
	}
}

// TestTornHeaderRecovered covers a crash during the very first write:
// with no durable record at all, resume starts the run from scratch
// rather than failing.
func TestTornHeaderRecovered(t *testing.T) {
	m := testMatrix()
	for _, raw := range []string{"", `{"type":"head`} {
		dir := t.TempDir()
		if err := os.WriteFile(logPath(dir), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := Resume(dir, m)
		if err != nil {
			t.Fatalf("raw %q: %v", raw, err)
		}
		if len(ck.Completed()) != 0 {
			t.Fatalf("raw %q: phantom replayed results", raw)
		}
		ck.Close()
		// The rewritten header must now resume cleanly.
		ck2, err := Resume(dir, m)
		if err != nil {
			t.Fatalf("raw %q: second resume: %v", raw, err)
		}
		ck2.Close()
	}
}

// TestCheckpointDecoderRejectsCorruption is the crash-injection suite
// for everything that must NOT be silently tolerated: interior
// corruption, wrong or alien headers, matrix mismatches, duplicate,
// out-of-range, tampered and cancelled records.
func TestCheckpointDecoderRejectsCorruption(t *testing.T) {
	m := testMatrix()
	full, err := Run(context.Background(), m, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	record := func(r Result) string {
		js, err := json.Marshal(checkpointRecord{Type: "result", Result: &r})
		if err != nil {
			t.Fatal(err)
		}
		return string(js) + "\n"
	}
	tampered := full.Results[1]
	tampered.Job.Seed++
	outOfRange := full.Results[1]
	outOfRange.Job.ID = 99
	canceled := full.Results[1]
	canceled.Canceled = true
	otherMatrix := m
	otherMatrix.Seed++

	cases := []struct {
		name    string
		prepare func(t *testing.T) string // returns the run dir
		matrix  Matrix
		wantErr string
	}{
		{
			name: "corrupt interior record",
			prepare: func(t *testing.T) string {
				dir := interruptedLog(t, m, 0)
				appendRaw(t, dir, "{not json}\n"+record(full.Results[0]))
				return dir
			},
			matrix: m, wantErr: "corrupt record at line 2",
		},
		{
			name: "wrong first record type",
			prepare: func(t *testing.T) string {
				dir := t.TempDir()
				os.WriteFile(logPath(dir), []byte(record(full.Results[0])), 0o644)
				return dir
			},
			matrix: m, wantErr: "want header",
		},
		{
			name: "future version",
			prepare: func(t *testing.T) string {
				dir := t.TempDir()
				os.WriteFile(logPath(dir), []byte(`{"type":"header","version":99,"jobs":12}`+"\n"), 0o644)
				return dir
			},
			matrix: m, wantErr: "version",
		},
		{
			name:    "mismatched matrix",
			prepare: func(t *testing.T) string { return interruptedLog(t, m, 1) },
			matrix:  otherMatrix, wantErr: "does not match the requested campaign",
		},
		{
			name: "duplicate record",
			prepare: func(t *testing.T) string {
				dir := interruptedLog(t, m, 1)
				appendRaw(t, dir, record(full.Results[0]))
				return dir
			},
			matrix: m, wantErr: "duplicate result",
		},
		{
			name: "tampered job coordinates",
			prepare: func(t *testing.T) string {
				dir := interruptedLog(t, m, 0)
				appendRaw(t, dir, record(tampered))
				return dir
			},
			matrix: m, wantErr: "does not match the matrix",
		},
		{
			name: "job id out of range",
			prepare: func(t *testing.T) string {
				dir := interruptedLog(t, m, 0)
				appendRaw(t, dir, record(outOfRange))
				return dir
			},
			matrix: m, wantErr: "out of range",
		},
		{
			name: "cancelled record",
			prepare: func(t *testing.T) string {
				dir := interruptedLog(t, m, 0)
				appendRaw(t, dir, record(canceled))
				return dir
			},
			matrix: m, wantErr: "cancelled result",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.prepare(t)
			_, err := Resume(dir, tc.matrix)
			if err == nil {
				t.Fatalf("resume accepted a log that should be rejected")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckpointLifecycleErrors(t *testing.T) {
	m := testMatrix()
	if _, err := Resume(t.TempDir(), m); err == nil {
		t.Error("resume of an empty dir must fail")
	}
	dir := t.TempDir()
	ck, err := NewCheckpoint(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpoint(dir, m); err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Errorf("NewCheckpoint on an existing log: err = %v, want a use-Resume hint", err)
	}
	// Cancelled results are skipped, not persisted.
	if err := ck.Append(Result{Job: Job{ID: 0}, Canceled: true}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(Result{}); err == nil {
		t.Error("append after close must fail")
	}
	ck2, err := Resume(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck2.Completed()) != 0 {
		t.Error("cancelled result leaked into the log")
	}
	ck2.Close()
	// A bad matrix fails before touching the filesystem.
	if _, err := NewCheckpoint(t.TempDir(), Matrix{}); err == nil {
		t.Error("NewCheckpoint must validate the matrix")
	}
}

// TestRunRejectsBadCompleted pins the engine-side validation of the
// replay-skip hook, independent of the checkpoint decoder.
func TestRunRejectsBadCompleted(t *testing.T) {
	m := testMatrix()
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bad := jobs[0]
	bad.Seed++
	cases := [][]Result{
		{{Job: Job{ID: -1}}},
		{{Job: Job{ID: len(jobs)}}},
		{{Job: bad}},
		{{Job: jobs[0]}, {Job: jobs[0]}},
		{{Job: jobs[0], Canceled: true}},
	}
	for i, completed := range cases {
		if _, err := Run(context.Background(), m, Config{completed: completed}); err == nil {
			t.Errorf("case %d: Run accepted invalid Completed results", i)
		}
	}
}

// FuzzCheckpointLog throws arbitrary bytes at the log decoder: it must
// never panic, and whatever it accepts must be consistent with the
// matrix it was asked to resume.
func FuzzCheckpointLog(f *testing.F) {
	m := Matrix{Circuits: []string{"c17"}, Scenarios: []Scenario{ScenarioQuality}, Patterns: 8, Seed: 3}
	jobs, err := m.Expand()
	if err != nil {
		f.Fatal(err)
	}
	hdr, err := json.Marshal(checkpointRecord{Type: "header", Version: checkpointVersion, Jobs: len(jobs), Matrix: &m})
	if err != nil {
		f.Fatal(err)
	}
	full, err := Run(context.Background(), m, Config{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	rec, err := json.Marshal(checkpointRecord{Type: "result", Result: &full.Results[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add([]byte(string(hdr) + "\n"))
	f.Add([]byte(string(hdr) + "\n" + string(rec) + "\n"))
	f.Add([]byte(string(hdr) + "\n" + string(rec) + "\n" + string(rec[:20])))
	f.Add([]byte(string(hdr)[:10]))
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		results, valid, err := parseCheckpointLog(data, m, jobs)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		seen := map[int]bool{}
		for _, r := range results {
			if r.Job.ID < 0 || r.Job.ID >= len(jobs) || r.Job != jobs[r.Job.ID] {
				t.Fatalf("accepted result with job %+v not in the matrix", r.Job)
			}
			if seen[r.Job.ID] {
				t.Fatalf("accepted duplicate result for job %d", r.Job.ID)
			}
			if r.Canceled {
				t.Fatal("accepted cancelled result")
			}
			seen[r.Job.ID] = true
		}
	})
}

// TestAppendFailureAbortsRun: once the log cannot accept a record, the
// run must stop instead of burning compute on results that would not
// survive a crash — and the append error must surface, not the
// cancellation it caused.
func TestAppendFailureAbortsRun(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	ck, err := NewCheckpoint(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil { // sabotage: every append now fails
		t.Fatal(err)
	}
	sum, err := ck.Run(context.Background(), Config{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("err = %v, want the sticky append error", err)
	}
	if sum != nil && len(sum.Results) >= sum.Jobs {
		t.Error("run was not cancelled after the append failure")
	}
	if _, serr := os.Stat(filepath.Join(dir, SummaryFile)); !os.IsNotExist(serr) {
		t.Errorf("failed run must not write %s", SummaryFile)
	}
}
