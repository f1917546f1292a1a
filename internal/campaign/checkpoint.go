package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The durability layer: a crash-safe checkpoint log for campaign runs.
//
// A checkpointed campaign owns a run directory holding one append-only
// JSONL file, CheckpointFile. The first record is a header binding the
// log to its matrix — the full spec (including the base seed) plus the
// expanded job count — so a log can never be replayed against a
// different campaign. Every subsequent record is one completed job
// Result, appended and fsync'd before the result is surfaced anywhere
// else. Because each job's seed is a pure function of its coordinates,
// replaying the log and running only the remaining jobs reconstructs the
// exact state of the interrupted run: the final Summary — and the
// campaign.json written next to the log — is byte-identical to an
// uninterrupted run at any parallelism level.
//
// Torn writes: a crash can leave a partial final line. The decoder drops
// an undecodable final record (its job simply re-runs) but refuses
// anything worse — a corrupt interior record, a wrong or missing header,
// or a record that does not match the requested matrix all fail loudly
// instead of silently mis-resuming.

const (
	// CheckpointFile is the JSONL log inside a run directory.
	CheckpointFile = "checkpoint.jsonl"
	// SummaryFile is the canonical campaign summary written to the run
	// directory when a checkpointed campaign completes.
	SummaryFile = "campaign.json"

	// checkpointVersion is bumped on any incompatible record change.
	checkpointVersion = 1
)

// checkpointRecord is one JSONL line: a header (first line) or a result.
type checkpointRecord struct {
	Type    string  `json:"type"`
	Version int     `json:"version,omitempty"`
	Jobs    int     `json:"jobs,omitempty"`
	Matrix  *Matrix `json:"matrix,omitempty"`
	Result  *Result `json:"result,omitempty"`
}

// Checkpoint is an open checkpoint log bound to one campaign matrix. It
// is safe for the single collector goroutine that appends and any other
// goroutine that closes or inspects it.
type Checkpoint struct {
	dir    string
	matrix Matrix
	jobs   []Job
	// completed holds the results replayed from the log, in log order.
	completed []Result

	mu        sync.Mutex
	f         *os.File
	appendErr error
}

// NewCheckpoint creates the run directory (if needed) and starts a fresh
// checkpoint log with a header record bound to the matrix. It fails if
// the directory already contains a log — resuming must be explicit.
func NewCheckpoint(dir string, m Matrix) (*Checkpoint, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint dir: %v", err)
	}
	path := filepath.Join(dir, CheckpointFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("campaign: %s already has a checkpoint log; use Resume", dir)
		}
		return nil, fmt.Errorf("campaign: checkpoint log: %v", err)
	}
	if err := lockCheckpoint(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: %s: %v", path, err)
	}
	c := &Checkpoint{dir: dir, matrix: m, jobs: jobs, f: f}
	if err := c.append(checkpointRecord{
		Type: "header", Version: checkpointVersion, Jobs: len(jobs), Matrix: &m,
	}); err != nil {
		f.Close()
		return nil, err
	}
	// Make the log's directory entry itself durable before any result is
	// trusted to it.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return c, nil
}

// Resume opens an existing checkpoint log, verifies its header against
// the requested matrix, and replays every durable result record. A torn
// final line (partial crash-time write) is truncated away and its job
// re-runs; any other inconsistency is an error. The returned checkpoint
// is ready for Run or Append.
//
// The log is flock'd exclusively for the checkpoint's lifetime, so a
// second process resuming the same run directory fails loudly instead
// of corrupting the log with interleaved appends; the kernel drops the
// lock when the process dies, however it dies, so a crash never leaves
// a stale lock. The lock is taken before the log is read — a concurrent
// writer mid-append must never be mistaken for a torn crash record and
// truncated.
func Resume(dir string, m Matrix) (*Checkpoint, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, CheckpointFile)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: resume: %v", err)
	}
	fail := func(err error) (*Checkpoint, error) {
		f.Close()
		return nil, err
	}
	if err := lockCheckpoint(f); err != nil {
		return fail(fmt.Errorf("campaign: resume %s: %v", path, err))
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("campaign: resume %s: %v", path, err))
	}
	completed, valid, err := parseCheckpointLog(data, m, jobs)
	if err != nil {
		return fail(fmt.Errorf("campaign: resume %s: %v", path, err))
	}
	if valid < int64(len(data)) {
		// Drop the torn tail before appending anything after it.
		if err := f.Truncate(valid); err != nil {
			return fail(fmt.Errorf("campaign: resume: truncating torn record: %v", err))
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(fmt.Errorf("campaign: resume: %v", err))
	}
	c := &Checkpoint{dir: dir, matrix: m, jobs: jobs, completed: completed, f: f}
	if valid == 0 {
		// The original header write itself was torn: rewrite it so the
		// log is well-formed again.
		if err := c.append(checkpointRecord{
			Type: "header", Version: checkpointVersion, Jobs: len(jobs), Matrix: &m,
		}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// PeekMatrix reads the matrix out of a run directory's checkpoint
// header without taking the log's lock — how the multi-run server
// identifies what a recovered run directory holds before deciding to
// resume it. Only the header line is decoded; the body of the log is
// validated by Resume as usual.
func PeekMatrix(dir string) (Matrix, error) {
	path := filepath.Join(dir, CheckpointFile)
	f, err := os.Open(path)
	if err != nil {
		return Matrix{}, fmt.Errorf("campaign: peek: %v", err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		// Includes io.EOF on an unterminated first line: the header write
		// itself was torn, so nothing durable identifies this directory.
		return Matrix{}, fmt.Errorf("campaign: peek %s: no durable header: %v", path, err)
	}
	var hdr checkpointRecord
	if err := json.Unmarshal(line, &hdr); err != nil {
		return Matrix{}, fmt.Errorf("campaign: peek %s: corrupt header: %v", path, err)
	}
	switch {
	case hdr.Type != "header" || hdr.Matrix == nil:
		return Matrix{}, fmt.Errorf("campaign: peek %s: first record is not a matrix header", path)
	case hdr.Version != checkpointVersion:
		return Matrix{}, fmt.Errorf("campaign: peek %s: checkpoint version %d, this build reads %d", path, hdr.Version, checkpointVersion)
	}
	return *hdr.Matrix, nil
}

// OpenCheckpoint resumes the run directory's log if one exists and
// starts a fresh one otherwise — the "just re-run the same command"
// entry point RunCheckpointed and the CLI use.
func OpenCheckpoint(dir string, m Matrix) (*Checkpoint, error) {
	if _, err := os.Stat(filepath.Join(dir, CheckpointFile)); err == nil {
		return Resume(dir, m)
	}
	return NewCheckpoint(dir, m)
}

// parseCheckpointLog decodes the log bytes against the expanded matrix.
// It returns the replayed results in log order and the byte length of
// the valid prefix; everything past it is a torn final record to be
// truncated. Only the final record may be undecodable (torn); corruption
// anywhere else, a bad header, or any record that contradicts the
// requested matrix is an error.
func parseCheckpointLog(data []byte, m Matrix, jobs []Job) ([]Result, int64, error) {
	wantMatrix, err := matrixIdentity(m)
	if err != nil {
		return nil, 0, err
	}
	// Complete records are newline-terminated; a trailing unterminated
	// span can only be a torn final write.
	var lines [][2]int // [start, end) of each complete line
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, [2]int{start, i})
			start = i + 1
		}
	}
	tornTail := start < len(data)
	if len(lines) == 0 {
		// Nothing durable yet — even the header write was torn (or the
		// file is empty). Resume rewrites the header from scratch.
		return nil, 0, nil
	}

	var hdr checkpointRecord
	if err := json.Unmarshal(data[lines[0][0]:lines[0][1]], &hdr); err != nil {
		if len(lines) == 1 && !tornTail {
			// The header line itself is the torn final record.
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("corrupt header record: %v", err)
	}
	switch {
	case hdr.Type != "header":
		return nil, 0, fmt.Errorf("first record has type %q, want header", hdr.Type)
	case hdr.Version != checkpointVersion:
		return nil, 0, fmt.Errorf("checkpoint version %d, this build reads %d", hdr.Version, checkpointVersion)
	case hdr.Matrix == nil:
		return nil, 0, fmt.Errorf("header record carries no matrix")
	}
	gotMatrix, err := matrixIdentity(*hdr.Matrix)
	if err != nil {
		return nil, 0, err
	}
	if gotMatrix != wantMatrix {
		return nil, 0, fmt.Errorf("checkpoint matrix does not match the requested campaign:\nlog:       %s\nrequested: %s", gotMatrix, wantMatrix)
	}
	if hdr.Jobs != len(jobs) {
		return nil, 0, fmt.Errorf("checkpoint expanded to %d jobs, requested matrix expands to %d", hdr.Jobs, len(jobs))
	}

	results := make([]Result, 0, len(lines)-1)
	seen := make(map[int]bool, len(lines)-1)
	valid := int64(lines[0][1] + 1)
	for i, span := range lines[1:] {
		line := data[span[0]:span[1]]
		lineNo := i + 2 // 1-based, after the header
		last := span[1]+1 == len(data)
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if last {
				// Torn final record: drop it, the job re-runs.
				return results, valid, nil
			}
			return nil, 0, fmt.Errorf("corrupt record at line %d: %v", lineNo, err)
		}
		if rec.Type != "result" || rec.Result == nil {
			return nil, 0, fmt.Errorf("record at line %d has type %q, want result", lineNo, rec.Type)
		}
		r := *rec.Result
		if err := validateReplayed(r, jobs, seen); err != nil {
			return nil, 0, fmt.Errorf("record at line %d: %v", lineNo, err)
		}
		results = append(results, r)
		valid = int64(span[1] + 1)
	}
	return results, valid, nil
}

// matrixIdentity renders the matrix in its canonical JSON form — the
// single definition of "same campaign" shared by the checkpoint header
// check and the service's checkpoint binding, so the two can never
// disagree about which logs belong to which matrices.
func matrixIdentity(m Matrix) (string, error) {
	js, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	return string(js), nil
}

// validateReplayed checks one replayed result against its matrix cell
// and records it in seen. It is the single source of truth for what may
// re-enter a campaign as already completed — shared by the checkpoint
// decoder and the engine's validation of the results Checkpoint.Run
// replays, so the two can never drift.
func validateReplayed(r Result, jobs []Job, seen map[int]bool) error {
	id := r.Job.ID
	switch {
	case id < 0 || id >= len(jobs):
		return fmt.Errorf("job id %d out of range [0,%d)", id, len(jobs))
	case r.Job != jobs[id]:
		return fmt.Errorf("job %d does not match the matrix (replayed %s, matrix has %s)",
			id, r.Job.Name(), jobs[id].Name())
	case seen[id]:
		return fmt.Errorf("duplicate result for job %d", id)
	case r.Canceled:
		return fmt.Errorf("cancelled result for job %d (cancelled jobs are never replayed as completed)", id)
	}
	seen[id] = true
	return nil
}

// Completed returns the results replayed from the log, in log order.
// The slice is shared — treat it as read-only.
func (c *Checkpoint) Completed() []Result { return c.completed }

// Dir returns the run directory the checkpoint lives in.
func (c *Checkpoint) Dir() string { return c.dir }

// Append durably records one completed job: the record is written and
// fsync'd before Append returns. Cancelled results are skipped — an
// interrupted job must re-run on resume. The first append failure is
// sticky (see Err): once the log can no longer guarantee durability,
// every later append fails too.
func (c *Checkpoint) Append(r Result) error {
	if r.Canceled {
		return nil
	}
	return c.append(checkpointRecord{Type: "result", Result: &r})
}

func (c *Checkpoint) append(rec checkpointRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.appendErr != nil {
		return c.appendErr
	}
	if c.f == nil {
		c.appendErr = fmt.Errorf("campaign: checkpoint log is closed")
		return c.appendErr
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		c.appendErr = fmt.Errorf("campaign: checkpoint record: %v", err)
		return c.appendErr
	}
	buf = append(buf, '\n')
	if _, err := c.f.Write(buf); err != nil {
		c.appendErr = fmt.Errorf("campaign: checkpoint append: %v", err)
		return c.appendErr
	}
	if err := c.f.Sync(); err != nil {
		c.appendErr = fmt.Errorf("campaign: checkpoint fsync: %v", err)
		return c.appendErr
	}
	return nil
}

// Err returns the sticky append error, if any.
func (c *Checkpoint) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendErr
}

// Close closes the log file. It does not write campaign.json — that
// happens only when a Run completes.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Destroy closes the log and removes the whole run directory — the
// explicit-discard path: a run canceled by its tenant must not
// resurrect at the next server start. It is never part of a normal run
// lifecycle; completed and merely-interrupted runs keep their
// directories.
func (c *Checkpoint) Destroy() error {
	cerr := c.Close()
	if err := destroyRunDir(c.dir); err != nil {
		return err
	}
	return cerr
}

// destroyRunDir removes a run directory whose checkpoint log is already
// closed — the explicit-discard path for a run canceled after a server
// drain released its log. Run-directory mutation stays in this file so
// the durability contract has one home.
func destroyRunDir(dir string) error {
	return os.RemoveAll(dir)
}

// Run executes the campaign under this checkpoint: replayed jobs are
// skipped (their logged results merge into the summary as-is), every
// newly completed job is appended and fsync'd before the caller's
// OnResult sees it, and on completion the canonical summary is written
// atomically to SummaryFile in the run directory. The summary — in
// memory and on disk — is byte-identical to an uninterrupted run of the
// same matrix at any parallelism level.
func (c *Checkpoint) Run(ctx context.Context, cfg Config) (*Summary, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg.completed = c.completed
	user := cfg.OnResult
	cfg.OnResult = func(r Result) {
		// Durability first: the result reaches the log before any
		// observer — and an observer never sees a result the log failed
		// to take, or a resumed run would re-run and re-surface it as a
		// duplicate. On the first append failure the log can no longer
		// keep its promise, so the run is cancelled; every further job
		// would just re-run after the next resume anyway. The sticky
		// error is surfaced below, taking precedence over the
		// cancellation it caused. (Cancelled results pass through:
		// Append skips them by design and observers report them as
		// interrupted, not completed.)
		if err := c.Append(r); err != nil {
			cancel()
			return
		}
		if user != nil {
			user(r)
		}
	}
	sum, err := Run(ctx, c.matrix, cfg)
	if aerr := c.Err(); aerr != nil {
		return sum, aerr
	}
	if err != nil {
		return sum, err
	}
	js, err := sum.JSON()
	if err != nil {
		return sum, err
	}
	if err := writeFileAtomic(filepath.Join(c.dir, SummaryFile), append(js, '\n')); err != nil {
		return sum, fmt.Errorf("campaign: writing %s: %v", SummaryFile, err)
	}
	return sum, nil
}

// RunCheckpointed is the one-call durable campaign entry point: it opens
// (or resumes) the run directory's checkpoint log, runs the remaining
// jobs, and writes the run directory's campaign.json on completion.
// Re-running the same command after an interruption — or a crash —
// continues where the log left off.
func RunCheckpointed(ctx context.Context, dir string, m Matrix, cfg Config) (*Summary, error) {
	ck, err := OpenCheckpoint(dir, m)
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	return ck.Run(ctx, cfg)
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync and rename, so a crash never leaves a half-written summary.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
