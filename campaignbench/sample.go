package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/campaign"
	"rescue/internal/obs"
)

// pollInterval is how often a server-churn client asks for its run's
// state while waiting for the verdict.
const pollInterval = 500 * time.Microsecond

// sampleRecord is what one child-process sample reports to the parent.
type sampleRecord struct {
	// SetupS is the warm-up phase: a security-only campaign over the
	// sample's circuits, which builds every circuit artifact, plus (for
	// server-churn) NewServer and listen.
	SetupS float64 `json:"setup_s"`
	// WallS is the measured phase: campaign.Run, or the server-churn
	// client loop.
	WallS  float64 `json:"wall_s"`
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	// Digest is the sha256 of Summary.JSON() (batch), or of the /result
	// bodies in submission order (server-churn).
	Digest string `json:"digest"`
	// LatencyS has one entry per completed operation: a job's wall-clock
	// as campaign.Run streams it (batch), or a run's latency from POST to
	// the last byte of its result (server-churn).
	LatencyS []float64 `json:"latency_s"`
	// Counters are the obs registry deltas over the measured phase.
	Counters map[string]float64 `json:"counters"`
	// ProbeNs is the host probe's mean ns per step, right before and
	// right after the measured phase.
	ProbeNs float64 `json:"probe_ns"`

	// Server-churn client-side timings: POST to 202, and GET /result.
	AdmitS   []float64 `json:"admit_s,omitempty"`
	ResultS  []float64 `json:"result_s,omitempty"`
	Polls    int       `json:"polls,omitempty"`
	Rejected int       `json:"rejected,omitempty"`

	// The parent fills in the rest: the seed the sample's inputs were
	// generated from, and CPU time (user+sys) and peak RSS from the
	// child's rusage.
	Input     int64   `json:"input"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runSample executes one sample in this (fresh) process and returns its
// record plus every run's job results, in submission order.
func runSample(ctx context.Context, spec sampleSpec) (sampleRecord, [][]campaign.Result, error) {
	p := newHostProbe()
	run := runBatch
	if spec.Server {
		run = runServer
	}
	// The probe runs around the measured phase, never inside it.
	var before float64
	rec, results, err := run(ctx, spec, func() { before = p.nsPerStep() })
	rec.ProbeNs = (before + p.nsPerStep()) / 2
	return rec, results, err
}

// warmUp builds the circuit artifacts of names through a security-only
// campaign. The stage cache is off so the measured phase starts with it
// cold, as a fresh CLI process does.
func warmUp(ctx context.Context, names []string) error {
	m := campaign.Matrix{Circuits: names, Scenarios: []campaign.Scenario{campaign.ScenarioSecurity}, Seed: 1}
	sum, err := campaign.Run(ctx, m, campaign.Config{Parallelism: batchParallelism, DisableStageCache: true})
	if err != nil {
		return fmt.Errorf("set-up campaign: %w", err)
	}
	if sum.Completed != sum.Jobs {
		return fmt.Errorf("set-up campaign: %d of %d jobs completed", sum.Completed, sum.Jobs)
	}
	return nil
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// runBatch and runServer call probe between set-up and the measured
// phase.
func runBatch(ctx context.Context, spec sampleSpec, probe func()) (sampleRecord, [][]campaign.Result, error) {
	var rec sampleRecord
	if len(spec.Matrices) != 1 {
		return rec, nil, fmt.Errorf("batch sample needs one matrix, got %d", len(spec.Matrices))
	}
	t := time.Now()
	if err := warmUp(ctx, spec.Warm); err != nil {
		return rec, nil, err
	}
	rec.SetupS = time.Since(t).Seconds()

	cfg := campaign.Config{
		Parallelism: batchParallelism,
		OnResult: func(r campaign.Result) {
			if r.Err == "" {
				rec.LatencyS = append(rec.LatencyS, r.Elapsed.Seconds())
			}
		},
	}
	probe()
	before := obs.Default.Snapshot()
	t = time.Now()
	sum, err := campaign.Run(ctx, spec.Matrices[0], cfg)
	rec.WallS = time.Since(t).Seconds()
	rec.Counters = counterDelta(before, obs.Default.Snapshot())
	if err != nil {
		return rec, nil, err
	}
	js, err := sum.JSON()
	if err != nil {
		return rec, nil, err
	}
	h := sha256.Sum256(js)
	rec.Digest = hex.EncodeToString(h[:])
	rec.Ops = sum.Jobs
	rec.Failed = sum.Jobs - sum.Completed
	return rec, [][]campaign.Result{sum.Results}, nil
}

func runServer(ctx context.Context, spec sampleSpec, probe func()) (sampleRecord, [][]campaign.Result, error) {
	var rec sampleRecord
	t := time.Now()
	if err := warmUp(ctx, spec.Warm); err != nil {
		return rec, nil, err
	}
	dir, err := os.MkdirTemp("", "campaignbench-runs-")
	if err != nil {
		return rec, nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := campaign.NewServer(campaign.ServerConfig{
		BaseDir:       dir,
		MaxActiveRuns: serverActiveRuns,
		RunConfig:     campaign.Config{Parallelism: 1},
	})
	if err != nil {
		return rec, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rec, nil, err
	}
	serveCtx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serveCtx, ln) }()
	defer func() {
		stop()
		if err := <-served; err != nil {
			fmt.Fprintf(os.Stderr, "campaignbench: server shutdown: %v\n", err)
		}
	}()
	rec.SetupS = time.Since(t).Seconds()

	tr := &http.Transport{MaxConnsPerHost: serverClients, MaxIdleConnsPerHost: serverClients}
	defer tr.CloseIdleConnections()
	c := &churnClient{http: &http.Client{Transport: tr, Timeout: time.Minute}, base: "http://" + ln.Addr().String()}

	outs := make([]runOutcome, len(spec.Matrices))
	var next atomic.Int64
	var wg sync.WaitGroup
	probe()
	before := obs.Default.Snapshot()
	t = time.Now()
	for range serverClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(outs) {
					return
				}
				outs[i] = c.run(ctx, spec.Matrices[i])
			}
		}()
	}
	wg.Wait()
	rec.WallS = time.Since(t).Seconds()
	rec.Counters = counterDelta(before, obs.Default.Snapshot())

	h := sha256.New()
	results := make([][]campaign.Result, len(outs))
	for i, o := range outs {
		rec.Ops++
		rec.Polls += o.polls
		rec.Rejected += o.rejected
		if o.err != nil {
			rec.Failed++
			fmt.Fprintf(os.Stderr, "campaignbench: run %d: %v\n", i, o.err)
			continue
		}
		h.Write(o.body)
		var sum campaign.Summary
		if err := json.Unmarshal(o.body, &sum); err != nil {
			return rec, nil, fmt.Errorf("run %d: decoding result: %v", i, err)
		}
		if sum.Completed != sum.Jobs {
			rec.Failed++
			continue
		}
		results[i] = sum.Results
		rec.LatencyS = append(rec.LatencyS, o.latency)
		rec.AdmitS = append(rec.AdmitS, o.admit)
		rec.ResultS = append(rec.ResultS, o.result)
	}
	rec.Digest = hex.EncodeToString(h.Sum(nil))
	return rec, results, nil
}

// churnClient is one tenant of the server-churn workload: it submits a
// run, polls it to a terminal state and fetches the verdict.
type churnClient struct {
	http *http.Client
	base string
}

type runOutcome struct {
	body                   []byte
	latency, admit, result float64
	polls, rejected        int
	err                    error
}

func (c *churnClient) run(ctx context.Context, m campaign.Matrix) (o runOutcome) {
	spec, err := json.Marshal(m)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	code, body, err := c.do(ctx, http.MethodPost, "/runs", spec)
	if err != nil {
		o.err = err
		return o
	}
	if code == http.StatusTooManyRequests {
		// A refused submission counts as a failed operation.
		o.rejected++
		o.err = fmt.Errorf("POST /runs: rejected with 429")
		return o
	}
	if code != http.StatusAccepted {
		o.err = fmt.Errorf("POST /runs: status %d: %s", code, body)
		return o
	}
	o.admit = time.Since(t0).Seconds()
	var info campaign.RunInfo
	if err := json.Unmarshal(body, &info); err != nil {
		o.err = fmt.Errorf("decoding admission: %v", err)
		return o
	}
	path := fmt.Sprintf("/runs/%d", info.ID)
	for info.State == campaign.RunQueued || info.State == campaign.RunRunning {
		time.Sleep(pollInterval)
		code, body, err := c.do(ctx, http.MethodGet, path, nil)
		if err != nil {
			o.err = err
			return o
		}
		if code != http.StatusOK {
			o.err = fmt.Errorf("GET %s: status %d: %s", path, code, body)
			return o
		}
		if err := json.Unmarshal(body, &info); err != nil {
			o.err = fmt.Errorf("decoding run state: %v", err)
			return o
		}
		o.polls++
	}
	if info.State != campaign.RunDone {
		o.err = fmt.Errorf("run %d ended %s: %s", info.ID, info.State, info.Error)
		return o
	}
	t1 := time.Now()
	code, body, err = c.do(ctx, http.MethodGet, path+"/result", nil)
	if err != nil {
		o.err = err
		return o
	}
	if code != http.StatusOK {
		o.err = fmt.Errorf("GET %s/result: status %d: %s", path, code, body)
		return o
	}
	o.result = time.Since(t1).Seconds()
	o.latency = time.Since(t0).Seconds()
	o.body = body
	return o
}

func (c *churnClient) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
