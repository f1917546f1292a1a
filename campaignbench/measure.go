package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"rescue/campaignbench/stats"
	"rescue/internal/campaign"
)

const (
	// traceSamples is the number of untimed samples a traced run takes
	// for its obs counters and the reference results.
	traceSamples = 3
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
)

// digests.json records the output digest of each input of a workload's
// default run. A sample whose digest differs has every operation
// counted as failed. For other seeds the digests are printed, and the
// samples of one input must agree with each other.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// childRequest is what the parent hands a child process on stdin.
type childRequest struct {
	// Replay selects the traced replay instead of a timed sample.
	Replay bool       `json:"replay,omitempty"`
	Spec   sampleSpec `json:"spec"`
	// Results is where a sample writes every run's job results, and
	// where the replay reads them back to validate its reports.
	Results   string `json:"results,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
}

// runChild runs req in a fresh process of this binary, decodes its JSON
// answer into out, and returns the child's CPU time and peak RSS.
func runChild(ctx context.Context, req childRequest, out any) (cpuS, rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	in, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, childFlag)
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("child process: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return 0, 0, fmt.Errorf("decoding child output: %v", err)
	}
	ps := cmd.ProcessState
	cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return cpuS, rssMB, nil
}

// childFlag is the argument runChild starts a child process with.
const childFlag = "-child"

// childMain serves one childRequest read from stdin.
func childMain(stdin io.Reader, stdout io.Writer) error {
	var req childRequest
	if err := json.NewDecoder(stdin).Decode(&req); err != nil {
		return fmt.Errorf("decoding child request: %v", err)
	}
	if req.Replay {
		rec, err := replayChild(req)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rec)
	}
	rec, results, err := runSample(context.Background(), req.Spec)
	if err != nil {
		return err
	}
	if req.Results != "" {
		raw, err := json.Marshal(results)
		if err != nil {
			return err
		}
		if err := os.WriteFile(req.Results, raw, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rec)
}

func replayChild(req childRequest) (*replayRecord, error) {
	var want [][]campaign.Result
	raw, err := os.ReadFile(req.Results)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("decoding reference results: %v", err)
	}
	dir, err := os.MkdirTemp("", "campaignbench-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newReplayer()
	got, err := r.replay(req.Spec, dir)
	if err != nil {
		return nil, err
	}
	rec := r.rec
	rec.LayerS, rec.UnattributedS = selfTimes(r.tr.spans)
	root := r.tr.spans[0]
	rec.WallS = float64(root.End-root.Start) / 1e9
	rec.CreateS, rec.AppendS = durations(r.tr.spans, spanCreate), durations(r.tr.spans, spanAppend)
	rec.Mismatch = firstMismatch(want, got)
	if req.TraceFile != "" {
		if err := writeTrace(req.TraceFile, r.tr.spans); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// measured is one metric of a run: the reported value, and the
// distribution of its per-sample values.
type measured struct {
	Value float64 `json:"value"`
	stats.Summary
}

func of(xs []float64) measured {
	s := stats.Summarize(xs)
	return measured{Value: s.Median, Summary: s}
}

func single(v float64) measured { return of([]float64{v}) }

// runRecord is the outcome of one benchmark run of one workload.
type runRecord struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Trace     bool         `json:"trace"`
	Cohort    stats.Cohort `json:"cohort"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Samples   int          `json:"samples"`
	// Digests maps each input seed to its samples' output digest.
	Digests map[int64]string    `json:"digests"`
	Metrics map[string]measured `json:"metrics"`

	recorded map[int64]bool // inputs whose digest digests.json fixes
	problems []string
	notes    []string
}

type options struct {
	seconds  float64
	trace    bool
	traceDir string
}

// measure runs one workload at one seed: timed samples, each in a fresh
// child process, until the time budget is spent and the workload's
// minimum sample count is reached; or, traced, a few samples for the
// counters and reference results followed by the traced replay.
func measure(ctx context.Context, w workload, seed int64, o options) (*runRecord, error) {
	work, err := os.MkdirTemp("", "campaignbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	ref := filepath.Join(work, "reference.json")

	// Samples cycle through the run's inputs; a traced run replays its
	// first input only.
	var samples []sampleRecord
	start := time.Now()
	for {
		n := len(samples)
		if o.trace && n == traceSamples ||
			!o.trace && n >= w.minSamples && time.Since(start).Seconds() >= o.seconds {
			break
		}
		input := w.inputSeed(seed, n%w.inputs)
		if o.trace {
			input = w.inputSeed(seed, 0)
		}
		req := childRequest{Spec: w.spec(input)}
		if o.trace && n == 0 {
			req.Results = ref
		}
		var rec sampleRecord
		cpu, rss, err := runChild(ctx, req, &rec)
		if err != nil {
			return nil, fmt.Errorf("%s sample %d: %w", w.name, n, err)
		}
		rec.Input, rec.CPUS, rec.PeakRSSMB = input, cpu, rss
		samples = append(samples, rec)
	}

	res := &runRecord{Workload: w.name, Seed: seed, Trace: o.trace, Cohort: stats.CurrentCohort(), Samples: len(samples)}
	res.check(samples)
	if !o.trace {
		res.Metrics = endToEnd(w, samples, res)
	} else {
		var rep replayRecord
		req := childRequest{Replay: true, Spec: w.spec(w.inputSeed(seed, 0)), Results: ref,
			TraceFile: filepath.Join(o.traceDir, "trace-"+w.name+".jsonl")}
		if _, _, err := runChild(ctx, req, &rep); err != nil {
			return nil, fmt.Errorf("%s replay: %w", w.name, err)
		}
		res.Attempted += rep.Jobs
		if rep.Mismatch != "" {
			res.Failed += rep.Jobs
			res.problems = append(res.problems, "replay does not reproduce the campaign: "+rep.Mismatch)
		}
		ns, err := kernelNsPerGateEval()
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(samples, &rep, ns, res)
		res.notes = append(res.notes, "trace written to "+req.TraceFile)
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res, nil
}

// check counts operations and failures, and compares every sample's
// output digest with the one recorded for its input, or with the first
// digest of that input when none is recorded.
func (res *runRecord) check(samples []sampleRecord) {
	res.Digests, res.recorded = make(map[int64]string), make(map[int64]bool)
	for i, s := range samples {
		want, ok := res.Digests[s.Input]
		if !ok {
			want, ok = recordedDigest(res.Workload, s.Input)
			if !ok {
				want = s.Digest
			}
			res.Digests[s.Input], res.recorded[s.Input] = want, ok
		}
		res.Attempted += s.Ops
		res.Failed += s.Failed
		if s.Digest != want {
			res.Failed += s.Ops - s.Failed
			res.problems = append(res.problems, fmt.Sprintf("sample %d (input seed %d): output digest %s, want %s",
				i, s.Input, s.Digest, want))
		}
	}
}

func column(samples []sampleRecord, f func(sampleRecord) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// toReference is the factor that scales a sample's timings to the
// reference host speed (see probe.go).
func toReference(s sampleRecord) float64 { return refProbeNs / s.ProbeNs }

// pooled reports the q-quantile over every sample's latencies together,
// each scaled to the reference host speed; its distribution is that of
// the per-sample q-quantiles.
func pooled(samples []sampleRecord, q float64) measured {
	var all []float64
	per := make([]float64, 0, len(samples))
	for _, s := range samples {
		if len(s.LatencyS) == 0 { // every operation failed; counted in failed
			continue
		}
		l := make([]float64, len(s.LatencyS))
		for i, v := range s.LatencyS {
			l[i] = v * toReference(s)
		}
		all = append(all, l...)
		sort.Float64s(l)
		per = append(per, stats.Quantile(l, q))
	}
	if len(all) == 0 {
		return measured{}
	}
	sort.Float64s(all)
	m := of(per)
	m.Value = stats.Quantile(all, q)
	return m
}

func endToEnd(w workload, samples []sampleRecord, res *runRecord) map[string]measured {
	ops := 0
	for _, s := range samples {
		ops += len(s.LatencyS)
	}
	res.notes = append(res.notes, fmt.Sprintf("latency quantiles pool %d operations; latency_tail_s is p%g",
		ops, 100*w.tailQ))
	if float64(ops)*(1-w.tailQ) < 10 {
		res.notes = append(res.notes, fmt.Sprintf("warning: p%g of %d operations has fewer than ten beyond it", 100*w.tailQ, ops))
	}
	raw := func(f func(sampleRecord) float64) measured { return of(column(samples, f)) }
	scaled := func(f func(sampleRecord) float64) measured {
		return raw(func(s sampleRecord) float64 { return f(s) * toReference(s) })
	}
	wall := func(s sampleRecord) float64 { return s.WallS }
	cpu := func(s sampleRecord) float64 { return s.CPUS }
	probe := raw(func(s sampleRecord) float64 { return s.ProbeNs })
	res.notes = append(res.notes,
		fmt.Sprintf("timings are scaled to the reference host speed: host probe median %.4g ns/step (q1 %.4g, q3 %.4g), reference %g",
			probe.Median, probe.Q1, probe.Q3, refProbeNs),
		fmt.Sprintf("unscaled medians: campaign_s %.6g s, cpu_s %.6g s", raw(wall).Median, raw(cpu).Median))
	return map[string]measured{
		"campaign_s":     scaled(wall),
		"cpu_s":          scaled(cpu),
		"latency_p50_s":  pooled(samples, 0.5),
		"latency_tail_s": pooled(samples, w.tailQ),
		"peak_rss_mb":    raw(func(s sampleRecord) float64 { return s.PeakRSSMB }),
		"setup_s":        scaled(func(s sampleRecord) float64 { return s.SetupS }),
	}
}

var stageNames = []string{"quality", "reliability", "safety", "security"}

func stageSeconds(s sampleRecord, stage string) float64 {
	return s.Counters[`flow_stage_seconds_sum{stage="`+stage+`"}`]
}

// perLayer computes the per-layer metrics: obs counter deltas and
// client-side server timings from the untimed samples (medians), and
// layer shares from the replay. Server layers read 0 on the batch
// workloads, which have none; campaign.longest_job_share is the longest
// operation — a job, or a server run — over the measured phase.
func perLayer(samples []sampleRecord, rep *replayRecord, nsPerEval float64, res *runRecord) map[string]measured {
	per := func(f func(sampleRecord) float64) measured { return of(column(samples, f)) }
	ctr := func(name string) measured {
		return per(func(s sampleRecord) float64 { return s.Counters[name] })
	}
	v := map[string]measured{
		"atpg.podem_calls":    ctr("atpg_podem_calls_total"),
		"atpg.backtracks":     ctr("atpg_backtracks_total"),
		"faultsim.gate_evals": ctr("sim_gate_evals_total"),
		"faultsim.cone_evals": ctr("sim_cone_evals_total"),
		"faultsim.patterns":   ctr("faultsim_patterns_total"),
		"faultsim.dropped":    ctr("faultsim_faults_dropped_total"),
		"netlist.artifact_hit_ratio": per(func(s sampleRecord) float64 {
			h := s.Counters["artifact_cache_hits_total"]
			return ratio(h, h+s.Counters["artifact_cache_misses_total"])
		}),
		"netlist.cone_hit_ratio": per(func(s sampleRecord) float64 {
			h := s.Counters["cone_cache_hits_total"]
			return ratio(h, h+s.Counters["cone_cache_misses_total"])
		}),
		"stagecache.hits":   ctr("campaign_stage_cache_hits_total"),
		"stagecache.misses": ctr("campaign_stage_cache_misses_total"),
		"stagecache.waits":  ctr("campaign_stage_cache_waits_total"),
		"stagecache.dedup_ratio": per(func(s sampleRecord) float64 {
			shared := s.Counters["campaign_stage_cache_hits_total"] + s.Counters["campaign_stage_cache_waits_total"]
			return ratio(shared, shared+s.Counters["campaign_stage_cache_misses_total"])
		}),
		"campaign.jobs":      ctr("campaign_jobs_completed_total"),
		"campaign.job_s_sum": ctr("campaign_job_seconds_sum"),
		"campaign.worker_busy_ratio": per(func(s sampleRecord) float64 {
			return ratio(s.Counters["campaign_job_seconds_sum"], workerSlots*s.WallS)
		}),
		"campaign.longest_job_share": per(func(s sampleRecord) float64 {
			longest := 0.0
			for _, l := range s.LatencyS {
				longest = math.Max(longest, l)
			}
			return ratio(longest, s.WallS)
		}),
		"server.admit_share": per(func(s sampleRecord) float64 { return ratio(sum(s.AdmitS), sum(s.LatencyS)) }),
		"server.result_share": per(func(s sampleRecord) float64 {
			return ratio(sum(s.ResultS), sum(s.LatencyS))
		}),
		"server.queue_wait_share": per(func(s sampleRecord) float64 {
			return ratio(s.Counters["campaign_server_queue_wait_seconds_sum"], sum(s.LatencyS))
		}),
		"server.polls_per_run": per(func(s sampleRecord) float64 { return ratio(float64(s.Polls), float64(s.Ops)) }),
		"server.rejected":      per(func(s sampleRecord) float64 { return float64(s.Rejected) }),
		"sim.ns_per_gate_eval": single(nsPerEval),
	}
	for _, st := range stageNames {
		v["core.stage_share."+st] = per(func(s sampleRecord) float64 {
			total := 0.0
			for _, other := range stageNames {
				total += stageSeconds(s, other)
			}
			return ratio(stageSeconds(s, st), total)
		})
	}
	cpu := of(column(samples, func(s sampleRecord) float64 { return s.CPUS })).Value
	v["sim.kernel_share"] = single(v["faultsim.gate_evals"].Value * nsPerEval * 1e-9 / cpu)
	v["slicing.injections"] = single(float64(rep.Injections))
	v["slicing.actual_gate_evals"] = single(float64(rep.ActualGateEvals))
	v["trace.replay_s"] = single(rep.WallS)
	v["trace.unattributed_ratio"] = single(rep.UnattributedS / rep.WallS)
	v["trace.overhead_ratio"] = single(rep.WallS/cpu - 1)
	for _, l := range replayLayers {
		v[l+".share"] = single(rep.LayerS[l] / rep.WallS)
	}

	// Absolute numbers behind the shares, for the human-readable report.
	med := func(f func(sampleRecord) float64) float64 { return per(f).Value }
	res.notes = append(res.notes, fmt.Sprintf("atpg.round_s %.4g s (obs atpg_round_seconds)",
		med(func(s sampleRecord) float64 { return s.Counters["atpg_round_seconds_sum"] })))
	for _, st := range stageNames {
		res.notes = append(res.notes, fmt.Sprintf("core.stage_s.%s %.4g s", st,
			med(func(s sampleRecord) float64 { return stageSeconds(s, st) })))
	}
	for _, l := range replayLayers {
		res.notes = append(res.notes, fmt.Sprintf("replay self time %-26s %.4g s", l, rep.LayerS[l]))
	}
	if len(samples[0].AdmitS) > 0 {
		var admit, result []float64
		for _, s := range samples {
			admit = append(admit, s.AdmitS...)
			result = append(result, s.ResultS...)
		}
		a, r := stats.Summarize(admit), stats.Summarize(result)
		res.notes = append(res.notes,
			fmt.Sprintf("server.admit_s p50 %.4g s, p%g %.4g s (n=%d)", a.Median, 100*a.TailQ, a.Tail, a.N),
			fmt.Sprintf("server.result_s p50 %.4g s (n=%d)", r.Median, r.N),
			fmt.Sprintf("server.queue_wait_s %.4g s per sample",
				med(func(s sampleRecord) float64 { return s.Counters["campaign_server_queue_wait_seconds_sum"] })))
	}
	if len(rep.CreateS) > 0 {
		c, a := stats.Summarize(rep.CreateS), stats.Summarize(rep.AppendS)
		res.notes = append(res.notes,
			fmt.Sprintf("checkpoint.create_s p50 %.4g s (n=%d)", c.Median, c.N),
			fmt.Sprintf("checkpoint.append_s p50 %.4g s, p%g %.4g s (n=%d)", a.Median, 100*a.TailQ, a.Tail, a.N))
	}
	return v
}

// report prints the run's metrics as a table, then the one-line JSON
// result (the last line of output). It fails when the metrics measured
// are not exactly the ones BENCHMARK.json lists for this mode.
func (res *runRecord) report(out io.Writer, metrics []metricSpec) error {
	if len(metrics) != len(res.Metrics) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(metrics))
	}
	fmt.Fprintf(out, "# workload %s  seed %d  samples %d  cohort %s/%dcpu/%s/%s/%s\n",
		res.Workload, res.Seed, res.Samples, res.Cohort.Host, res.Cohort.NumCPU,
		res.Cohort.GOOS, res.Cohort.GOARCH, res.Cohort.GoVersion)
	fmt.Fprintf(out, "%-34s %-6s %12s %12s %12s %12s %4s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := make(map[string]line, len(metrics))
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %q of BENCHMARK.json was not measured", m.Name)
		}
		fmt.Fprintf(out, "%-34s %-6s %12.6g %12.6g %12.6g %12.6g %4d\n", m.Name, m.Unit, v.Value, v.Median, v.Q1, v.Q3, v.N)
		final[m.Name] = line{Value: v.Value, Unit: m.Unit}
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	inputs := make([]int64, 0, len(res.Digests))
	for in := range res.Digests {
		inputs = append(inputs, in)
	}
	slices.Sort(inputs)
	for _, in := range inputs {
		checked := "not recorded; compared across samples"
		if res.recorded[in] {
			checked = "recorded in digests.json"
		}
		fmt.Fprintf(out, "# input seed %d: output digest %s (%s)\n", in, res.Digests[in], checked)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "# INCORRECT: %s\n", p)
	}
	js, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, final})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", js)
	return nil
}
