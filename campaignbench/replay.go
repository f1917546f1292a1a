package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rescue/internal/aging"
	"rescue/internal/atpg"
	"rescue/internal/campaign"
	"rescue/internal/circuits"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/fusa"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sca"
	"rescue/internal/seu"
	"rescue/internal/sim"
	"rescue/internal/slicing"
)

// The traced replay measures every layer from outside the program: it
// expands each matrix itself and executes every job serially by calling
// the layers' public functions in the order internal/core's stage code
// calls them, timing each call as a span. Serial execution makes the
// layers' self times add up to the replay's wall time. Like the stage
// cache, the replay computes a stage once per set of declared inputs
// (core.EffectiveInputs). Its reports must equal the untraced campaign's
// field for field, or the layer numbers describe some other computation.

// span is one timed interval of the replay: the whole replay, a run, a
// job, a stage, or a call into a layer (Layer set only on calls).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; IDs are 1-based indices into spans and
// parent 0 means none.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) begin(name, layer string) {
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans))
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// call runs fn as a leaf span of layer.
func (t *tracer) call(name, layer string, fn func() error) error {
	t.begin(name, layer)
	defer t.end()
	return fn()
}

// selfTimes sums each layer's self time (duration minus the children's)
// and the self time of the structural spans, which no layer explains.
func selfTimes(spans []span) (layers map[string]float64, unattributed float64) {
	children := make([]int64, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] += s.End - s.Start
	}
	layers = make(map[string]float64)
	for _, s := range spans {
		self := float64(s.End-s.Start-children[s.ID]) / 1e9
		if s.Layer == "" {
			unattributed += self
		} else {
			layers[s.Layer] += self
		}
	}
	return layers, unattributed
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names whose per-call durations the report gives as percentiles.
const (
	spanCreate = "campaign.NewCheckpoint"
	spanAppend = "Checkpoint.Append"
)

// durations returns the durations of every span named name, in seconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// replayLayers are the layers call spans are attributed to; each is
// reported as "<layer>.share" of the replay's wall time.
var replayLayers = []string{
	"netlist.build", "faultsim.random_patterns", "atpg.generate_tests", "slicing.accelerated_run",
	"aging", "fusa.classify", "fusa.crosscheck", "sca.verify_timing", "checkpoint",
}

// replayRecord is what the replay child reports to the parent.
type replayRecord struct {
	WallS         float64            `json:"wall_s"`
	LayerS        map[string]float64 `json:"layer_s"`
	UnattributedS float64            `json:"unattributed_s"`
	Jobs          int                `json:"jobs"`
	// Slicing work counts, summed over the AcceleratedRun calls.
	Injections      int64 `json:"injections"`
	ActualGateEvals int64 `json:"actual_gate_evals"`
	// Per-call durations of the checkpoint layer (server-churn only).
	CreateS []float64 `json:"create_s,omitempty"`
	AppendS []float64 `json:"append_s,omitempty"`
	// Mismatch describes the first report that differs from the untraced
	// campaign's; empty when every job reproduced.
	Mismatch string `json:"mismatch,omitempty"`
}

// stageKey holds a stage's declared inputs, mirroring the stage cache's
// key: undeclared coordinates stay zero so equal-input stages of
// different jobs collide.
type stageKey struct {
	circuit       string
	stage         core.StageID
	seed          int64
	env, tech     string
	shard, shards int
	patterns      int
	years         float64
}

type artifact struct {
	n      *netlist.Netlist
	faults fault.List
}

type replayer struct {
	tr     *tracer
	arts   map[string]*artifact
	stages map[stageKey]core.StageResult
	rec    *replayRecord
}

func newReplayer() *replayer {
	return &replayer{
		tr:     &tracer{t0: time.Now()},
		arts:   make(map[string]*artifact),
		stages: make(map[stageKey]core.StageResult),
		rec:    &replayRecord{},
	}
}

// replay runs every matrix of spec and returns each run's results in job
// order. Server-churn runs are wrapped in a checkpoint under dir, with
// one Append per job, as the server writes them.
func (r *replayer) replay(spec sampleSpec, dir string) ([][]campaign.Result, error) {
	r.tr.begin("replay", "")
	defer r.tr.end()
	out := make([][]campaign.Result, len(spec.Matrices))
	for i, m := range spec.Matrices {
		res, err := r.run(i, m, spec.Server, dir)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func (r *replayer) run(i int, m campaign.Matrix, checkpointed bool, dir string) ([]campaign.Result, error) {
	r.tr.begin(fmt.Sprintf("run %d", i), "")
	defer r.tr.end()
	var ck *campaign.Checkpoint
	if checkpointed {
		err := r.tr.call(spanCreate, "checkpoint", func() (err error) {
			ck, err = campaign.NewCheckpoint(filepath.Join(dir, fmt.Sprintf("run-%06d", i)), m)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	results := make([]campaign.Result, len(jobs))
	for k, j := range jobs {
		rep, err := r.job(m.Seed, j)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", j.Name(), err)
		}
		results[k] = campaign.Result{Job: j, Report: rep}
		r.rec.Jobs++
		if ck != nil {
			if err := r.tr.call(spanAppend, "checkpoint", func() error { return ck.Append(results[k]) }); err != nil {
				return nil, err
			}
		}
	}
	if ck != nil {
		if err := r.tr.call("Checkpoint.Close", "checkpoint", ck.Close); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// artifact builds a circuit's flow netlist (full-scan view of sequential
// circuits), compiles it and collapses its fault list, once per circuit,
// as the campaign engine's artifact cache does.
func (r *replayer) artifact(name string) (*artifact, error) {
	if a, ok := r.arts[name]; ok {
		return a, nil
	}
	ctor, ok := circuits.Registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", name)
	}
	a := &artifact{}
	err := r.tr.call("circuits.Registry", "netlist.build", func() error {
		a.n = ctor()
		if a.n.IsSequential() {
			sv, err := atpg.ScanView(a.n)
			if err != nil {
				return err
			}
			a.n = sv.Comb
		}
		if _, err := sim.Compile(a.n); err != nil {
			return err
		}
		a.faults = fault.Collapse(a.n, fault.AllStuckAt(a.n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.arts[name] = a
	return a, nil
}

// jobInputs is one job's flow configuration, as the campaign engine
// derives it from the job's coordinates.
type jobInputs struct {
	n          *netlist.Netlist
	faults     fault.List
	faultShare float64
	skipAging  bool
	env        seu.Environment
	tech       seu.Technology
	years      float64
	patterns   int
	// pats memoises pattern sets by pattern seed within the job.
	pats map[int64][]logic.Vector
}

func (r *replayer) job(base int64, j campaign.Job) (*core.Report, error) {
	r.tr.begin(j.Name(), "")
	defer r.tr.end()
	art, err := r.artifact(j.Circuit)
	if err != nil {
		return nil, err
	}
	env, ok := campaign.Environments[j.Environment]
	if !ok {
		return nil, fmt.Errorf("unknown environment %q", j.Environment)
	}
	tech, ok := campaign.Technologies[j.Technology]
	if !ok {
		return nil, fmt.Errorf("unknown technology %q", j.Technology)
	}
	stages, err := j.Scenario.Stages()
	if err != nil {
		return nil, err
	}
	in := &jobInputs{n: art.n, faults: art.faults, env: env, tech: tech, years: j.Years,
		patterns: j.Patterns, pats: make(map[int64][]logic.Vector)}
	if in.patterns <= 0 {
		in.patterns = 200
	}
	if j.Shards > 1 {
		lo, hi := campaign.ShardBounds(len(art.faults), j.Shard, j.Shards)
		in.faults = art.faults[lo:hi]
		in.faultShare = float64(hi-lo) / float64(len(art.faults))
		if j.Shard > 0 {
			// Only shard 0 measures the whole-netlist security and aging
			// analyses.
			in.skipAging = true
			kept := stages[:0]
			for _, s := range stages {
				if s != core.StageSecurity {
					kept = append(kept, s)
				}
			}
			stages = kept
		}
	}
	coords := core.StageCoords{Circuit: j.Circuit, Environment: j.Environment, Technology: j.Technology,
		Shard: j.Shard, Shards: j.Shards}
	rep := &core.Report{Design: art.n.Name, Years: j.Years}
	for _, id := range stages {
		seed := core.DeriveStageSeed(base, id, coords)
		key := stageKeyFor(j, id, seed)
		res, ok := r.stages[key]
		if !ok {
			if res, err = r.stage(in, id, seed); err != nil {
				return nil, err
			}
			r.stages[key] = res
		}
		switch {
		case res.Quality != nil:
			rep.Quality = *res.Quality
		case res.Reliability != nil:
			rep.Reliability = *res.Reliability
		case res.Safety != nil:
			rep.Safety = *res.Safety
		case res.Security != nil:
			rep.Security = *res.Security
		}
		rep.Stages = append(rep.Stages, id.String())
	}
	return rep, nil
}

func stageKeyFor(j campaign.Job, id core.StageID, seed int64) stageKey {
	in, _ := core.EffectiveInputs(id)
	k := stageKey{circuit: j.Circuit, stage: id, seed: seed}
	if in.Environment {
		k.env = j.Environment
	}
	if in.Technology {
		k.tech = j.Technology
	}
	if in.FaultShard {
		k.shard, k.shards = j.Shard, max(j.Shards, 1)
	}
	if in.Patterns {
		k.patterns = j.Patterns
	}
	if in.Years {
		k.years = j.Years
	}
	return k
}

func (r *replayer) patterns(in *jobInputs, seed int64) []logic.Vector {
	if p, ok := in.pats[seed]; ok {
		return p
	}
	var p []logic.Vector
	_ = r.tr.call("faultsim.RandomPatterns", "faultsim.random_patterns", func() error {
		p = faultsim.RandomPatterns(in.n, in.patterns, seed)
		return nil
	})
	in.pats[seed] = p
	return p
}

func (r *replayer) stage(in *jobInputs, id core.StageID, seed int64) (core.StageResult, error) {
	r.tr.begin("stage "+id.String(), "")
	defer r.tr.end()
	switch id {
	case core.StageQuality:
		var res *atpg.Result
		err := r.tr.call("atpg.GenerateTests", "atpg.generate_tests", func() (err error) {
			res, err = atpg.GenerateTests(in.n, in.faults, atpg.FlowOptions{RandomPatterns: 64, Seed: seed, Compact: true})
			return err
		})
		if err != nil {
			return core.StageResult{}, err
		}
		return core.StageResult{Quality: &core.QualityReport{
			Faults: len(in.faults), TestCoverage: res.Coverage.Effective(), Untestable: res.Coverage.Untestable,
			TestCount: len(res.Tests), PODEMCalls: res.PODEMCalls, Backtracks: res.Backtracks,
		}}, nil

	case core.StageReliability:
		pats := r.patterns(in, seed+1)
		var acc *slicing.Result
		err := r.tr.call("slicing.AcceleratedRun", "slicing.accelerated_run", func() (err error) {
			acc, err = slicing.AcceleratedRun(in.n, in.faults, pats)
			return err
		})
		if err != nil {
			return core.StageResult{}, err
		}
		r.rec.Injections += acc.Injections
		r.rec.ActualGateEvals += acc.ActualGateEvals
		detected := 0
		for _, s := range acc.Status {
			if s == fault.Detected {
				detected++
			}
		}
		sdc := float64(detected) / float64(len(in.faults))
		raw := seu.RawFIT(in.env, in.tech.SETCrossSectionCm2, float64(in.n.NumGates()))
		if in.faultShare > 0 && in.faultShare <= 1 {
			raw *= in.faultShare
		}
		slowdown := 0.0
		if !in.skipAging {
			err := r.tr.call("aging.SignalProbabilities+AnalyzePaths", "aging", func() error {
				probs, err := aging.SignalProbabilities(in.n, pats)
				if err != nil {
					return err
				}
				rep, err := aging.AnalyzePaths(in.n, probs, in.years, aging.DefaultBTI())
				slowdown = rep.Slowdown()
				return err
			})
			if err != nil {
				return core.StageResult{}, err
			}
		}
		return core.StageResult{Reliability: &core.ReliabilityReport{
			Faults: len(in.faults), RawFIT: raw, DeratedFIT: raw * sdc, SDCRate: sdc,
			SlicedSpeedup: acc.Speedup(), AgingSlowdown: slowdown,
		}}, nil

	case core.StageSafety:
		pats := r.patterns(in, seed+1)
		sc := &fusa.SafetyCircuit{N: in.n, FunctionalOutputs: in.n.Outputs}
		var classes []fusa.FaultClass
		err := r.tr.call("fusa.Classify", "fusa.classify", func() (err error) {
			classes, err = fusa.Classify(sc, in.faults, pats)
			return err
		})
		if err != nil {
			return core.StageResult{}, err
		}
		metrics := fusa.ComputeMetrics(classes, 0.01)
		var cc *fusa.CrossCheckReport
		err = r.tr.call("fusa.CrossCheck", "fusa.crosscheck", func() (err error) {
			cc, err = fusa.CrossCheck(sc, in.faults, classes, atpg.Options{})
			return err
		})
		if err != nil {
			return core.StageResult{}, err
		}
		return core.StageResult{Safety: &core.SafetyReport{
			SPFM: metrics.SPFM, LFM: metrics.LFM, MeetsASILB: metrics.MeetsASIL(fusa.ASILB),
			Suspicious: len(cc.Suspicions), CrossCheckBacktracks: cc.Backtracks,
		}}, nil

	case core.StageSecurity:
		secret := []byte{0x52, 0x45, 0x53, 0x43} // "RESC", the flow's default secret
		var leaky, fixed sca.VerificationReport
		_ = r.tr.call("sca.VerifyTiming", "sca.verify_timing", func() error {
			leaky = sca.VerifyTiming(in.n.Name+"-leaky", sca.NewLeakyComparer(secret, seed), secret, seed+2)
			fixed = sca.VerifyTiming(in.n.Name+"-ct", sca.NewConstantTimeComparer(secret, seed), secret, seed+2)
			return nil
		})
		return core.StageResult{Security: &core.SecurityReport{
			TimingLeaky: leaky.Leaky, TValue: leaky.TValue,
			SecretRecovered: string(leaky.Recovered) == string(secret), FixedVerified: !fixed.Leaky,
		}}, nil
	}
	return core.StageResult{}, fmt.Errorf("unknown stage %v", id)
}

// firstMismatch compares the replay's results with the untraced
// campaign's, job by job, and describes the first difference.
func firstMismatch(want, got [][]campaign.Result) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d runs replayed, campaign has %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Sprintf("run %d: %d jobs replayed, campaign has %d", i, len(got[i]), len(want[i]))
		}
		for k, w := range want[i] {
			g := got[i][k]
			if w.Job != g.Job {
				return fmt.Sprintf("run %d job %d: replayed %s, campaign has %s", i, k, g.Job.Name(), w.Job.Name())
			}
			wj, _ := json.Marshal(w.Report)
			gj, _ := json.Marshal(g.Report)
			if string(wj) != string(gj) {
				return fmt.Sprintf("run %d job %s: replay report %s differs from campaign report %s", i, w.Job.Name(), gj, wj)
			}
		}
	}
	return ""
}
