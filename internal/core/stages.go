package core

import (
	"context"
	"fmt"

	"rescue/internal/aging"
	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/fusa"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/obs"
	"rescue/internal/sca"
	"rescue/internal/seu"
	"rescue/internal/slicing"
)

// stageSeconds holds one wall-clock histogram per Fig. 2 stage, as
// flow_stage_seconds{stage="..."} series: the per-stage latency
// trajectory every campaign job reports into.
var stageSeconds = func() map[StageID]*obs.Histogram {
	m := make(map[StageID]*obs.Histogram, int(numStages))
	for s := StageQuality; s < numStages; s++ {
		m[s] = obs.NewLabeledHistogram("flow_stage_seconds",
			"Wall-clock of one flow stage execution.",
			obs.DurationBuckets, `stage="`+s.String()+`"`)
	}
	return m
}()

// StageID identifies one independently-runnable stage of the Fig. 2 flow.
// Stages share the same deterministic inputs (collapsed fault list,
// pattern set, seeds), so running a subset produces exactly the fields a
// full RunFlow would have produced for those aspects.
type StageID uint8

const (
	// StageQuality is ATPG + untestable-fault identification.
	StageQuality StageID = iota
	// StageReliability is FI-based SDC rate, FIT derating and BTI aging.
	StageReliability
	// StageSafety is ISO 26262 classification, metrics and cross-check.
	StageSafety
	// StageSecurity is the timing side-channel verification pass.
	StageSecurity
	numStages
)

// String names the stage.
func (s StageID) String() string {
	if s >= numStages {
		return fmt.Sprintf("StageID(%d)", uint8(s))
	}
	return [...]string{"quality", "reliability", "safety", "security"}[s]
}

// ParseStage resolves a stage name.
func ParseStage(name string) (StageID, error) {
	for s := StageQuality; s < numStages; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown stage %q (have quality, reliability, safety, security)", name)
}

// AllStages returns every stage in the canonical Fig. 2 order.
func AllStages() []StageID {
	return []StageID{StageQuality, StageReliability, StageSafety, StageSecurity}
}

// flowState carries the inputs shared by all stages of one flow run.
// Fault list and pattern sets are derived lazily but from the per-stage
// seeds only, so any stage subset sees the same values a full run would
// — and a stage subset that needs neither (security) pays for neither.
type flowState struct {
	cfg    FlowConfig
	n      *netlist.Netlist
	faults fault.List
	// pats memoises derived pattern sets by pattern seed: stages whose
	// declared-input seeds coincide (always, when StageSeeds is nil)
	// share one generation.
	pats map[int64][]logic.Vector
}

func newFlowState(cfg FlowConfig) (*flowState, error) {
	if cfg.Netlist == nil {
		return nil, fmt.Errorf("core: flow needs a netlist")
	}
	if cfg.Faults != nil && len(cfg.Faults) == 0 {
		// An empty list would make the SDC rate 0/0 = NaN downstream.
		return nil, fmt.Errorf("core: flow needs a non-empty fault subset (nil means the full list)")
	}
	if cfg.Patterns <= 0 {
		cfg.Patterns = 200
	}
	return &flowState{cfg: cfg, n: cfg.Netlist}, nil
}

func (st *flowState) faultList() fault.List {
	if st.faults == nil {
		st.faults = st.cfg.Faults
		if st.faults == nil {
			st.faults = fault.Collapse(st.n, fault.AllStuckAt(st.n))
		}
	}
	return st.faults
}

// stageSeed is the only path from stage code to randomness: it returns
// the stage's declared-input seed (StageSeeds) or the shared flow seed
// when none was derived. rescue-lint's memo check keeps run* methods
// from bypassing it straight to the raw FlowConfig seed.
func (st *flowState) stageSeed(id StageID) int64 {
	if s, ok := st.cfg.StageSeeds[id]; ok {
		return s
	}
	return st.cfg.Seed
}

func (st *flowState) patternsFor(id StageID) []logic.Vector {
	seed := st.stageSeed(id) + 1
	if p, ok := st.pats[seed]; ok {
		return p
	}
	p := faultsim.RandomPatterns(st.n, st.cfg.Patterns, seed)
	if st.pats == nil {
		st.pats = make(map[int64][]logic.Vector, 2)
	}
	st.pats[seed] = p
	return p
}

func (st *flowState) runQuality() (*QualityReport, error) {
	faults := st.faultList()
	// The deterministic rounds widen over whatever idle workers the
	// campaign lends; the flow's results are identical at any budget.
	res, err := atpg.GenerateTests(st.n, faults, atpg.FlowOptions{
		RandomPatterns: 64, Seed: st.stageSeed(StageQuality), Compact: true,
		PODEM: atpg.Options{Spare: st.cfg.Spare},
	})
	if err != nil {
		return nil, fmt.Errorf("core: quality stage: %v", err)
	}
	return &QualityReport{
		Faults:       len(faults),
		TestCoverage: res.Coverage.Effective(),
		Untestable:   res.Coverage.Untestable,
		TestCount:    len(res.Tests),
		PODEMCalls:   res.PODEMCalls,
		Backtracks:   res.Backtracks,
	}, nil
}

func (st *flowState) runReliability() (*ReliabilityReport, error) {
	faults := st.faultList()
	pats := st.patternsFor(StageReliability)
	acc, err := slicing.AcceleratedRun(st.n, faults, pats)
	if err != nil {
		return nil, fmt.Errorf("core: reliability stage: %v", err)
	}
	detected := 0
	for _, s := range acc.Status {
		if s == fault.Detected {
			detected++
		}
	}
	sdc := float64(detected) / float64(len(faults))
	raw := seu.RawFIT(st.cfg.Environment, st.cfg.Technology.SETCrossSectionCm2, float64(st.n.NumGates()))
	if share := st.cfg.FaultShare; share > 0 && share <= 1 {
		raw *= share
	}
	slowdown := 0.0
	if !st.cfg.SkipAging {
		probs, err := aging.SignalProbabilities(st.n, pats)
		if err != nil {
			return nil, err
		}
		pathRep, err := aging.AnalyzePaths(st.n, probs, st.cfg.Years, aging.DefaultBTI())
		if err != nil {
			return nil, err
		}
		slowdown = pathRep.Slowdown()
	}
	return &ReliabilityReport{
		Faults:        len(faults),
		RawFIT:        raw,
		DeratedFIT:    raw * sdc,
		SDCRate:       sdc,
		SlicedSpeedup: acc.Speedup(),
		AgingSlowdown: slowdown,
	}, nil
}

func (st *flowState) runSafety() (*SafetyReport, error) {
	functional := st.n.Outputs
	if len(st.cfg.AlarmOutputs) > 0 {
		alarmSet := make(map[int]bool)
		for _, a := range st.cfg.AlarmOutputs {
			alarmSet[a] = true
		}
		functional = nil
		for _, o := range st.n.Outputs {
			if !alarmSet[o] {
				functional = append(functional, o)
			}
		}
	}
	sc := &fusa.SafetyCircuit{N: st.n, FunctionalOutputs: functional, AlarmOutputs: st.cfg.AlarmOutputs}
	classes, err := fusa.Classify(sc, st.faultList(), st.patternsFor(StageSafety))
	if err != nil {
		return nil, fmt.Errorf("core: safety stage: %v", err)
	}
	metrics := fusa.ComputeMetrics(classes, 0.01)
	cc, err := fusa.CrossCheck(sc, st.faultList(), classes, atpg.Options{Spare: st.cfg.Spare})
	if err != nil {
		return nil, err
	}
	return &SafetyReport{
		SPFM: metrics.SPFM, LFM: metrics.LFM,
		MeetsASILB:           metrics.MeetsASIL(fusa.ASILB),
		Suspicious:           len(cc.Suspicions),
		CrossCheckBacktracks: cc.Backtracks,
	}, nil
}

func (st *flowState) runSecurity() (*SecurityReport, error) {
	secret := st.cfg.Secret
	if len(secret) == 0 {
		secret = []byte{0x52, 0x45, 0x53, 0x43} // "RESC"
	}
	seed := st.stageSeed(StageSecurity)
	leaky := sca.VerifyTiming(st.n.Name+"-leaky", sca.NewLeakyComparer(secret, seed), secret, seed+2)
	fixed := sca.VerifyTiming(st.n.Name+"-ct", sca.NewConstantTimeComparer(secret, seed), secret, seed+2)
	return &SecurityReport{
		TimingLeaky:     leaky.Leaky,
		TValue:          leaky.TValue,
		SecretRecovered: string(leaky.Recovered) == string(secret),
		FixedVerified:   !fixed.Leaky,
	}, nil
}

// runStage executes one stage and returns its aspect as a StageResult
// value — the unit the campaign layer caches and shares across jobs.
// The stage's wall-clock span wraps the actual computation only, so a
// memoised stage never re-records latency it did not spend.
func (st *flowState) runStage(id StageID) (StageResult, error) {
	span := obs.StartSpan(stageSeconds[id])
	defer span.End()
	switch id {
	case StageQuality:
		q, err := st.runQuality()
		return StageResult{Quality: q}, err
	case StageReliability:
		r, err := st.runReliability()
		return StageResult{Reliability: r}, err
	case StageSafety:
		s, err := st.runSafety()
		return StageResult{Safety: s}, err
	case StageSecurity:
		s, err := st.runSecurity()
		return StageResult{Security: s}, err
	}
	return StageResult{}, fmt.Errorf("core: unknown stage %d", id)
}

// RunStages runs the selected Fig. 2 stages over one design and returns
// the report with exactly those aspects populated (the rest stay zero).
// The context is checked between stages, so a cancelled campaign stops at
// the next stage boundary. Duplicate stage IDs run once.
func RunStages(ctx context.Context, cfg FlowConfig, stages ...StageID) (*Report, error) {
	st, err := newFlowState(cfg)
	if err != nil {
		return nil, err
	}
	// Validate up front: a bad trailing ID must not discard the work of
	// expensive stages that already ran.
	for _, id := range stages {
		if id >= numStages {
			return nil, fmt.Errorf("core: unknown stage %d", id)
		}
	}
	rep := &Report{Design: st.n.Name, Years: cfg.Years}
	done := make(map[StageID]bool)
	for _, id := range stages {
		if done[id] {
			continue
		}
		done[id] = true
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		compute := func() (StageResult, error) { return st.runStage(id) }
		var out StageResult
		if cfg.Memo != nil {
			out, err = cfg.Memo.Stage(id, compute)
		} else {
			out, err = compute()
		}
		if err != nil {
			return nil, err
		}
		out.apply(rep)
		rep.Stages = append(rep.Stages, id.String())
	}
	return rep, nil
}
