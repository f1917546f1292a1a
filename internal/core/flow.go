package core

import (
	"context"
	"fmt"
	"strings"

	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/seu"
)

// FlowConfig parameterises the holistic Fig. 2 flow.
type FlowConfig struct {
	Netlist *netlist.Netlist
	// Faults restricts the run to a subset of the collapsed stuck-at list
	// (e.g. one shard of a campaign). Nil enumerates the full list.
	Faults fault.List
	// FaultShare is the fraction of the design's fault population this
	// run covers; it scales the reliability stage's raw FIT so that the
	// raw FITs of a circuit's shards sum exactly to the whole-circuit
	// value. (Derated FITs sum only approximately: each shard measures
	// its SDC rate on its own derived pattern set.) 0 (and anything
	// outside (0,1]) means the full circuit.
	FaultShare float64
	// SkipAging omits the BTI path analysis from the reliability stage
	// (AgingSlowdown reports 0). The analysis covers the whole netlist
	// regardless of the fault subset, so campaign shards beyond the
	// first would only recompute the same number.
	SkipAging bool
	// Functional/Alarm output split for the FuSa stage; when empty, all
	// outputs are functional and no safety mechanism is assumed.
	AlarmOutputs []int
	Environment  seu.Environment
	Technology   seu.Technology
	Years        float64 // aging horizon
	Patterns     int
	Seed         int64
	// StageSeeds, when non-nil, overrides Seed per stage: stage id draws
	// all of its randomness from StageSeeds[id], falling back to Seed
	// for stages without an entry. The campaign engine fills it through
	// DeriveStageSeed so equal-input stages of different matrix cells
	// get equal seeds — the property its cross-job stage cache keys rely
	// on. Direct RunFlow users leave it nil: every stage then shares
	// Seed, exactly as before.
	StageSeeds map[StageID]int64
	// Memo, when non-nil, intercepts each stage execution for cross-job
	// result reuse (see StageMemo). Correctness never depends on it: a
	// nil Memo recomputes every stage.
	Memo StageMemo
	// Spare, when non-nil, is the campaign's budget of idle workers: the
	// quality and safety stages' PODEM loops borrow helpers from it (see
	// atpg.Slots). Results are identical with or without it; it trades
	// idle cores for wall-clock inside one flow run.
	Spare *atpg.Slots
	// Secret drives the security stage's timing-leak check.
	Secret []byte
}

// QualityReport is the ATPG/test stage outcome.
type QualityReport struct {
	Faults       int
	TestCoverage float64 // effective (untestable-corrected)
	Untestable   int
	TestCount    int
	// PODEMCalls and Backtracks expose the deterministic-phase search
	// cost (test-and-drop keeps PODEMCalls far below the fault count).
	PODEMCalls int
	Backtracks int
}

// ReliabilityReport is the soft-error/aging stage outcome.
type ReliabilityReport struct {
	// Faults is the size of the injected fault list (the SDC denominator).
	Faults        int
	RawFIT        float64
	DeratedFIT    float64
	SDCRate       float64
	SlicedSpeedup float64
	AgingSlowdown float64
}

// SafetyReport is the ISO 26262 stage outcome.
type SafetyReport struct {
	SPFM       float64
	LFM        float64
	MeetsASILB bool
	Suspicious int // tool-confidence cross-check findings
	// CrossCheckBacktracks is the PODEM search cost of the
	// tool-confidence classification pass.
	CrossCheckBacktracks int
}

// SecurityReport is the side-channel stage outcome.
type SecurityReport struct {
	TimingLeaky     bool
	TValue          float64
	SecretRecovered bool
	FixedVerified   bool
}

// Report is the merged multi-aspect result of one flow run.
type Report struct {
	Design string
	Years  float64
	// Stages lists, in the requested order, which stages populated this
	// report; a full RunFlow records all four. The execution order can
	// differ (see RunStages).
	Stages      []string `json:",omitempty"`
	Quality     QualityReport
	Reliability ReliabilityReport
	Safety      SafetyReport
	Security    SecurityReport
}

// RunFlow drives the Fig. 2 holistic flow: quality (ATPG + untestable
// identification), reliability (fault-injection SDC rate, FIT budget,
// sliced campaign, aging), functional safety (classification + metrics +
// tool cross-check) and security (timing-leak verification), all over
// one design. It is equivalent to RunStages with every stage selected.
func RunFlow(cfg FlowConfig) (*Report, error) {
	return RunStages(context.Background(), cfg, AllStages()...)
}

// Render prints the report as the flow's summary table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RESCUE holistic flow report — design %q\n", r.Design)
	fmt.Fprintf(&b, "  quality:     %d faults, coverage %.2f%%, %d untestable, %d tests\n",
		r.Quality.Faults, 100*r.Quality.TestCoverage, r.Quality.Untestable, r.Quality.TestCount)
	fmt.Fprintf(&b, "  reliability: raw %.3g FIT -> derated %.3g FIT (SDC %.2f), slicing speedup %.1fx, %.0f-year slowdown %.3fx\n",
		r.Reliability.RawFIT, r.Reliability.DeratedFIT, r.Reliability.SDCRate,
		r.Reliability.SlicedSpeedup, r.Years, r.Reliability.AgingSlowdown)
	fmt.Fprintf(&b, "  safety:      SPFM %.3f, LFM %.3f, ASIL-B=%v, %d suspicious classifications\n",
		r.Safety.SPFM, r.Safety.LFM, r.Safety.MeetsASILB, r.Safety.Suspicious)
	fmt.Fprintf(&b, "  security:    timing leak=%v (t=%.1f), secret recovered=%v, fix verified=%v\n",
		r.Security.TimingLeaky, r.Security.TValue, r.Security.SecretRecovered, r.Security.FixedVerified)
	return b.String()
}
