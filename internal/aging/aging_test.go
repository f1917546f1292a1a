package aging

import (
	"math"
	"reflect"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
)

func TestDeltaVthShape(t *testing.T) {
	p := DefaultBTI()
	// Calibration point: ≈45mV after 10 years at 50% duty.
	d := p.DeltaVth(0.5, 10)
	if d < 0.025 || d > 0.075 {
		t.Errorf("10-year ΔVth = %.4f V, want ≈0.045", d)
	}
	// Monotone in duty and time.
	if p.DeltaVth(0.9, 10) <= p.DeltaVth(0.1, 10) {
		t.Error("ΔVth must grow with duty")
	}
	if p.DeltaVth(0.5, 10) <= p.DeltaVth(0.5, 1) {
		t.Error("ΔVth must grow with time")
	}
	// Sub-linear time dependence: doubling time far less than doubles drift.
	if p.DeltaVth(0.5, 20) > 1.5*p.DeltaVth(0.5, 10) {
		t.Error("BTI time exponent must be sub-linear")
	}
	if p.DeltaVth(0, 10) != 0 || p.DeltaVth(0.5, 0) != 0 {
		t.Error("zero stress or time must give zero drift")
	}
}

func TestTemperatureAcceleration(t *testing.T) {
	hot := DefaultBTI()
	hot.TempC = 150
	cold := DefaultBTI()
	cold.TempC = 25
	if hot.DeltaVth(0.5, 5) <= cold.DeltaVth(0.5, 5) {
		t.Error("higher temperature must accelerate BTI")
	}
}

func TestDelayFactor(t *testing.T) {
	p := DefaultBTI()
	if f := p.DelayFactor(0); math.Abs(f-1) > 1e-12 {
		t.Errorf("zero drift factor = %v", f)
	}
	if p.DelayFactor(0.05) <= 1 {
		t.Error("drift must slow gates down")
	}
	if !math.IsInf(p.DelayFactor(p.Vdd-p.VthNom), 1) {
		t.Error("drift eating the full overdrive must diverge")
	}
}

func TestRecovery(t *testing.T) {
	if Recovery(0.04, 0.25) != 0.03 {
		t.Error("recovery arithmetic wrong")
	}
	if Recovery(0.04, 2) != 0 || Recovery(0.04, -1) != 0.04 {
		t.Error("recovery clamping wrong")
	}
}

func TestSignalProbabilities(t *testing.T) {
	n := circuits.C17()
	pats := faultsim.RandomPatterns(n, 500, 3)
	probs, err := SignalProbabilities(n, pats)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("gate %d probability %v", id, p)
		}
	}
	// NAND outputs are biased high under uniform inputs (P=0.75 for 2-in).
	g, _ := n.Lookup("G10")
	if probs[g.ID] < 0.6 {
		t.Errorf("NAND output probability = %.2f, want ≈0.75", probs[g.ID])
	}
	empty, err := SignalProbabilities(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty[0] != 0 {
		t.Error("no patterns must give zero probabilities")
	}
}

// TestSignalProbabilitiesShortVectorsReadX is the regression test for
// short vectors reading the previous pattern's inputs: an input past a
// vector's end reads X in that pattern, so the probabilities do not
// depend on the pattern order.
func TestSignalProbabilitiesShortVectorsReadX(t *testing.T) {
	n := circuits.C17()
	ones := logic.Vector{logic.One, logic.One, logic.One, logic.One, logic.One}
	short := logic.Vector{logic.Zero, logic.Zero}
	fwd, err := SignalProbabilities(n, []logic.Vector{ones, short})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := SignalProbabilities(n, []logic.Vector{short, ones})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("reversed patterns changed the probabilities:\n%v\n%v", fwd, rev)
	}
	for _, id := range n.Inputs[2:] {
		if fwd[id] != 0.5 {
			t.Errorf("input %s: P(1) = %v, want 0.5 (1, then X)", n.Gate(id).Name, fwd[id])
		}
	}
}

// TestSignalProbabilitiesAllocsFlatInPatterns pins the packed passes'
// allocation profile: a call allocates the same at 64 and at 4096
// patterns, from vectors (packed once per call) or from a generated
// packed set.
func TestSignalProbabilitiesAllocsFlatInPatterns(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	allocs := func(count int) (vectors, packed float64) {
		pats := faultsim.RandomPatterns(n, count, 1)
		set := faultsim.RandomPackedPatterns(n, count, 1)
		vectors = testing.AllocsPerRun(3, func() {
			if _, err := SignalProbabilities(n, pats); err != nil {
				t.Fatal(err)
			}
		})
		packed = testing.AllocsPerRun(3, func() {
			if _, err := SignalProbabilitiesPacked(n, set); err != nil {
				t.Fatal(err)
			}
		})
		return vectors, packed
	}
	smallV, smallP := allocs(64)
	largeV, largeP := allocs(4096)
	if smallV != largeV {
		t.Errorf("SignalProbabilities allocates %.0f objects at 64 patterns but %.0f at 4096", smallV, largeV)
	}
	if smallP != largeP {
		t.Errorf("SignalProbabilitiesPacked allocates %.0f objects at 64 patterns but %.0f at 4096", smallP, largeP)
	}
}

func TestAnalyzePathsAgesCircuit(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	pats := faultsim.RandomPatterns(n, 200, 9)
	probs, err := SignalProbabilities(n, pats)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzePaths(n, probs, 10, DefaultBTI())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slowdown() <= 1.0 {
		t.Errorf("10-year slowdown = %v, want > 1", rep.Slowdown())
	}
	if rep.Slowdown() > 1.5 {
		t.Errorf("slowdown %v unrealistically large", rep.Slowdown())
	}
	// More years, more slowdown.
	rep20, _ := AnalyzePaths(n, probs, 20, DefaultBTI())
	if rep20.Slowdown() <= rep.Slowdown() {
		t.Error("aging must be monotone in time")
	}
}

func TestRejuvenationReducesWorstCaseDrift(t *testing.T) {
	// Unbalanced application profile: some node stuck at 5% duty.
	app := []float64{0.05, 0.5, 0.95}
	p := DefaultBTI()
	worst := func(duty []float64) float64 {
		w := 0.0
		for _, d := range duty {
			// Worst of both polarities, as in the decoder analysis.
			v := math.Max(p.DeltaVth(d, 10), p.DeltaVth(1-d, 10))
			if v > w {
				w = v
			}
		}
		return w
	}
	baseline := worst(app)
	rejuvenated := worst(CombineDuty(app, ComplementProfile(app), 0.3))
	if rejuvenated >= baseline {
		t.Errorf("rejuvenation must reduce worst drift: %.4f -> %.4f", baseline, rejuvenated)
	}
}

func TestDecoderAgingAndMitigation(t *testing.T) {
	// E14: a looping workload touches only low addresses — address bits
	// nearly always 0 — so the decoder's complement lines age hard.
	unbalanced := []float64{0.02, 0.03, 0.05, 0.5, 0.01, 0.02}
	p := DefaultBTI()
	before := AnalyzeDecoder(unbalanced, 10, p)
	mitigated := AnalyzeDecoder(BalancedAccessDuty(unbalanced, 0.2), 10, p)
	if mitigated.WorstDVth >= before.WorstDVth {
		t.Errorf("mitigation must reduce worst ΔVth: %.4f -> %.4f",
			before.WorstDVth, mitigated.WorstDVth)
	}
	if mitigated.WorstSkew >= before.WorstSkew {
		t.Errorf("mitigation must reduce skew: %.4f -> %.4f",
			before.WorstSkew, mitigated.WorstSkew)
	}
	if mitigated.DelayFactorMax >= before.DelayFactorMax {
		t.Error("mitigation must reduce the decoder delay factor")
	}
	// Perfectly balanced profile has zero skew.
	balanced := AnalyzeDecoder([]float64{0.5, 0.5}, 10, p)
	if balanced.WorstSkew > 1e-12 {
		t.Error("balanced decoder must have no skew")
	}
}

func TestCombineDutyClamps(t *testing.T) {
	out := CombineDuty([]float64{0.2}, nil, 2)
	if out[0] != 0.5 {
		t.Errorf("full overhead must pin duty at 0.5, got %v", out[0])
	}
	out = CombineDuty([]float64{0.2}, nil, -1)
	if out[0] != 0.2 {
		t.Error("negative overhead must be ignored")
	}
	bal := BalancedAccessDuty([]float64{0.0, 1.0}, 0.5)
	if bal[0] != 0.25 || bal[1] != 0.75 {
		t.Errorf("balanced duty = %v", bal)
	}
}
