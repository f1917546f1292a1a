// Package aging models transistor wear-out (Section III.E): the BTI
// (bias temperature instability) threshold-voltage drift that dominates
// current technologies, its effect on gate and path delays, the
// software-based rejuvenation of refs [7] and [24] — balancing signal
// duty cycles so that unbalanced logic (ALUs, memory address decoders)
// stops aging asymmetrically — and HCI as a switching-activity-driven
// secondary term.
package aging

import (
	"math"
	"math/bits"

	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/sim"
)

// BTIParams parameterises the long-term BTI drift model
//
//	ΔVth = A · S^n · t^k · exp(-Ea/kT)/exp(-Ea/kT0)
//
// where S is the stress duty cycle (fraction of time the device is under
// bias) and t the operating time in years.
type BTIParams struct {
	A        float64 // prefactor, volts at 1 year full stress and T0
	DutyExp  float64 // n, duty-cycle exponent
	TimeExp  float64 // k, time exponent (≈ 1/6 for diffusion-limited BTI)
	TempC    float64 // operating temperature
	RefTempC float64 // characterisation temperature T0
	ActEnerg float64 // activation energy in eV
	Vdd      float64 // supply voltage
	VthNom   float64 // nominal threshold voltage
}

// DefaultBTI returns parameters calibrated to yield ≈45 mV drift after
// 10 years at 50% duty and 125°C — the order of magnitude reported for
// 28-65 nm nodes.
func DefaultBTI() BTIParams {
	return BTIParams{
		A:        0.032,
		DutyExp:  0.5,
		TimeExp:  1.0 / 6.0,
		TempC:    125,
		RefTempC: 125,
		ActEnerg: 0.1,
		Vdd:      1.0,
		VthNom:   0.35,
	}
}

const boltzmannEV = 8.617e-5

// DeltaVth returns the threshold-voltage drift in volts after the given
// stress duty (0..1) and time in years.
func (p BTIParams) DeltaVth(stressDuty, years float64) float64 {
	if stressDuty <= 0 || years <= 0 {
		return 0
	}
	tK := p.TempC + 273.15
	t0K := p.RefTempC + 273.15
	temp := math.Exp(-p.ActEnerg/(boltzmannEV*tK)) / math.Exp(-p.ActEnerg/(boltzmannEV*t0K))
	return p.A * math.Pow(stressDuty, p.DutyExp) * math.Pow(years, p.TimeExp) * temp
}

// DelayFactor converts a ΔVth into a relative gate-delay multiplier
// using the alpha-power law approximation delay ∝ Vdd/(Vdd-Vth)^1.3.
func (p BTIParams) DelayFactor(dVth float64) float64 {
	fresh := math.Pow(p.Vdd-p.VthNom, 1.3)
	aged := math.Pow(p.Vdd-p.VthNom-dVth, 1.3)
	if aged <= 0 {
		return math.Inf(1)
	}
	return fresh / aged
}

// Recovery models partial BTI relaxation when stress is removed: a
// fraction r of the drift anneals out per recovery interval. The RESCUE
// rejuvenation flow exploits exactly this effect.
func Recovery(dVth, recoveryFraction float64) float64 {
	if recoveryFraction < 0 {
		recoveryFraction = 0
	}
	if recoveryFraction > 1 {
		recoveryFraction = 1
	}
	return dVth * (1 - recoveryFraction)
}

// SignalProbabilities estimates, per gate, the probability of the output
// being logic 1 over the given stimulus set (combinational circuits).
// For NBTI the PMOS stress duty of a gate is 1 - P(out=1) for inverting
// stages; callers choose the mapping.
//
// The patterns run 64 at a time on packed passes, and each gate's ones
// are counted from its word's V1 plane. Inputs past the end of a short
// vector read X in that pattern, whatever the patterns before it held.
func SignalProbabilities(n *netlist.Netlist, patterns []logic.Vector) ([]float64, error) {
	p, err := sim.NewPacked(n)
	if err != nil {
		return nil, err
	}
	ones := make([]int, n.NumGates())
	for base := 0; base < len(patterns); base += 64 {
		block := patterns[base:min(base+64, len(patterns))]
		if err := p.LoadPatterns(block); err != nil {
			return nil, err
		}
		p.Run()
		mask := ^uint64(0) >> (64 - len(block))
		for id := range ones {
			ones[id] += bits.OnesCount64(p.Word(id).V1 & mask)
		}
	}
	probs := make([]float64, n.NumGates())
	if len(patterns) == 0 {
		return probs, nil
	}
	for id := range probs {
		probs[id] = float64(ones[id]) / float64(len(patterns))
	}
	return probs, nil
}

// PathReport summarises aging-induced slowdown of a levelized circuit.
type PathReport struct {
	// PerGateFactor is the delay multiplier of each gate.
	PerGateFactor []float64
	// CriticalFresh and CriticalAged are unit-delay critical path lengths
	// weighted by the per-gate factors.
	CriticalFresh float64
	CriticalAged  float64
}

// Slowdown returns aged/fresh critical path growth.
func (r PathReport) Slowdown() float64 {
	if r.CriticalFresh == 0 {
		return 1
	}
	return r.CriticalAged / r.CriticalFresh
}

// AnalyzePaths ages every gate according to its stress duty (1-P(one)
// for the pull-up network of inverting gates; P(one) otherwise is a
// second-order effect we fold into the same duty) and recomputes the
// critical path with aged unit delays.
func AnalyzePaths(n *netlist.Netlist, probs []float64, years float64, p BTIParams) (PathReport, error) {
	if err := n.Levelize(); err != nil {
		return PathReport{}, err
	}
	rep := PathReport{PerGateFactor: make([]float64, n.NumGates())}
	order, err := n.TopoOrder()
	if err != nil {
		return PathReport{}, err
	}
	fresh := make([]float64, n.NumGates())
	aged := make([]float64, n.NumGates())
	for _, id := range order {
		g := n.Gate(id)
		duty := 1 - probs[id] // pull-up stressed while output low
		factor := p.DelayFactor(p.DeltaVth(duty, years))
		rep.PerGateFactor[id] = factor
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			continue
		}
		var maxF, maxA float64
		for _, fi := range g.Fanin {
			if fresh[fi] > maxF {
				maxF = fresh[fi]
			}
			if aged[fi] > maxA {
				maxA = aged[fi]
			}
		}
		fresh[id] = maxF + 1
		aged[id] = maxA + factor
		if fresh[id] > rep.CriticalFresh {
			rep.CriticalFresh = fresh[id]
		}
		if aged[id] > rep.CriticalAged {
			rep.CriticalAged = aged[id]
		}
	}
	return rep, nil
}

// ---------- Software rejuvenation ([7], [24]) ----------

// CombineDuty mixes an application stress profile with a rejuvenation
// profile executed for fraction overhead of the time.
func CombineDuty(app, rejuv []float64, overhead float64) []float64 {
	if overhead < 0 {
		overhead = 0
	}
	if overhead > 1 {
		overhead = 1
	}
	out := make([]float64, len(app))
	for i := range app {
		r := 0.5
		if i < len(rejuv) {
			r = rejuv[i]
		}
		out[i] = (1-overhead)*app[i] + overhead*r
	}
	return out
}

// ComplementProfile returns the rejuvenation profile that exactly
// counteracts the application profile (stress inverted): the balanced
// stress programs of ref [7] generated by evolutionary search reduce, in
// effect, to driving each node towards 50% duty.
func ComplementProfile(app []float64) []float64 {
	out := make([]float64, len(app))
	for i, d := range app {
		out[i] = 1 - d
	}
	return out
}

// DecoderReport quantifies address-decoder aging ([24]): each address
// bit line (true and complement) ages with its duty cycle; the decoder's
// access time follows the slowest line, and skew between the two
// polarities is what ultimately breaks decoding margins.
type DecoderReport struct {
	PerBitDVth     []float64 // worst polarity ΔVth per address bit
	WorstDVth      float64
	WorstSkew      float64 // |ΔVth(true) - ΔVth(complement)| max
	DelayFactorMax float64
}

// AnalyzeDecoder ages the address decoder given per-bit high duty cycles.
func AnalyzeDecoder(duty []float64, years float64, p BTIParams) DecoderReport {
	rep := DecoderReport{PerBitDVth: make([]float64, len(duty))}
	for i, d := range duty {
		// The true line is stressed while the bit is low and vice versa;
		// both polarities exist in the decoder.
		vTrue := p.DeltaVth(1-d, years)
		vComp := p.DeltaVth(d, years)
		worst := math.Max(vTrue, vComp)
		skew := math.Abs(vTrue - vComp)
		rep.PerBitDVth[i] = worst
		if worst > rep.WorstDVth {
			rep.WorstDVth = worst
		}
		if skew > rep.WorstSkew {
			rep.WorstSkew = skew
		}
	}
	rep.DelayFactorMax = p.DelayFactor(rep.WorstDVth)
	return rep
}

// BalancedAccessDuty implements the software mitigation of [24]: the
// program embeds extra memory accesses spread uniformly over the address
// space for fraction overhead of all accesses, pulling every address-bit
// duty towards 0.5.
func BalancedAccessDuty(duty []float64, overhead float64) []float64 {
	if overhead < 0 {
		overhead = 0
	}
	if overhead > 1 {
		overhead = 1
	}
	out := make([]float64, len(duty))
	for i, d := range duty {
		out[i] = (1-overhead)*d + overhead*0.5
	}
	return out
}
