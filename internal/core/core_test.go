package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/seu"
)

func TestRegistryIntegrity(t *testing.T) {
	seen := make(map[int]bool)
	for _, p := range Publications {
		if seen[p.Ref] {
			t.Errorf("duplicate reference [%d]", p.Ref)
		}
		seen[p.Ref] = true
		if p.Cluster == "" || p.Title == "" || len(p.Aspects) == 0 {
			t.Errorf("[%d] incomplete entry", p.Ref)
		}
		if p.Ref < 10 || p.Ref > 58 {
			t.Errorf("[%d] outside the results range [10,58]", p.Ref)
		}
	}
	if len(Publications) < 40 {
		t.Errorf("registry has %d entries, want the full results list", len(Publications))
	}
}

func TestDistributionMatchesFig1Shape(t *testing.T) {
	dist := Distribution()
	byName := make(map[string]Bubble)
	for _, b := range dist {
		byName[b.Cluster] = b
		total := 0.0
		for _, w := range b.AspectWeight {
			total += w
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s: aspect weights sum to %v", b.Cluster, total)
		}
		if b.AcademiaLed+b.IndustryLed != b.Publications {
			t.Errorf("%s: sector counts inconsistent", b.Cluster)
		}
	}
	// Fig. 1's biggest bubbles: RSN work and test generation are the
	// largest academic clusters; the FuSa cluster is industry-led.
	rsn := byName["RSN test/validation"]
	if rsn.Publications < 7 {
		t.Errorf("RSN cluster size = %d, want >= 7", rsn.Publications)
	}
	fusa := byName["Functional safety (ISO 26262)"]
	if fusa.IndustryLed <= fusa.AcademiaLed {
		t.Error("FuSa cluster must be industry-led (Cadence collaboration)")
	}
	ml := byName["ML for failure-rate analysis"]
	if ml.IndustryLed <= ml.AcademiaLed {
		t.Error("ML cluster must be industry-led (IROC collaboration)")
	}
	// Reliability-dominated cluster vs quality-dominated cluster.
	se := byName["Soft-error vulnerability"]
	if se.AspectWeight[Reliability] < 0.9 {
		t.Error("soft-error cluster must sit at the reliability corner")
	}
	tg := byName["Test generation GPUs/CPUs"]
	if tg.AspectWeight[Quality] < 0.7 {
		t.Error("test-generation cluster must sit at the quality corner")
	}
	// Ordering: descending bubble size.
	for i := 1; i < len(dist); i++ {
		if dist[i].Publications > dist[i-1].Publications {
			t.Error("distribution must be sorted by size")
		}
	}
}

func TestRenderFig1(t *testing.T) {
	out := RenderFig1()
	for _, want := range []string{"RSN test/validation", "Timing side channels", "●"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig.1 rendering missing %q", want)
		}
	}
}

func TestRunFlowEndToEnd(t *testing.T) {
	rep, err := RunFlow(FlowConfig{
		Netlist:     circuits.RippleCarryAdder(8),
		Environment: seu.SeaLevel,
		Technology:  seu.Node28,
		Years:       10,
		Patterns:    100,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quality.TestCoverage < 0.99 {
		t.Errorf("quality coverage = %v", rep.Quality.TestCoverage)
	}
	if rep.Reliability.SDCRate <= 0 || rep.Reliability.SlicedSpeedup <= 1 {
		t.Errorf("reliability stage = %+v", rep.Reliability)
	}
	if rep.Reliability.AgingSlowdown <= 1 {
		t.Error("aging stage must report slowdown")
	}
	if rep.Safety.SPFM > 0.2 {
		// Without safety mechanisms every detected fault is single-point.
		t.Errorf("unprotected SPFM = %v, want near zero", rep.Safety.SPFM)
	}
	if !rep.Security.TimingLeaky || !rep.Security.SecretRecovered || !rep.Security.FixedVerified {
		t.Errorf("security stage = %+v", rep.Security)
	}
	text := rep.Render()
	for _, want := range []string{"quality:", "reliability:", "safety:", "security:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report rendering missing %q", want)
		}
	}
}

func TestRunFlowWithSafetyMechanism(t *testing.T) {
	// Duplicated cone with comparator: the safety stage must now see
	// detected faults and a far better SPFM.
	n := netlist.New("protected")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	main, _ := n.AddGate("main", netlist.And, a, b)
	shadow, _ := n.AddGate("shadow", netlist.And, a, b)
	alarm, _ := n.AddGate("alarm", netlist.Xor, main, shadow)
	_ = n.MarkOutput(main)
	_ = n.MarkOutput(alarm)
	rep, err := RunFlow(FlowConfig{
		Netlist:      n,
		AlarmOutputs: []int{alarm},
		Environment:  seu.SeaLevel,
		Technology:   seu.Node28,
		Years:        5,
		Patterns:     64,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safety.SPFM < 0.5 {
		t.Errorf("protected SPFM = %v, want much higher than unprotected", rep.Safety.SPFM)
	}
	if rep.Safety.Suspicious != 0 {
		t.Errorf("healthy flow flagged %d suspicious classifications", rep.Safety.Suspicious)
	}
}

func TestRunFlowValidation(t *testing.T) {
	if _, err := RunFlow(FlowConfig{}); err == nil {
		t.Error("flow must require a netlist")
	}
}

func TestRunStagesRejectsEmptyFaultSubset(t *testing.T) {
	_, err := RunStages(context.Background(), FlowConfig{
		Netlist: circuits.C17(),
		Faults:  fault.List{},
	}, StageReliability)
	if err == nil {
		t.Error("empty non-nil fault subset must be rejected (would yield NaN SDC)")
	}
}

func TestRunStagesSelective(t *testing.T) {
	cfg := FlowConfig{
		Netlist:     circuits.RippleCarryAdder(8),
		Environment: seu.SeaLevel,
		Technology:  seu.Node28,
		Years:       10,
		Patterns:    100,
		Seed:        3,
	}
	full, err := RunFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"quality", "reliability", "safety", "security"}; !reflect.DeepEqual(full.Stages, want) {
		t.Errorf("full flow stages = %v", full.Stages)
	}
	// A fresh copy of the netlist, so the subset's quality stage searches
	// instead of recalling the full flow's PODEM verdicts.
	cfg.Netlist = cfg.Netlist.Clone()
	sub, err := RunStages(context.Background(), cfg, StageQuality, StageSecurity)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Quality != full.Quality {
		t.Errorf("subset quality %+v != full %+v", sub.Quality, full.Quality)
	}
	if sub.Security != full.Security {
		t.Errorf("subset security %+v != full %+v", sub.Security, full.Security)
	}
	if sub.Reliability != (ReliabilityReport{}) || sub.Safety != (SafetyReport{}) {
		t.Error("unselected stages must stay zero")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStages(ctx, cfg, StageQuality); err == nil {
		t.Error("cancelled context must abort before the first stage")
	}
}
