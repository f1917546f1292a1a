package core

import (
	"context"
	"reflect"
	"testing"

	"rescue/internal/circuits"
)

// TestEffectiveInputsDeclaredForAllStages pins the contract rescue-lint
// also enforces statically: every stage has a declaration, and the
// declarations encode the paper-flow dependencies (quality and security
// are environment-free, reliability reads everything).
func TestEffectiveInputsDeclaredForAllStages(t *testing.T) {
	for _, id := range AllStages() {
		in, ok := EffectiveInputs(id)
		if !ok {
			t.Fatalf("stage %s has no declared-inputs entry", id)
		}
		switch id {
		case StageQuality:
			if in.Environment || in.Technology || in.Patterns || in.Years || !in.FaultShard {
				t.Errorf("quality inputs %+v: want fault shard only", in)
			}
		case StageReliability:
			if !in.Environment || !in.Technology || !in.FaultShard || !in.Patterns || !in.Years {
				t.Errorf("reliability inputs %+v: want everything declared", in)
			}
		case StageSafety:
			if in.Environment || in.Technology || !in.FaultShard || !in.Patterns {
				t.Errorf("safety inputs %+v: want fault shard + patterns", in)
			}
		case StageSecurity:
			if in != (StageInputs{}) {
				t.Errorf("security inputs %+v: want none declared", in)
			}
		}
	}
}

// TestDeriveStageSeedHonorsDeclaredInputs: coordinates a stage does not
// declare must never reach its seed, and declared ones must.
func TestDeriveStageSeedHonorsDeclaredInputs(t *testing.T) {
	base := StageCoords{Circuit: "mul8", Environment: "sea-level", Technology: "28nm", Shard: 0, Shards: 1}
	envVar := base
	envVar.Environment = "LEO"
	techVar := base
	techVar.Technology = "16nm"
	shardVar := base
	shardVar.Shard, shardVar.Shards = 1, 4
	circVar := base
	circVar.Circuit = "c17"

	for _, id := range AllStages() {
		in, _ := EffectiveInputs(id)
		s0 := DeriveStageSeed(42, id, base)
		if got := DeriveStageSeed(42, id, envVar); (got != s0) != in.Environment {
			t.Errorf("%s: environment sensitivity = %v, declared %v", id, got != s0, in.Environment)
		}
		if got := DeriveStageSeed(42, id, techVar); (got != s0) != in.Technology {
			t.Errorf("%s: technology sensitivity = %v, declared %v", id, got != s0, in.Technology)
		}
		if got := DeriveStageSeed(42, id, shardVar); (got != s0) != in.FaultShard {
			t.Errorf("%s: shard sensitivity = %v, declared %v", id, got != s0, in.FaultShard)
		}
		// The circuit is an implicit input of every stage.
		if DeriveStageSeed(42, id, circVar) == s0 {
			t.Errorf("%s: seed insensitive to the circuit", id)
		}
		// Shards<=1 normalises: the whole list is shard 0 of 1.
		zero := base
		zero.Shards = 0
		if DeriveStageSeed(42, id, zero) != s0 {
			t.Errorf("%s: Shards=0 and Shards=1 derive different seeds", id)
		}
	}
	// Stages with identical declared inputs still get distinct seeds —
	// the stage identity itself is always hashed.
	if DeriveStageSeed(42, StageQuality, base) == DeriveStageSeed(42, StageSafety, base) {
		t.Error("distinct stages derived the same seed for equal coordinates")
	}
}

// TestStageSeedsNilFallback: with no StageSeeds, every stage draws from
// the shared flow seed exactly as before the per-stage derivation —
// RunFlow output for direct users is unchanged by construction.
func TestStageSeedsNilFallback(t *testing.T) {
	n := circuits.C17()
	cfg := FlowConfig{Netlist: n, Patterns: 16, Seed: 9, Years: 5}
	plain, err := RunFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withSeeds := cfg
	withSeeds.Netlist = n.Clone() // searches afresh, recalling no PODEM verdict
	withSeeds.StageSeeds = map[StageID]int64{
		StageQuality: 9, StageReliability: 9, StageSafety: 9, StageSecurity: 9,
	}
	explicit, err := RunFlow(withSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, explicit) {
		t.Errorf("explicit per-stage seeds equal to the flow seed changed the report:\n%+v\nvs\n%+v", plain, explicit)
	}
}

// countingMemo records which stages RunStages offered for memoization
// and passes every computation through untouched.
type countingMemo struct {
	calls []StageID
}

func (m *countingMemo) Stage(id StageID, compute func() (StageResult, error)) (StageResult, error) {
	m.calls = append(m.calls, id)
	return compute()
}

// TestMemoInterceptsEveryStage: a transparent memo sees one call per
// scheduled stage and leaves the report bit-identical.
func TestMemoInterceptsEveryStage(t *testing.T) {
	n := circuits.C17()
	cfg := FlowConfig{Netlist: n, Patterns: 16, Seed: 9, Years: 5}
	plain, err := RunStages(context.Background(), cfg, AllStages()...)
	if err != nil {
		t.Fatal(err)
	}
	memo := &countingMemo{}
	cfg.Memo = memo
	cfg.Netlist = n.Clone() // searches afresh, recalling no PODEM verdict
	memoised, err := RunStages(context.Background(), cfg, AllStages()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memo.calls, AllStages()) {
		t.Errorf("memo saw stages %v, want %v", memo.calls, AllStages())
	}
	if !reflect.DeepEqual(plain, memoised) {
		t.Errorf("transparent memo changed the report:\n%+v\nvs\n%+v", plain, memoised)
	}
}
