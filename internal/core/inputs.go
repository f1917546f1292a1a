package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
)

// StageInputs declares the *effective inputs* of one flow stage: which
// job coordinates and flow parameters its computation actually reads.
// The circuit (netlist) and the base seed are inputs of every stage and
// are therefore implicit. This table is the contract the campaign
// layer's cross-job stage cache is built on: two jobs whose declared
// inputs for a stage are equal compute byte-identical stage results,
// because the stage's seed is derived (DeriveStageSeed) from exactly
// these coordinates and nothing else — in particular never from the
// scenario, which selects stages but does not parameterise them, and
// never from runtime knobs like the Spare worker budget, which by
// design do not change results.
type StageInputs struct {
	// Environment and Technology are the radiation environment and the
	// technology node; only the reliability stage's FIT budget reads them.
	Environment bool
	Technology  bool
	// FaultShard is the job's slice of the collapsed fault list — and
	// with it FaultShare and SkipAging, which the campaign derives from
	// the shard index alone. Stages that never read the fault list
	// (security) leave it false, so every shard shares one result.
	FaultShard bool
	// Patterns is the size parameter of the derived random-pattern set.
	// The quality stage bootstraps at a fixed internal width and does
	// not read it.
	Patterns bool
	// Years is the aging horizon.
	Years bool
}

// stageInputs is the per-stage effective-input declaration. rescue-lint's
// memo check verifies that every exported StageID has an entry here and
// that stage implementations reach randomness only through the
// declared-input seed derivation, never through the raw job seed.
var stageInputs = map[StageID]StageInputs{
	// ATPG is pure structure + seed: its bootstrap patterns are generated
	// at a fixed internal width, independent of FlowConfig.Patterns, and
	// the environment/technology never reach the search.
	StageQuality: {FaultShard: true},
	// The reliability stage reads everything: the fault shard for the
	// SDC campaign, environment × technology for the raw FIT, the
	// pattern budget for injection and signal probabilities, and the
	// horizon for BTI aging.
	StageReliability: {Environment: true, Technology: true, FaultShard: true, Patterns: true, Years: true},
	// ISO 26262 classification runs the fault shard against the derived
	// pattern set; environment and technology play no role in SPFM/LFM.
	StageSafety: {FaultShard: true, Patterns: true},
	// The timing side-channel check reads the secret and the seed only —
	// no fault list, no environment — so one measurement serves every
	// cell of a circuit's matrix row.
	StageSecurity: {},
}

// EffectiveInputs returns the declared effective inputs of a stage and
// whether the stage has a declaration at all.
func EffectiveInputs(id StageID) (StageInputs, bool) {
	in, ok := stageInputs[id]
	return in, ok
}

// StageCoords are the campaign-level coordinates DeriveStageSeed may
// fold into a stage seed, and the flow parameters StageKey adds to a
// stage's cache key, each subject to the stage's declared inputs.
// There is deliberately no scenario field: a stage's seed and key must
// be the same whether the stage runs inside a holistic job or alone.
type StageCoords struct {
	Circuit     string
	Environment string
	Technology  string
	// Shard/Shards select the job's contiguous fault-list slice;
	// Shards <= 1 means the whole list and hashes like shard 0 of 1.
	Shard  int
	Shards int
	// Patterns and Years are the flow's pattern count and aging horizon.
	// They parameterise a stage without being coordinates of its seed:
	// only StageKey reads them.
	Patterns int
	Years    float64
}

// writeCoords renders the coordinates a stage declares: the one
// rendering DeriveStageSeed hashes and StageKey spells out.
func writeCoords(w io.Writer, in StageInputs, c StageCoords) {
	if in.Environment {
		fmt.Fprintf(w, "|e=%s", c.Environment)
	}
	if in.Technology {
		fmt.Fprintf(w, "|t=%s", c.Technology)
	}
	if in.FaultShard {
		fmt.Fprintf(w, "|sh=%d/%d", c.Shard, max(c.Shards, 1))
	}
}

// DeriveStageSeed computes a stage's seed by FNV-1a-hashing the stage
// identity and ONLY the coordinates the stage declares as effective
// inputs, folded into the base seed. Undeclared coordinates never reach
// the hash, so equal-input stages across different matrix cells get
// equal seeds — which makes their results byte-identical and therefore
// cacheable. The derivation depends only on coordinates, never on
// scheduling order or parallelism.
func DeriveStageSeed(base int64, id StageID, c StageCoords) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "stage|%s|c=%s", id, c.Circuit)
	writeCoords(h, stageInputs[id], c)
	return base ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// StageKey renders the content key of one stage: the circuit, the
// stage, its derived seed, its declared coordinates, and its declared
// flow parameters (patterns, years), which are not part of the seed.
// Two stages with equal keys run over byte-identical inputs, so a
// result cached under the key is exactly what recomputation would
// produce.
func StageKey(base int64, id StageID, c StageCoords) string {
	in := stageInputs[id]
	var b strings.Builder
	fmt.Fprintf(&b, "c=%s|st=%s|seed=%d", c.Circuit, id, DeriveStageSeed(base, id, c))
	writeCoords(&b, in, c)
	if in.Patterns {
		fmt.Fprintf(&b, "|p=%d", c.Patterns)
	}
	if in.Years {
		fmt.Fprintf(&b, "|y=%g", c.Years)
	}
	return b.String()
}
