package sim

import (
	"fmt"

	"rescue/internal/logic"
	"rescue/internal/netlist"
)

// PackedBlock is the wide mirror of Packed: a 256-way parallel-pattern
// simulator whose per-gate state is one logic.Block (BlockWords packed
// Words). Like Packed it is a thin view over the netlist's shared
// Compiled machine, owning only its block-state array and a fanin
// gather buffer, so constructing one per session or worker is cheap and
// they never contend.
type PackedBlock struct {
	N       *netlist.Netlist
	c       *Compiled
	blocks  []logic.Block
	scratch []logic.Block
}

// NewPacked constructs another 64-bit packed simulator over this
// compiled machine — infallible, for callers that already hold the
// compilation (sessions growing worker machines).
func (c *Compiled) NewPacked() *Packed {
	return &Packed{N: c.N, c: c, words: c.newWords(), scratch: c.newScratch()}
}

// NewPackedBlock constructs a wide packed simulator over this compiled
// machine. All slots start at X.
func (c *Compiled) NewPackedBlock() *PackedBlock {
	return &PackedBlock{N: c.N, c: c, blocks: c.newBlocks(), scratch: c.newBlockScratch()}
}

// NewPackedBlock constructs a wide packed simulator for the netlist,
// sharing the memoised compiled machine.
func NewPackedBlock(n *netlist.Netlist) (*PackedBlock, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return c.NewPackedBlock(), nil
}

// Compiled returns the shared compiled machine this simulator executes.
func (p *PackedBlock) Compiled() *Compiled { return p.c }

// LoadPatterns loads up to BlockPatterns input vectors into the pattern
// slots. Pattern k occupies slot k; unused slots are X — exactly the
// values four consecutive Packed.LoadPatterns calls would stage.
func (p *PackedBlock) LoadPatterns(patterns []logic.Vector) error {
	if len(patterns) > BlockPatterns {
		return fmt.Errorf("sim: at most %d patterns per wide pass, got %d", BlockPatterns, len(patterns))
	}
	for i, id := range p.c.inputs {
		b := &p.blocks[id]
		for w := range b {
			lo := min(w*64, len(patterns))
			b[w] = inputWord(patterns[lo:min(lo+64, len(patterns))], i)
		}
	}
	return nil
}

// Block returns the wide packed value of a gate.
func (p *PackedBlock) Block(id int) logic.Block { return p.blocks[id] }

// Run performs one full combinational pass over all 256 slots on the
// compiled machine.
func (p *PackedBlock) Run() { p.c.RunBlock(p.blocks) }

// AlignTo copies the good machine's complete block state into p,
// establishing the alignment invariant RunConeAligned relies on.
func (p *PackedBlock) AlignTo(good *PackedBlock) { copy(p.blocks, good.blocks) }

// RunConeAligned is the wide hot-path cone pass over an aligned machine
// (see Compiled.RunConeAlignedBlock): it evaluates only the cone's
// gates across all BlockWords words, returns the wide output difference
// mask and the gate count evaluated, and restores the alignment
// invariant before returning. p must have been aligned to good since
// good's last Run.
func (p *PackedBlock) RunConeAligned(good *PackedBlock, cone *netlist.Cone, f FaultSite, mask *logic.BlockMask) (diff logic.BlockMask, evals int) {
	return p.c.RunConeAlignedBlock(p.blocks, good.blocks, p.scratch, cone, f, mask)
}
