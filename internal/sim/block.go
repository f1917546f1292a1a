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

// Run performs one fault-free full combinational pass over all 256
// slots on the compiled machine — the wide mirror of Packed.Run.
func (p *PackedBlock) Run() {
	c, blocks := p.c, p.blocks
	fanin, off := c.fanin, c.faninOff
	for _, id := range c.schedule {
		evalOpB(c.code[id], fanin[off[id]:off[id+1]], blocks, &blocks[id])
	}
}

// AlignTo copies the good machine's complete block state into p,
// establishing the alignment invariant RunConeAligned relies on.
func (p *PackedBlock) AlignTo(good *PackedBlock) { copy(p.blocks, good.blocks) }

// RunConeAligned is the wide hot-path cone pass over an aligned machine
// (see RunConeWithAlarms) with no alarm outputs, reporting
// only the slots mask selects. Slots evaluate independently, so the
// diff equals that of a fault injected in those slots alone. It returns
// the masked output difference mask and the gates the pass evaluated,
// cone.Evals, and restores the alignment invariant before returning. p
// must have been aligned to good since good's last Run.
func (p *PackedBlock) RunConeAligned(good *PackedBlock, cone *netlist.Cone, f FaultSite, mask *logic.BlockMask) (diff logic.BlockMask, evals int) {
	diff = p.RunConeWithAlarms(good, cone, f, 0)
	for w := range diff {
		diff[w] &= mask[w]
	}
	return diff, cone.Evals
}

// RunConeWithAlarms is the wide mirror of Packed.RunConeWithAlarms over
// an aligned machine: it faults the cone root in all BlockWords words,
// evaluates the rest of the cone, folds the per-word difference masks
// over the cone's reachable primary outputs, and restores the cone
// gates' blocks from good. The pass evaluates cone.Evals gates over
// BlockWords words each, and the cone must be grown from f.Gate. The
// netlist's last alarms primary outputs are read as alarms: a slot
// differs only when a non-alarm output differs and no alarm output does.
func (p *PackedBlock) RunConeWithAlarms(good *PackedBlock, cone *netlist.Cone, f FaultSite, alarms int) (diff logic.BlockMask) {
	c, blocks, gb := p.c, p.blocks, good.blocks
	c.runConeEvalBlock(blocks, p.scratch, cone, f)
	firstAlarm := len(c.outputs) - alarms
	var alarm logic.BlockMask
	for _, oi := range cone.Outputs {
		oid := c.outputs[oi]
		if oi < firstAlarm {
			logic.DiffB(&gb[oid], &blocks[oid], &diff)
		} else {
			logic.DiffB(&gb[oid], &blocks[oid], &alarm)
		}
	}
	for _, id := range cone.Order {
		blocks[id] = gb[id]
	}
	for w := range diff {
		diff[w] &^= alarm[w]
	}
	return diff
}
