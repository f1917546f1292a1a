package sim

import (
	"fmt"

	"rescue/internal/logic"
)

// Patterns is a pattern set packed for the parallel-pattern machines:
// word b*width+i holds input i of patterns 64b…64b+63, pattern 64b+k in
// slot k. Slots past the last pattern are X, and so is an input past the
// end of a short vector. The fault-injection consumers read a set one
// word per input per block, so a set is packed (or generated) once, not
// transposed again by every consumer.
type Patterns struct {
	width, count int
	words        []logic.Word
}

// NewPatterns returns a set of count patterns over width inputs, all X,
// for a generator to fill block by block through Block.
func NewPatterns(width, count int) *Patterns {
	if count < 0 {
		panic(fmt.Sprintf("sim: negative pattern count %d", count))
	}
	return &Patterns{width: width, count: count, words: make([]logic.Word, width*blocksOf(count))}
}

// PackPatterns packs the vectors into a set over width inputs. Inputs
// past the end of a short vector read X; values past width are ignored.
func PackPatterns(width int, vectors []logic.Vector) *Patterns {
	p := &Patterns{}
	p.Pack(width, vectors)
	return p
}

// Pack repacks p to hold the vectors over width inputs, as PackPatterns
// does, reusing p's words when they are large enough.
func (p *Patterns) Pack(width int, vectors []logic.Vector) {
	p.width, p.count = width, len(vectors)
	if need := width * blocksOf(len(vectors)); cap(p.words) >= need {
		p.words = p.words[:need]
	} else {
		p.words = make([]logic.Word, need)
	}
	for b := range p.Blocks() {
		chunk := vectors[64*b : min(64*b+64, len(vectors))]
		blk := p.Block(b)
		for i := range blk {
			blk[i] = inputWord(chunk, i)
		}
	}
}

func blocksOf(count int) int { return (count + 63) / 64 }

// inputWord packs input i of up to 64 vectors into one word: pattern
// k's value sets bit k of the V0 plane for 0 and of the V1 plane for 1;
// X, Z and an input past a short vector's end set neither. The planes
// are shifted in from the last pattern down and computed without
// branches, because random patterns defeat branch prediction: for
// b = uint64(v), (b-1)>>63 is 1 exactly when v is Zero and
// ((b^1)-1)>>63 exactly when v is One.
func inputWord(patterns []logic.Vector, i int) logic.Word {
	var w logic.Word
	for k := len(patterns) - 1; k >= 0; k-- {
		var zero, one uint64
		if pat := patterns[k]; i < len(pat) {
			b := uint64(pat[i])
			zero, one = (b-1)>>63, ((b^1)-1)>>63
		}
		w.V0 = w.V0<<1 | zero
		w.V1 = w.V1<<1 | one
	}
	return w
}

// Len returns the number of patterns in the set.
func (p *Patterns) Len() int { return p.count }

// Blocks returns the number of 64-pattern blocks, the last possibly
// partial.
func (p *Patterns) Blocks() int { return blocksOf(p.count) }

// Block returns the width words of block b, one per input. The slice
// aliases the set.
func (p *Patterns) Block(b int) []logic.Word {
	return p.words[b*p.width : (b+1)*p.width : (b+1)*p.width]
}

// Mask returns the slots of block b that hold a pattern.
func (p *Patterns) Mask(b int) uint64 {
	return ^uint64(0) >> (64 - min(64, p.count-64*b))
}

// word returns input i of block b, X for a block past the set's end.
func (p *Patterns) word(b, i int) logic.Word {
	if 64*b >= p.count {
		return logic.Word{}
	}
	return p.words[b*p.width+i]
}

// checkWidth returns an error unless the set was packed for a circuit
// of the given input count.
func (p *Patterns) checkWidth(inputs int) error {
	if p.width != inputs {
		return fmt.Errorf("sim: pattern set of %d inputs for a circuit of %d inputs", p.width, inputs)
	}
	return nil
}

// LoadBlock loads 64-pattern block b of the set into the pattern slots:
// the values LoadPatterns stages for the same vectors. The set's width
// must be the circuit's input count.
func (p *Packed) LoadBlock(pats *Patterns, b int) error {
	if err := pats.checkWidth(len(p.c.inputs)); err != nil {
		return err
	}
	for i, id := range p.c.inputs {
		p.words[id] = pats.word(b, i)
	}
	return nil
}

// LoadBlock loads the BlockWords 64-pattern blocks from block b on into
// the pattern slots, X past the set's end: the values LoadPatterns
// stages for the same vectors. The set's width must be the circuit's
// input count.
func (p *PackedBlock) LoadBlock(pats *Patterns, b int) error {
	if err := pats.checkWidth(len(p.c.inputs)); err != nil {
		return err
	}
	for i, id := range p.c.inputs {
		blk := &p.blocks[id]
		for w := range blk {
			blk[w] = pats.word(b+w, i)
		}
	}
	return nil
}
