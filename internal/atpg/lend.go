package atpg

import (
	"sync"
	"sync/atomic"

	"rescue/internal/netlist"
)

// Slots is a budget of spare workers that PODEM loops borrow without
// blocking. The owner lends workers with Add; a loop takes a slot for
// each helper goroutine it starts and gives it back after every unit of
// work, so searches sharing one budget trade slots as they run. A nil
// *Slots holds none: every loop then runs on its calling goroutine.
// Which goroutine runs a search never changes its result, so a budget
// changes only wall-clock time.
type Slots struct {
	free atomic.Int64
}

// NewSlots returns a budget holding n slots (none when n <= 0).
func NewSlots(n int) *Slots {
	s := new(Slots)
	s.Add(n)
	return s
}

// Add lends n more workers to the budget; n <= 0 adds nothing.
func (s *Slots) Add(n int) {
	if n > 0 {
		s.free.Add(int64(n))
	}
}

// take borrows one slot if one is free.
func (s *Slots) take() bool {
	if s == nil {
		return false
	}
	for {
		f := s.free.Load()
		if f <= 0 {
			return false
		}
		if s.free.CompareAndSwap(f, f-1) {
			return true
		}
	}
}

// give returns a borrowed slot.
func (s *Slots) give() { s.free.Add(1) }

// crew shares units of PODEM work — the targets of one deterministic
// round, the fault chunks of one classification pass — between the
// calling goroutine and helpers on slots borrowed from opt.Spare.
// Engines carry no state between Generate calls, so idle ones are kept
// and handed to whichever goroutine works next.
type crew struct {
	n   *netlist.Netlist
	opt Options

	mu   sync.Mutex
	idle []*Engine
}

// engine hands out an idle engine, building one when none is left.
func (c *crew) engine() (*Engine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := len(c.idle); k > 0 {
		e := c.idle[k-1]
		c.idle = c.idle[:k-1]
		return e, nil
	}
	return NewEngine(c.n, c.opt)
}

func (c *crew) release(e *Engine) {
	c.mu.Lock()
	c.idle = append(c.idle, e)
	c.mu.Unlock()
}

// run calls work(e, i) once for every i in [0, items) and returns how
// many helpers it started. Before each item it claims, the calling
// goroutine borrows a slot for every unclaimed item beyond the ones
// already being worked and starts one helper per slot. A helper gives
// its slot back after every item and stops when it cannot take one
// again. Items are claimed from one counter, so work must write only
// state indexed by i. Every item runs even after one fails, and the
// error of the lowest failing item is returned: the same at any number
// of helpers.
func (c *crew) run(items int, work func(e *Engine, i int) error) (int, error) {
	eng, err := c.engine()
	if err != nil {
		return 0, err
	}
	defer c.release(eng)
	var (
		next   atomic.Int64 // next unclaimed item
		active atomic.Int64 // helpers still working
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = items
		first  error
	)
	step := func(e *Engine) bool {
		i := int(next.Add(1) - 1)
		if i >= items {
			return false
		}
		if err := work(e, i); err != nil {
			mu.Lock()
			if i < errAt {
				errAt, first = i, err
			}
			mu.Unlock()
		}
		return true
	}
	helper := func() {
		defer wg.Done()
		defer active.Add(-1)
		// The helper gets its engine on its own goroutine, so a new one
		// is allocated by the processor that searches with it. Built on
		// the caller's goroutine instead, next to the caller's engine,
		// the lent searches of a mul8 classification took about 15%
		// more CPU time.
		e, err := c.engine()
		if err != nil {
			// The caller's engine was built from the same netlist and
			// options, so this cannot fail; the items stay with the
			// other goroutines either way.
			c.opt.Spare.give()
			return
		}
		defer c.release(e)
		for step(e) {
			c.opt.Spare.give()
			if !c.opt.Spare.take() {
				return
			}
		}
		c.opt.Spare.give()
	}
	helpers := 0
	for {
		for active.Load()+1 < int64(items)-next.Load() && c.opt.Spare.take() {
			helpers++
			active.Add(1)
			wg.Add(1)
			go helper()
		}
		if !step(eng) {
			break
		}
	}
	wg.Wait()
	return helpers, first
}
