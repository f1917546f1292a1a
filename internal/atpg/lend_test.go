package atpg

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestLentCrewRunsEveryItemOnce drives crew.run with a synthetic unit of
// work at several budgets: every item must run exactly once, the error
// returned must be the lowest failing item's whatever the number of
// helpers, and every borrowed slot must be back afterwards.
func TestLentCrewRunsEveryItemOnce(t *testing.T) {
	n := combRegistry(t, "c17")
	const items = 200
	for _, spare := range []int{0, 1, 3} {
		slots := NewSlots(spare)
		c := &crew{n: n, opt: Options{Spare: slots}}
		runs := make([]atomic.Int32, items)
		helpers, err := c.run(items, func(e *Engine, i int) error {
			if e == nil {
				return fmt.Errorf("item %d: no engine", i)
			}
			runs[i].Add(1)
			if i%50 == 49 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 49 failed" {
			t.Errorf("spare %d: error %v, want the lowest failing item's", spare, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("spare %d: item %d ran %d times", spare, i, got)
			}
		}
		if spare == 0 && helpers != 0 {
			t.Errorf("no budget, yet %d helpers started", helpers)
		}
		if free := slots.free.Load(); free != int64(spare) {
			t.Errorf("spare %d: %d slots free after the run", spare, free)
		}
	}
}
