package stats

import (
	"math"
	"runtime"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The fixtures are hand-computed with the exclusive method (position
// q·(n+1)); they equal Python's statistics.quantiles(xs, n=4).
func TestSummarizeQuartiles(t *testing.T) {
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		// Positions 2.75, 5.5, 8.25.
		{[]float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		// Positions 1.25, 2.5, 3.75 over {10, 20, 40, 80}.
		{[]float64{80, 10, 40, 20}, 12.5, 30, 70},
		// Two samples: the outer quartiles extrapolate past the ends.
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		s := Summarize(c.xs)
		if s.N != len(c.xs) || !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) = %+v, want n=%d q1=%g median=%g q3=%g",
				c.xs, s, len(c.xs), c.q1, c.median, c.q3)
		}
	}
	if s := Summarize([]float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}); !near(s.Spread(), 1) {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s.Spread())
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := TailQuantile(c.n); got != c.q {
			t.Errorf("TailQuantile(%d) = %g, want %g", c.n, got, c.q)
		}
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 1..100: p90 sits at position 90.9.
	if s := Summarize(seq(100)); s.TailQ != 0.9 || !near(s.Tail, 90.9) {
		t.Errorf("1..100: tail p%g = %g, want p90 = 90.9", 100*s.TailQ, s.Tail)
	}
	// 1..1000: p99 sits at position 990.99.
	if s := Summarize(seq(1000)); s.TailQ != 0.99 || !near(s.Tail, 990.99) {
		t.Errorf("1..1000: tail p%g = %g, want p99 = 990.99", 100*s.TailQ, s.Tail)
	}
	if s := Summarize(seq(50)); s.TailQ != 0 || s.Tail != 0 {
		t.Errorf("50 samples: tail = p%g %g, want none", 100*s.TailQ, s.Tail)
	}
}

func TestCurrentCohort(t *testing.T) {
	c := CurrentCohort()
	if c.Host == "" || c.NumCPU != runtime.NumCPU() || c.GOOS != runtime.GOOS ||
		c.GOARCH != runtime.GOARCH || c.GoVersion != runtime.Version() {
		t.Errorf("CurrentCohort() = %+v", c)
	}
}
