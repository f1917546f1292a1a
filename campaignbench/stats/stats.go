// Package stats condenses benchmark samples into the numbers the
// campaign benchmark reports — median and quartiles with the sample
// count, and the highest tail percentile that still has ten samples
// beyond it — and defines the cohort key that says which measurements
// may be compared or aggregated at all.
package stats

import (
	"math"
	"os"
	"runtime"
	"sort"
)

// Summary is the distribution of one metric's samples.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailQ is the highest of 0.9, 0.99 and 0.999 that has at least ten
	// samples beyond it (0 below 100 samples); Tail is that quantile.
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// Summarize computes the Summary of xs; xs is not modified. An empty
// input yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{
		N:      len(s),
		Median: Quantile(s, 0.5),
		Q1:     Quantile(s, 0.25),
		Q3:     Quantile(s, 0.75),
		TailQ:  TailQuantile(len(s)),
	}
	if out.TailQ > 0 {
		out.Tail = Quantile(s, out.TailQ)
	}
	return out
}

// Spread is the interquartile range as a share of the median: the
// run-to-run noise figure bounds are compared against.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Quantile returns the q-quantile of ascending-sorted xs by the
// "exclusive" method (position q·(n+1), linear interpolation between
// neighbours, the end pair extrapolated past the ends) — the default of
// Python's statistics.quantiles, so quartiles printed here are the
// quartiles an external checker computes from the same values.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := q * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	frac := h - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// TailQuantile returns the highest of 0.999, 0.99 and 0.9 that leaves
// at least ten of n samples beyond it, or 0 when even p90 does not.
func TailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// Cohort identifies the conditions a measurement ran under. Results
// from different cohorts are never compared or aggregated.
type Cohort struct {
	Host      string `json:"host"`
	NumCPU    int    `json:"num_cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

// CurrentCohort returns the running process's cohort.
func CurrentCohort() Cohort {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return Cohort{
		Host:      host,
		NumCPU:    runtime.NumCPU(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
	}
}
