package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g := r.Gauge("test_depth", "help")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 55.65; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Bounds are inclusive: 0.1 lands in the first bucket.
	want := []int64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_seconds", "help", DurationBuckets)
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Errorf("span elapsed %v < 1ms", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("span did not record: count=%d sum=%g", h.Count(), h.Sum())
	}
	var zero Span
	if zero.End() != 0 {
		t.Error("zero span End should be a no-op")
	}
}

// TestSpanElapsedWithoutRecording pins the measure-only span: Elapsed
// reads a running span without ending it, and End on a nil-histogram
// span records nothing. A zero Span has elapsed nothing.
func TestSpanElapsedWithoutRecording(t *testing.T) {
	var zero Span
	if zero.Elapsed() != 0 {
		t.Error("zero span Elapsed should be 0")
	}
	sp := StartSpan(nil)
	time.Sleep(time.Millisecond)
	first := sp.Elapsed()
	if first < time.Millisecond {
		t.Errorf("Elapsed %v < 1ms", first)
	}
	if second := sp.Elapsed(); second < first {
		t.Errorf("Elapsed went backwards: %v then %v", first, second)
	}
	if d := sp.End(); d != 0 {
		t.Errorf("End of a nil-histogram span = %v, want 0", d)
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "help")
	for name, f := range map[string]func(){
		"kind":      func() { r.Gauge("dup_total", "help") },
		"duplicate": func() { r.Counter("dup_total", "help") },
		"bad-name":  func() { r.Counter("bad-name", "help") },
		"bounds": func() {
			r.Histogram("bad_bounds", "help", []float64{1, 1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestHotPathZeroAlloc pins the overhead budget's allocation half: no
// metric update on a hot path may allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "help")
	g := r.Gauge("alloc_depth", "help")
	h := r.Histogram("alloc_seconds", "help", DurationBuckets)
	if n := testing.AllocsPerRun(100, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Add(-1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.01) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { StartSpan(h).End() }); n != 0 {
		t.Errorf("Span allocates %v/op", n)
	}
}

// TestRegistryConcurrentHammer drives 8+ goroutines of counter
// increments, gauge swings and histogram observations against a
// concurrently scraping WritePrometheus/Snapshot reader. Run under
// -race in CI; the final totals prove no update was lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "help")
	g := r.Gauge("hammer_depth", "help")
	h := r.Histogram("hammer_seconds", "help", []float64{0.5})
	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two scrapers racing the writers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if !strings.Contains(buf.String(), "hammer_total") {
					t.Error("scrape missing hammer_total")
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(w%2) * 0.75)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	if got, want := h.Sum(), float64(workers/2*iters)*0.75; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte against
// testdata/exposition.golden (rewrite with -update).
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("campaign_jobs_completed_total", "Jobs completed by the campaign engine.")
	jobs.Add(17)
	depth := r.Gauge("campaign_queue_depth", "Jobs expanded but not yet dispatched.")
	depth.Set(3)
	evals := r.Counter("sim_gate_evals_total", "Gate evaluations performed by the packed simulator.")
	evals.Add(151744)
	for _, stage := range []struct {
		label string
		obs   []float64
	}{
		{`stage="quality"`, []float64{0.004, 0.04}},
		{`stage="security"`, []float64{0.2}},
	} {
		h := r.LabeledHistogram("flow_stage_seconds",
			"Wall-clock of one flow stage.", []float64{0.01, 0.1, 1}, stage.label)
		for _, v := range stage.obs {
			h.Observe(v)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/exposition.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition format drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "help").Add(5)
	h := r.LabeledHistogram("snap_seconds", "help", []float64{1}, `stage="q"`)
	h.Observe(0.5)
	h.Observe(2)
	snap := r.Snapshot()
	if snap["snap_total"] != 5 {
		t.Errorf("snap_total = %v", snap["snap_total"])
	}
	if snap[`snap_seconds_count{stage="q"}`] != 2 {
		t.Errorf("count = %v", snap[`snap_seconds_count{stage="q"}`])
	}
	if snap[`snap_seconds_sum{stage="q"}`] != 2.5 {
		t.Errorf("sum = %v", snap[`snap_seconds_sum{stage="q"}`])
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "help")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "help", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}
