package main

import (
	"context"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rescue/campaignbench/stats"
	"rescue/internal/campaign"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measure re-executes itself for a sample or a replay.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == childFlag {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestChurnMatricesDeterministic(t *testing.T) {
	a, b := churnMatrices(42, 64), churnMatrices(42, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different matrices")
	}
	if reflect.DeepEqual(a, churnMatrices(43, 64)) {
		t.Fatal("different seeds gave the same matrices")
	}
	count := make(map[string]int)
	for i, m := range churnMatrices(7, churnRuns) {
		if len(m.Circuits) != 2 || m.Circuits[0] == m.Circuits[1] ||
			slices.Contains(m.Circuits, "mul8") || m.Patterns != 8192 || m.Seed < 1 || m.Seed > 8 {
			t.Errorf("matrix %d = %+v", i, m)
		}
		if _, err := m.Expand(); err != nil {
			t.Errorf("matrix %d: %v", i, err)
		}
		count["circuit "+m.Circuits[0]]++
		count["circuit "+m.Circuits[1]]++
		count["env "+m.Environments[0]]++
		count["scenario "+string(m.Scenarios[0])]++
		count["seed "+strconv.FormatInt(m.Seed, 10)]++
	}
	// Each value of each attribute is dealt equally often, to within one.
	values := map[string]int{"circuit": len(fiCircuits()), "env": 4, "scenario": 5, "seed": 8}
	slots := map[string]int{"circuit": 2 * churnRuns, "env": churnRuns, "scenario": churnRuns, "seed": churnRuns}
	want := make(map[string][2]int)
	for kind, n := range values {
		want[kind] = [2]int{slots[kind] / n, (slots[kind] + n - 1) / n}
	}
	seen := make(map[string]int)
	for k, n := range count {
		kind, _, _ := strings.Cut(k, " ")
		seen[kind]++
		if n < want[kind][0] || n > want[kind][1] {
			t.Errorf("%s occurs %d times, want %d..%d", k, n, want[kind][0], want[kind][1])
		}
	}
	for kind, n := range values {
		if seen[kind] != n {
			t.Errorf("%d distinct %s values, want %d", seen[kind], kind, n)
		}
	}
}

// tiny shrinks a workload to a few small jobs, keeping its shape: the
// same code paths, child processes and checks at a fraction of the cost.
func tiny(w workload) workload {
	full := w.spec
	w.name = "tiny-" + w.name
	w.minSamples = 2 * w.inputs
	w.spec = func(seed int64) sampleSpec {
		s := full(seed)
		small := []string{"c17", "s27", "rca8"}
		if s.Server {
			s.Matrices = s.Matrices[:6]
		} else {
			s.Matrices[0].Circuits = small
		}
		for i := range s.Matrices {
			s.Matrices[i].Patterns = 64
		}
		s.Warm = small
		return s
	}
	return w
}

func TestSmokeEveryWorkloadThroughChildren(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tw := tiny(w)
			res, err := measure(ctx, tw, w.seed, options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Samples != tw.minSamples || len(res.Digests) != w.inputs {
				t.Fatalf("untraced run: correct %v, attempted %d, samples %d, problems %v",
					res.Correct, res.Attempted, res.Samples, res.problems)
			}
			var sb strings.Builder
			if err := res.report(&sb, spec.EndToEnd); err != nil {
				t.Fatal(err)
			}
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %g, want > 0", m.Name, v)
				}
			}
			if testing.Short() {
				return
			}
			tr, err := measure(ctx, tw, w.seed, options{trace: true, traceDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced run incorrect: %v", tr.problems)
			}
			if err := tr.report(&sb, spec.PerLayer); err != nil {
				t.Fatal(err)
			}
			total := tr.Metrics["trace.unattributed_ratio"].Value
			for _, l := range replayLayers {
				total += tr.Metrics[l+".share"].Value
			}
			if math.Abs(total-1) > 1e-6 {
				t.Errorf("layer shares plus unattributed = %g, want 1", total)
			}
		})
	}
}

func TestWrongDigestFailsEveryOperation(t *testing.T) {
	want, ok := recordedDigest("holistic-registry", 1)
	if !ok {
		t.Fatal("digests.json records no digest for holistic-registry at seed 1")
	}
	res := &runRecord{Workload: "holistic-registry"}
	res.check([]sampleRecord{{Input: 1, Ops: 18, Digest: want}, {Input: 1, Ops: 18, Digest: "bogus"}})
	if res.Attempted != 36 || res.Failed != 18 {
		t.Errorf("one bad sample: attempted %d failed %d, want 36 and 18", res.Attempted, res.Failed)
	}
	res = &runRecord{Workload: "holistic-registry"}
	res.check([]sampleRecord{{Input: 1, Ops: 18, Failed: 1, Digest: "bogus"}, {Input: 1, Ops: 18, Digest: "bogus"}})
	if res.Failed != res.Attempted {
		t.Errorf("all samples wrong: failed %d of %d, want all", res.Failed, res.Attempted)
	}
	// For an input with no recorded digest, its samples must agree; other
	// inputs are compared among themselves.
	res = &runRecord{Workload: "holistic-registry"}
	res.check([]sampleRecord{{Input: 12345, Ops: 18, Digest: "a"}, {Input: 12346, Ops: 18, Digest: "c"},
		{Input: 12345, Ops: 18, Digest: "b"}, {Input: 12346, Ops: 18, Digest: "c"}})
	if res.Failed != 18 || len(res.problems) != 1 {
		t.Errorf("disagreeing samples: failed %d, problems %v", res.Failed, res.problems)
	}
}

func TestReplayRejectsWrongStageSeed(t *testing.T) {
	m := campaign.Matrix{
		Circuits:     []string{"c17", "s27", "rca8"},
		Environments: []string{"sea-level", "GEO"},
		Scenarios:    []campaign.Scenario{campaign.ScenarioHolistic, campaign.ScenarioSafety},
		Patterns:     64, Years: 5, Seed: 9,
	}
	sum, err := campaign.Run(context.Background(), m, campaign.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]campaign.Result{sum.Results}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	replayWith := func(base int64) [][]campaign.Result {
		r := newReplayer()
		var got []campaign.Result
		for _, j := range jobs {
			rep, err := r.job(base, j)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, campaign.Result{Job: j, Report: rep})
		}
		return [][]campaign.Result{got}
	}
	if msg := firstMismatch(want, replayWith(m.Seed)); msg != "" {
		t.Fatalf("faithful replay rejected: %s", msg)
	}
	if msg := firstMismatch(want, replayWith(m.Seed+1)); !strings.Contains(msg, "differs") {
		t.Fatalf("replay with wrong stage seeds accepted (mismatch %q)", msg)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the code
// computes are exactly the ones BENCHMARK.json lists, in each mode.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	samples := []sampleRecord{{WallS: 1, CPUS: 1, ProbeNs: 1, LatencyS: []float64{1}, Counters: map[string]float64{}}}
	res := &runRecord{}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	keys := func(m map[string]measured) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	if got, want := keys(endToEnd(workloads[0], samples, res)), names(spec.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	rep := &replayRecord{WallS: 1, LayerS: map[string]float64{}}
	if got, want := keys(perLayer(samples, rep, 1, res)), names(spec.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
}

func TestVerdictAndClaim(t *testing.T) {
	lower := metricSpec{Name: "campaign_s", Better: "lower", Bound: 0.05}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if v, _ := verdict(lower, parent, scale(parent, 1.02)); v != "within bound" {
		t.Errorf("2%% slower with a 5%% bound: %s", v)
	}
	if v, _ := verdict(lower, parent, scale(parent, 1.10)); v != "regressed" {
		t.Errorf("10%% slower with a 5%% bound: %s", v)
	}
	noisy := []float64{1, 1.3, 0.8, 1.2, 0.9, 1.1, 0.7, 1.25, 0.95, 1.05}
	if v, _ := verdict(lower, noisy, scale(noisy, 1.02)); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("spread above bound: %s, want unresolved", v)
	}
	if v, _ := verdict(lower, parent[:5], parent[:5]); !strings.HasPrefix(v, "unresolved") {
		t.Errorf("five pairs: %s, want unresolved", v)
	}
	if ok, detail := claimMet(lower, parent, scale(parent, 0.9)); !ok {
		t.Errorf("10%% faster in every pair: claim not met (%s)", detail)
	}
	// Eight wins in ten pairs is not enough.
	mixed := scale(parent, 0.9)
	mixed[0], mixed[1] = 2, 2
	if ok, detail := claimMet(lower, parent, mixed); ok {
		t.Errorf("8/10 wins: claim met (%s)", detail)
	}
	// Every pair won, but by less than the parent's IQR.
	if ok, detail := claimMet(lower, parent, scale(parent, 0.999)); ok {
		t.Errorf("0.1%% gain inside the parent IQR: claim met (%s)", detail)
	}
	higher := metricSpec{Name: "x", Better: "higher", Bound: 0.05}
	if v, worse := verdict(higher, parent, scale(parent, 0.9)); v != "regressed" || worse <= 0 {
		t.Errorf("higher-is-better metric 10%% lower: %s (worse %g)", v, worse)
	}
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, c stats.Cohort) string {
		p := dir + "/" + name
		for i := range minPairs {
			r := &runRecord{Workload: "fi-sweep", Seed: int64(i), Cohort: c, Correct: true,
				Metrics: map[string]measured{"campaign_s": single(1)}}
			if err := appendRecord(p, r); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	here := stats.CurrentCohort()
	other := here
	other.NumCPU++
	var sb strings.Builder
	if err := compareFiles(&sb, spec, write("a.jsonl", here), write("b.jsonl", other), ""); err == nil ||
		!strings.Contains(err.Error(), "cohort") {
		t.Fatalf("mixed cohorts compared (err %v)", err)
	}
	if err := compareFiles(&sb, spec, write("c.jsonl", here), write("d.jsonl", here), "campaign_s@fi-sweep"); err == nil {
		t.Fatalf("identical runs met a claim:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "within bound") {
		t.Errorf("identical runs not within bound:\n%s", sb.String())
	}
}
