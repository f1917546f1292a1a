package rescue_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rescue"
	"rescue/internal/seu"
)

func TestFacadeCircuitRegistry(t *testing.T) {
	for _, name := range rescue.CircuitNames() {
		n, err := rescue.Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := rescue.Circuit("nope"); err == nil {
		t.Error("unknown circuit must error")
	}
}

func TestFacadeATPGAndFaultSim(t *testing.T) {
	n, err := rescue.Circuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := rescue.AllStuckAt(n)
	res, err := rescue.GenerateTests(n, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage.Effective() < 1 {
		t.Errorf("c17 coverage = %v", res.Coverage.Effective())
	}
	rep, err := rescue.FaultSimulate(n, faults, res.Tests)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage().Detected != len(faults) {
		t.Error("generated tests must detect all faults under fault simulation")
	}
}

func TestFacadeFig1AndFIT(t *testing.T) {
	if len(rescue.Fig1Distribution()) < 8 {
		t.Error("Fig.1 distribution too small")
	}
	if rescue.RenderFig1() == "" {
		t.Error("Fig.1 rendering empty")
	}
	if fit := rescue.MemoryFITPerMbit(seu.SeaLevel, seu.Node28); fit < 100 {
		t.Errorf("FIT/Mbit = %v", fit)
	}
}

func TestFacadeHolisticFlow(t *testing.T) {
	n, err := rescue.Circuit("rca8")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rescue.RunHolisticFlow(rescue.FlowConfig{
		Netlist:     n,
		Environment: seu.SeaLevel,
		Technology:  seu.Node28,
		Years:       10,
		Patterns:    64,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Design != "rca8" {
		t.Error("report design name wrong")
	}
}

func TestFacadeSelectiveStages(t *testing.T) {
	n, err := rescue.Circuit("rca8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rescue.FlowConfig{
		Netlist:     n,
		Environment: seu.SeaLevel,
		Technology:  seu.Node28,
		Patterns:    64,
		Seed:        2,
	}
	rep, err := rescue.RunFlowStages(context.Background(), cfg, rescue.FlowStages()[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quality.Faults == 0 {
		t.Error("quality stage did not run")
	}
	if rep.Reliability.RawFIT != 0 || rep.Security.TimingLeaky {
		t.Error("unselected stages must stay zero")
	}
}

func TestFacadeCampaign(t *testing.T) {
	sum, err := rescue.RunCampaign(context.Background(), rescue.CampaignMatrix{
		Circuits:     []string{"c17", "rca8"},
		Environments: []string{"sea-level", "LEO"},
		Scenarios:    []rescue.CampaignScenario{"quality", "holistic"},
		Patterns:     32,
		Years:        5,
		Seed:         11,
	}, rescue.CampaignConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 8 || sum.Failed != 0 {
		t.Fatalf("campaign jobs=%d failed=%d:\n%s", sum.Jobs, sum.Failed, sum.Render())
	}
	if sum.Quality == nil || sum.Quality.Jobs != 8 {
		t.Error("quality rollup must cover all jobs")
	}
	if sum.Security == nil || sum.Security.Jobs != 4 {
		t.Error("security rollup must cover the holistic jobs only")
	}
}

func TestFacadeCheckpointedCampaignAndService(t *testing.T) {
	m := rescue.CampaignMatrix{
		Circuits:  []string{"c17"},
		Scenarios: []rescue.CampaignScenario{"quality"},
		Patterns:  16,
		Seed:      11,
	}
	dir := t.TempDir()
	sum, err := rescue.RunCampaignCheckpointed(context.Background(), dir, m, rescue.CampaignConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 1 {
		t.Fatalf("completed=%d:\n%s", sum.Completed, sum.Render())
	}
	// The finished log resumes to zero remaining jobs and the same bytes.
	ck, err := rescue.ResumeCampaign(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if got := len(ck.Completed()); got != 1 {
		t.Fatalf("replayed %d results, want 1", got)
	}
	again, err := ck.Run(context.Background(), rescue.CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sum.JSON()
	b, _ := again.JSON()
	if string(a) != string(b) {
		t.Fatal("resumed summary differs from the original run")
	}

	// One run round-trips through the multi-run server and its
	// /runs/{id}/result serves the same bytes.
	srv, err := rescue.NewCampaignServer(rescue.CampaignServerConfig{BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	info, err := srv.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var st rescue.CampaignServiceStatus
	for deadline := time.Now().Add(30 * time.Second); st.State != "done"; time.Sleep(5 * time.Millisecond) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/runs/%d/status", info.ID), nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" || st.State == "canceled" || time.Now().After(deadline) {
			t.Fatalf("server run status = %+v", st)
		}
	}
	if st.Completed != 1 {
		t.Fatalf("server run status = %+v", st)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/runs/%d/result", info.ID), nil))
	if rec.Body.String() != string(a)+"\n" {
		t.Fatal("served result differs from the checkpointed run")
	}
}
