// Differential tests: the cone-restricted incremental engine (Run) must
// be bit-identical to the full-pass reference engine (RunFull) on every
// registry circuit, while evaluating far fewer gates. Sequential circuits
// are exercised through their full-scan combinational view, so the whole
// registry is covered. The test lives in an external package so it can
// use atpg.ScanView (atpg itself imports faultsim).
package faultsim_test

import (
	"testing"

	"rescue/internal/atpg"
	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/netlist"
)

// combView returns the circuit, scan-converted if sequential.
func combView(t testing.TB, name string) *netlist.Netlist {
	t.Helper()
	n := circuits.Registry[name]()
	if n.IsSequential() {
		sv, err := atpg.ScanView(n)
		if err != nil {
			t.Fatalf("%s: scan view: %v", name, err)
		}
		n = sv.Comb
	}
	return n
}

func TestConeEngineMatchesFullPassOnRegistry(t *testing.T) {
	for _, name := range circuits.Names() {
		n := combView(t, name)
		// Uncollapsed list: exercises every output and pin fault site.
		faults := fault.AllStuckAt(n)
		// 100 patterns = one full block plus a partial tail block.
		pats := faultsim.RandomPatterns(n, 100, 17)
		cone, err := faultsim.Run(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: cone engine: %v", name, err)
		}
		full, err := faultsim.RunFull(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: full engine: %v", name, err)
		}
		for fi := range faults {
			if cone.Status[fi] != full.Status[fi] {
				t.Errorf("%s: fault %s: cone status %v != full %v",
					name, faults[fi].Describe(n), cone.Status[fi], full.Status[fi])
			}
			if cone.DetectedBy[fi] != full.DetectedBy[fi] {
				t.Errorf("%s: fault %s: cone DetectedBy %d != full %d",
					name, faults[fi].Describe(n), cone.DetectedBy[fi], full.DetectedBy[fi])
			}
		}
		if cone.Coverage() != full.Coverage() {
			t.Errorf("%s: coverage mismatch: cone %+v != full %+v",
				name, cone.Coverage(), full.Coverage())
		}
		if cone.GateEvals > full.GateEvals {
			t.Errorf("%s: cone engine evaluated more gates (%d) than full pass (%d)",
				name, cone.GateEvals, full.GateEvals)
		}
	}
}

// TestSessionChunksMatchOneShotOnRegistry routes the differential test
// through the persistent Session: feeding the pattern set in uneven
// chunks (crossing and splitting 64-slot block boundaries) must yield
// the same Status/DetectedBy/Coverage as a single Run call — which is
// itself bit-identical to RunFull per the test above. Only GateEvals may
// differ (extra chunks mean extra good-machine passes).
func TestSessionChunksMatchOneShotOnRegistry(t *testing.T) {
	for _, name := range circuits.Names() {
		n := combView(t, name)
		faults := fault.AllStuckAt(n)
		pats := faultsim.RandomPatterns(n, 100, 17)
		oneShot, err := faultsim.Run(n, faults, pats)
		if err != nil {
			t.Fatalf("%s: one-shot: %v", name, err)
		}
		s, err := faultsim.NewSession(n, faults)
		if err != nil {
			t.Fatalf("%s: session: %v", name, err)
		}
		detections := 0
		for _, chunk := range [][2]int{{0, 30}, {30, 60}, {60, 64}, {64, 100}} {
			sr, err := s.Simulate(pats[chunk[0]:chunk[1]])
			if err != nil {
				t.Fatalf("%s: chunk %v: %v", name, chunk, err)
			}
			detections += len(sr.Detected)
		}
		chunked := s.Report()
		for fi := range faults {
			if chunked.Status[fi] != oneShot.Status[fi] {
				t.Errorf("%s: fault %s: chunked status %v != one-shot %v",
					name, faults[fi].Describe(n), chunked.Status[fi], oneShot.Status[fi])
			}
			if chunked.DetectedBy[fi] != oneShot.DetectedBy[fi] {
				t.Errorf("%s: fault %s: chunked DetectedBy %d != one-shot %d",
					name, faults[fi].Describe(n), chunked.DetectedBy[fi], oneShot.DetectedBy[fi])
			}
		}
		if chunked.Coverage() != oneShot.Coverage() {
			t.Errorf("%s: coverage mismatch: chunked %+v != one-shot %+v",
				name, chunked.Coverage(), oneShot.Coverage())
		}
		if detections != oneShot.Coverage().Detected {
			t.Errorf("%s: per-call detections sum %d != total detected %d",
				name, detections, oneShot.Coverage().Detected)
		}
	}
}

// TestSessionAlarmsMatchFullPassOnRegistry pins a session's alarm
// outputs to the full-pass reference engine on every registry circuit:
// reading its last output, its last half and all of its outputs as
// alarms must give the same Status and DetectedBy. 300 patterns run one
// wide chunk and a word-block tail.
func TestSessionAlarmsMatchFullPassOnRegistry(t *testing.T) {
	for _, name := range circuits.Names() {
		n := combView(t, name)
		faults := fault.AllStuckAt(n)
		pats := faultsim.RandomPatterns(n, 300, 23)
		for _, alarms := range []int{1, len(n.Outputs) / 2, len(n.Outputs)} {
			s, err := faultsim.NewSessionWithAlarms(n, faults, alarms)
			if err != nil {
				t.Fatalf("%s: session with %d alarms: %v", name, alarms, err)
			}
			if _, err := s.Simulate(pats); err != nil {
				t.Fatalf("%s: %d alarms: %v", name, alarms, err)
			}
			got := s.Report()
			want, err := faultsim.RunFullWithAlarms(n, faults, pats, alarms)
			if err != nil {
				t.Fatalf("%s: full engine with %d alarms: %v", name, alarms, err)
			}
			for fi := range faults {
				if got.Status[fi] != want.Status[fi] || got.DetectedBy[fi] != want.DetectedBy[fi] {
					t.Errorf("%s: %d alarms: fault %s: session %v@%d != full %v@%d", name, alarms,
						faults[fi].Describe(n), got.Status[fi], got.DetectedBy[fi], want.Status[fi], want.DetectedBy[fi])
				}
			}
		}
	}
}

func TestConeEngineCostAdvantageOnLargestCircuit(t *testing.T) {
	largest := ""
	gates := 0
	for _, name := range circuits.Names() {
		if g := combView(t, name).NumGates(); g > gates {
			largest, gates = name, g
		}
	}
	n := combView(t, largest)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := faultsim.RandomPatterns(n, 128, 3)
	cone, err := faultsim.Run(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	full, err := faultsim.RunFull(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	if cone.GateEvals*2 > full.GateEvals {
		t.Errorf("%s (%d gates): cone engine must evaluate >=2x fewer gates: cone %d vs full %d (%.2fx)",
			largest, gates, cone.GateEvals, full.GateEvals,
			float64(full.GateEvals)/float64(cone.GateEvals))
	}
	t.Logf("%s (%d gates, %d faults): cone %d vs full %d gate evals (%.1fx fewer)",
		largest, gates, len(faults), cone.GateEvals, full.GateEvals,
		float64(full.GateEvals)/float64(cone.GateEvals))
}
