package faultsim

import (
	"testing"

	"rescue/internal/circuits"
	"rescue/internal/fault"
	"rescue/internal/logic"
)

func TestSessionDropsDetectedFaults(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	s, err := NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	if s.RemainingCount() != len(faults) {
		t.Fatalf("fresh session remaining = %d, want %d", s.RemainingCount(), len(faults))
	}
	pats := RandomPatterns(n, 16, 4)
	sr, err := s.Simulate(pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Detected) == 0 {
		t.Fatal("16 random patterns must detect some c17 faults")
	}
	if s.RemainingCount() != len(faults)-len(sr.Detected) {
		t.Errorf("remaining = %d, want %d", s.RemainingCount(), len(faults)-len(sr.Detected))
	}
	for _, fi := range sr.Detected {
		if s.StatusOf(fi) != fault.Detected {
			t.Errorf("fault %d reported detected but status %v", fi, s.StatusOf(fi))
		}
		if s.DetectedBy(fi) < 0 || s.DetectedBy(fi) >= len(pats) {
			t.Errorf("fault %d DetectedBy %d out of range", fi, s.DetectedBy(fi))
		}
	}
	for _, fi := range s.Remaining() {
		if s.StatusOf(fi) == fault.Detected {
			t.Errorf("fault %d in Remaining but detected", fi)
		}
	}
	// A second call over the same patterns must detect nothing new: every
	// detected fault was dropped, and the rest cannot be caught by
	// patterns that already missed them.
	sr2, err := s.Simulate(pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr2.Detected) != 0 {
		t.Errorf("re-simulating identical patterns detected %d new faults", len(sr2.Detected))
	}
	// Dropped faults cost nothing: the second pass charges only the good
	// passes plus cones of the remaining faults.
	if sr2.GateEvals >= sr.GateEvals && s.RemainingCount() < len(faults)/2 {
		t.Errorf("dropping saved nothing: second pass %d evals vs first %d", sr2.GateEvals, sr.GateEvals)
	}
}

func TestSessionDetectedByIsGlobalAcrossCalls(t *testing.T) {
	n := circuits.RippleCarryAdder(8)
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	pats := RandomPatterns(n, 96, 11)
	one, err := Run(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(pats[:50]); err != nil {
		t.Fatal(err)
	}
	if s.PatternsSimulated() != 50 {
		t.Errorf("PatternsSimulated = %d, want 50", s.PatternsSimulated())
	}
	if _, err := s.Simulate(pats[50:]); err != nil {
		t.Fatal(err)
	}
	for fi := range faults {
		if got, want := s.DetectedBy(fi), one.DetectedBy[fi]; got != want {
			t.Errorf("fault %d: chunked DetectedBy %d != one-shot %d", fi, got, want)
		}
	}
}

func TestSessionResetRestoresUndetectedSet(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	s, err := NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	pats := RandomPatterns(n, 32, 9)
	if _, err := s.Simulate(pats); err != nil {
		t.Fatal(err)
	}
	evalsBefore := s.GateEvals()
	s.Reset()
	if s.RemainingCount() != len(faults) || s.PatternsSimulated() != 0 {
		t.Fatalf("Reset left remaining=%d patterns=%d", s.RemainingCount(), s.PatternsSimulated())
	}
	for fi := range faults {
		if s.StatusOf(fi) != fault.NotSimulated || s.DetectedBy(fi) != -1 {
			t.Fatalf("Reset left fault %d at %v/%d", fi, s.StatusOf(fi), s.DetectedBy(fi))
		}
	}
	if s.GateEvals() != evalsBefore {
		t.Errorf("Reset must preserve lifetime GateEvals: %d != %d", s.GateEvals(), evalsBefore)
	}
	// Post-reset simulation matches a fresh Run (same warm machines).
	if _, err := s.Simulate(pats); err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(n, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range faults {
		if s.StatusOf(fi) != fresh.Status[fi] {
			t.Errorf("fault %d: post-reset status %v != fresh %v", fi, s.StatusOf(fi), fresh.Status[fi])
		}
	}
}

func TestSessionSkipsNonStuckAtFaults(t *testing.T) {
	n := circuits.C17()
	mixed := fault.List{
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: -1, Value: logic.Zero},
		{Kind: fault.SET, Gate: n.Outputs[0], Pin: -1},
		{Kind: fault.StuckAt, Gate: n.Outputs[0], Pin: -1, Value: logic.One},
	}
	s, err := NewSession(n, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if s.RemainingCount() != 2 {
		t.Fatalf("remaining = %d, want 2 (SET excluded)", s.RemainingCount())
	}
	if _, err := s.Simulate(RandomPatterns(n, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if s.StatusOf(1) != fault.NotSimulated {
		t.Errorf("SET fault status = %v, want not-simulated", s.StatusOf(1))
	}
	for _, fi := range s.Remaining() {
		if fi == 1 {
			t.Error("SET fault must never appear in Remaining")
		}
	}
}

func TestSessionExcludeStopsPayingForFault(t *testing.T) {
	n := circuits.C17()
	faults := fault.Collapse(n, fault.AllStuckAt(n))
	s, err := NewSession(n, faults)
	if err != nil {
		t.Fatal(err)
	}
	s.Exclude(0)
	s.Exclude(0) // idempotent
	if s.RemainingCount() != len(faults)-1 {
		t.Fatalf("remaining = %d after exclude, want %d", s.RemainingCount(), len(faults)-1)
	}
	pats := RandomPatterns(n, 16, 4)
	if _, err := s.Simulate(pats); err != nil {
		t.Fatal(err)
	}
	if s.StatusOf(0) != fault.NotSimulated {
		t.Errorf("excluded fault status = %v, want not-simulated", s.StatusOf(0))
	}
	for _, fi := range s.Remaining() {
		if fi == 0 {
			t.Error("excluded fault must not appear in Remaining")
		}
	}
	// Reset restores excluded faults.
	s.Reset()
	if s.RemainingCount() != len(faults) {
		t.Errorf("Reset did not restore excluded fault: remaining %d", s.RemainingCount())
	}
}

func TestSessionRejectsSequentialAndBadSites(t *testing.T) {
	if _, err := NewSession(circuits.S27(), nil); err == nil {
		t.Error("NewSession must reject sequential circuits")
	}
	n := circuits.C17()
	bad := fault.List{{Kind: fault.StuckAt, Gate: n.NumGates() + 3, Pin: -1, Value: logic.One}}
	if _, err := NewSession(n, bad); err == nil {
		t.Error("NewSession must reject out-of-range fault sites")
	}
}

// TestSessionRejectsBadAlarmCount checks that an alarm count outside
// 0..len(Outputs) is an error, not an index panic in the cone passes.
func TestSessionRejectsBadAlarmCount(t *testing.T) {
	n := circuits.C17()
	faults := fault.AllStuckAt(n)
	for _, alarms := range []int{-1, len(n.Outputs) + 1} {
		if _, err := NewSessionWithAlarms(n, faults, alarms); err == nil {
			t.Errorf("NewSessionWithAlarms(c17, %d alarms) must error", alarms)
		}
	}
}
