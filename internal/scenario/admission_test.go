package scenario

import (
	"strings"
	"testing"

	"canec/internal/chaos"
)

// admissionScenario loads the committed over-admission demo: three SRT
// channels on one publisher where the third's deadline cannot carry the
// admitted interference under the planned error model.
func admissionScenario(t *testing.T) *Scenario {
	t.Helper()
	return committedScenario(t, "../../testdata/scenario-admission.json", "")
}

// TestAdmissionScenarioCleanRun: on a clean bus the schedulable channels
// are admitted, the overcommitted one is rejected at announce with the
// typed miss-probability reason, nothing is shed, and the admitted
// channels miss no deadlines.
func TestAdmissionScenarioCleanRun(t *testing.T) {
	rep, err := admissionScenario(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Admission
	if a == nil || !a.Enabled {
		t.Fatal("no admission snapshot")
	}
	if a.AdmittedTotal != 3 || a.RejectedTotal != 1 || a.ShedTotal != 0 {
		t.Fatalf("admitted/rejected/shed = %d/%d/%d", a.AdmittedTotal, a.RejectedTotal, a.ShedTotal)
	}
	if a.Rejected["miss-probability"] != 1 {
		t.Fatalf("rejections by reason: %v", a.Rejected)
	}
	if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0], "srt 0x382: miss-probability") {
		t.Fatalf("rejected lines: %v", rep.Rejected)
	}
	if rep.Counters.DeadlineMissed != 0 {
		t.Fatalf("admitted channels missed %d deadlines on a clean bus", rep.Counters.DeadlineMissed)
	}
	if a.PredictedMissSRT <= 0 || a.PredictedMissSRT > 0.02 {
		t.Fatalf("predicted SRT miss %v outside (0, target]", a.PredictedMissSRT)
	}
	out := rep.String()
	for _, want := range []string{
		"admission: 3 admitted, 1 rejected, 0 shed",
		"rejections by reason: miss-probability ×1",
		"admission: rejected srt 0x382",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAdmissionScenarioChaosShed is the chaos invariant: under the
// bit-error ramp the error-passive transition raises the measured rate,
// the marginal channel is shed (typed, not silent), the surviving
// admitted SRT channels keep the target miss probability, and HRT is
// unaffected.
func TestAdmissionScenarioChaosShed(t *testing.T) {
	s := admissionScenario(t)
	s.Chaos = &chaos.Script{Events: []chaos.Event{
		{Kind: "bit_error", AtMS: 100, UntilMS: 900, Node: 1, Rate: 0.4},
	}}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Admission
	if a == nil {
		t.Fatal("no admission snapshot")
	}
	if a.ShedTotal != 1 {
		t.Fatalf("shed = %d, want 1 (marginal channel under the ramp)", a.ShedTotal)
	}
	if a.MeasuredRate <= 0.02 {
		t.Fatalf("measured rate %v never exceeded the plan", a.MeasuredRate)
	}
	if rep.Counters.AdmissionShed != 1 {
		t.Fatalf("AdmissionShed counter = %d", rep.Counters.AdmissionShed)
	}
	// Surviving admitted channels keep the target.
	if d := rep.Counters.DeliveredSRT; d == 0 ||
		float64(rep.Counters.DeadlineMissed)/float64(d) > 0.02 {
		t.Fatalf("admitted SRT broke the miss target: %d missed of %d",
			rep.Counters.DeadlineMissed, rep.Counters.DeliveredSRT)
	}
	if rep.Counters.LateHRTDeliveries != 0 {
		t.Fatalf("HRT went late under the SRT error ramp: %+v", rep.Counters)
	}
	if len(rep.Chaos.Violations) != 0 {
		t.Fatalf("chaos invariants violated: %v", rep.Chaos.Violations)
	}
}

// TestAdmissionSpecValidation rejects malformed admission specs.
func TestAdmissionSpecValidation(t *testing.T) {
	for name, mut := range map[string]func(*Scenario){
		"zero-target":    func(s *Scenario) { s.Admission.SRTTarget = 0 },
		"target-above-1": func(s *Scenario) { s.Admission.SRTTarget = 1.5 },
		"bad-nrt-target": func(s *Scenario) { s.Admission.NRTTarget = -0.1 },
		"bad-error-rate": func(s *Scenario) { s.Admission.ErrorRate = 2 },
	} {
		s := admissionScenario(t)
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}
