package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/prob"
	"canec/internal/sim"
)

// admissionAdmin builds a system with the probabilistic admission
// controller, drives one admitted and one rejected announce, and serves
// the result on an admin plane.
func admissionAdmin(t *testing.T) *admin.Server {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 2, Seed: 1,
		Observe: &obs.Config{Metrics: true},
		Admission: &prob.AdmissionConfig{
			Targets:  prob.ClassTargets{SRT: 0.05},
			Analyzer: prob.Analyzer{Model: prob.ErrorModel{ErrorRate: 0.1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := sys.Node(0).MW.SRTEC(0x61)
	if err := ok.Announce(core.ChannelAttrs{Period: 5 * sim.Millisecond,
		RelDeadline: 3 * sim.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	tight, _ := sys.Node(1).MW.SRTEC(0x62)
	if err := tight.Announce(core.ChannelAttrs{Period: 5 * sim.Millisecond,
		RelDeadline: 100 * sim.Microsecond}, nil); err == nil {
		t.Fatal("tight channel unexpectedly admitted")
	}
	sys.Run(10 * sim.Millisecond)

	return serve(t, "admit", sys)
}

// TestAdmissionColumnAndExposition is the golden path for the admission
// observability series: canec_admission_total must survive the strict
// Prometheus exposition check, /admission must carry the controller
// snapshot, and the fleet table must render the decision totals in the
// ADMIT column.
func TestAdmissionColumnAndExposition(t *testing.T) {
	srv := admissionAdmin(t)
	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, true)
	if len(targets) != 1 || targets[0].err != nil {
		t.Fatalf("poll: %+v", targets)
	}
	tg := targets[0]
	if tg.promErr != nil {
		t.Fatalf("admission metrics break exposition: %v", tg.promErr)
	}
	if !tg.admission.Enabled {
		t.Fatal("/admission snapshot not enabled")
	}
	if tg.admission.AdmittedTotal != 1 || tg.admission.RejectedTotal != 1 {
		t.Fatalf("admission totals: %+v", tg.admission.Snapshot)
	}
	if tg.admission.Rejected["miss-probability"] != 1 {
		t.Fatalf("typed rejection counts: %+v", tg.admission.Rejected)
	}
	if len(tg.admission.Admitted) != 1 || tg.admission.Admitted[0].MissProb <= 0 {
		t.Fatalf("admitted rows: %+v", tg.admission.Admitted)
	}

	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE canec_admission_total") {
		t.Fatalf("exposition missing canec_admission_total:\n%s", text)
	}
	for _, sample := range []string{
		`canec_admission_total{class="SRT",decision="admitted",reason="none"} 1`,
		`canec_admission_total{class="SRT",decision="rejected",reason="miss-probability"} 1`,
	} {
		if !strings.Contains(text, sample) {
			t.Fatalf("exposition missing sample %q:\n%s", sample, text)
		}
	}

	var b strings.Builder
	render(&b, targets)
	out := b.String()
	if !strings.Contains(out, "ADMIT") {
		t.Fatalf("header missing ADMIT column:\n%s", out)
	}
	if !strings.Contains(out, "1/1/0") {
		t.Fatalf("ADMIT column not rendered from snapshot totals:\n%s", out)
	}
}

// TestAdmissionColumnQuiet: a daemon with no admission controller still
// renders a full row with a dashed ADMIT column.
func TestAdmissionColumnQuiet(t *testing.T) {
	srv := serve(t, "plain", plainSystem(t))
	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, false)
	if len(targets) != 1 || targets[0].err != nil {
		t.Fatalf("poll: %+v", targets)
	}
	if targets[0].admission.Enabled {
		t.Fatal("admission reported enabled without a controller")
	}
	var b strings.Builder
	render(&b, targets)
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "plain") && !strings.Contains(line, "-") {
			t.Fatalf("quiet row missing dashed ADMIT column:\n%s", line)
		}
	}
}
