package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/sim"
)

// whyExpositionGolden is a hand-written canec_why_* exposition in strict
// Prometheus text 0.0.4 — the contract the why-late engine's registry
// output must satisfy. ValidateExposition accepting this pins the
// validator's coverage of the new families.
const whyExpositionGolden = `# HELP canec_why_chains_total Cause-attributed event chains finished by the why-late engine, by class and outcome.
# TYPE canec_why_chains_total counter
canec_why_chains_total{class="SRT",outcome="delivered"} 40
canec_why_chains_total{class="SRT",outcome="late"} 2
canec_why_chains_total{class="SRT",outcome="dropped"} 1
# HELP canec_why_debit_ns_total Latency attributed by the why-late engine, by class and cause, in virtual nanoseconds.
# TYPE canec_why_debit_ns_total counter
canec_why_debit_ns_total{class="SRT",cause="wire_tx"} 4.3e+06
canec_why_debit_ns_total{class="SRT",cause="error_retransmit"} 140000
# HELP canec_why_late_total Late or dropped chains by class and attributed top cause.
# TYPE canec_why_late_total counter
canec_why_late_total{class="SRT",cause="error_retransmit"} 2
canec_why_late_total{class="SRT",cause="busoff_recovery"} 1
# HELP canec_why_debit_microseconds Per-chain attributed debit by class and cause, in virtual microseconds (log buckets).
# TYPE canec_why_debit_microseconds histogram
canec_why_debit_microseconds_bucket{class="SRT",cause="error_retransmit",le="100"} 1
canec_why_debit_microseconds_bucket{class="SRT",cause="error_retransmit",le="+Inf"} 2
canec_why_debit_microseconds_sum{class="SRT",cause="error_retransmit"} 140
canec_why_debit_microseconds_count{class="SRT",cause="error_retransmit"} 2
`

func TestValidateExpositionWhyFamilies(t *testing.T) {
	if err := obs.ValidateExposition(strings.NewReader(whyExpositionGolden)); err != nil {
		t.Fatalf("golden canec_why_* exposition rejected: %v", err)
	}
	// The histogram-suffix rule must not leak: a why series without its
	// TYPE line stays illegal.
	bad := `canec_why_late_total{class="SRT",cause="error_retransmit"} 2` + "\n"
	if err := obs.ValidateExposition(strings.NewReader(bad)); err == nil {
		t.Fatal("orphan canec_why_late_total accepted")
	}
}

// TestFleetTableTopCause polls a daemon running the why-late engine: the
// live /metrics exposition must validate strictly, and the fleet table
// must carry the attributed top cause in the TOPCAUSE column.
func TestFleetTableTopCause(t *testing.T) {
	sys := plainSystem(t)
	a := causal.New(causal.Config{Registry: sys.Obs.Registry(),
		LateOver: map[string]sim.Duration{"SRT": 100_000}})
	sys.Obs.AttachCausal(a)
	for _, r := range []obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 10_000, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxErr, At: 50_000, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxStart, At: 80_000, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageTxOK, At: 180_000, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageRx, At: 180_000, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 190_000, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	} {
		a.Add(r)
	}
	srv := serve(t, "why", sys)

	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, true)
	tg := targets[0]
	if tg.err != nil {
		t.Fatalf("poll: %v", tg.err)
	}
	if tg.promErr != nil {
		t.Fatalf("live canec_why_* exposition invalid: %v", tg.promErr)
	}
	if !tg.why.Enabled {
		t.Fatal("/why not surfaced")
	}
	var b strings.Builder
	render(&b, targets)
	out := b.String()
	if !strings.Contains(out, "TOPCAUSE") {
		t.Fatalf("header missing TOPCAUSE:\n%s", out)
	}
	if !strings.Contains(out, "error_retransmit×1") {
		t.Fatalf("row missing attributed top cause:\n%s", out)
	}
}
