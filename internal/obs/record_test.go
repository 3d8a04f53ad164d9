package obs

import (
	"fmt"
	"strings"
	"testing"

	"canec/internal/sim"
)

// TestDetailsMatchSprintf: the typed details render exactly what the
// Sprintf calls they replaced rendered, for every priority and promotion
// pair, and read back to the same typed value.
func TestDetailsMatchSprintf(t *testing.T) {
	check := func(d Detail, want string) {
		t.Helper()
		if got := d.String(); got != want {
			t.Fatalf("%#x renders %q, want %q", uint64(d), got, want)
		}
		if back := parsed(want); back != d {
			t.Fatalf("%q reads back as %#x, want %#x", want, uint64(back), uint64(d))
		}
	}
	for from := 0; from < 256; from++ {
		check(PrioDetail(from), fmt.Sprintf("prio %d", from))
		for to := 0; to < 256; to += 17 {
			check(Promotion(from, to), fmt.Sprintf("prio %d->%d", from, to))
		}
	}
	for _, n := range []int{0, 1, 7, 1 << 20} {
		check(Fragments(n), fmt.Sprintf("%d fragment(s)", n))
	}
	check(errorsDetail(256, 3), "tec=256 rec=3")
	check(MissedRound(4, 1<<30), "publisher 4 round 1073741824")
	for _, b := range []sim.Duration{0, 9500 * sim.Microsecond, 3 * sim.Second, 1234567} {
		check(RelayHop(2, b), fmt.Sprintf("hop 2 budget %v", b-b%sim.Microsecond))
		check(RelayFrom("seg-a", 1, b), fmt.Sprintf("from seg-a hop 1 budget %v", b-b%sim.Microsecond))
	}
	for i, want := range fixedDetails {
		check(Detail(detailFixed)|Detail(i+1)<<8, want)
	}
	if DetailBindingAgent.String() != "binding agent" || DetailRelayed.String() != "relayed" {
		t.Fatalf("fixed details out of order: %q, %q", DetailBindingAgent, DetailRelayed)
	}
}

// TestDetailOutOfRangeFallsBackToText: values the packed form cannot hold
// are interned as their rendering, so nothing is lost.
func TestDetailOutOfRangeFallsBackToText(t *testing.T) {
	for d, want := range map[Detail]string{
		MissedRound(1, 1<<40):        "publisher 1 round 1099511627776",
		PrioDetail(1 << 24):          "prio 16777216",
		RelayHop(1, 3600*sim.Second): "hop 1 budget 3600.000000s",
		RelayFrom("far", 300, 0):     "from far hop 300 budget 0.000000s",
		Text("residual value 0.25"):  "residual value 0.25",
		parsed("prio 9->x"):          "prio 9->x",
		parsed("hop 1 budget -1s"):   "hop 1 budget -1s",
	} {
		if d.kind() != detailText {
			t.Errorf("%q is not a text detail", want)
		}
		if got := d.String(); got != want {
			t.Errorf("detail renders %q, want %q", got, want)
		}
	}
	if Text("") != 0 || parsed("") != 0 {
		t.Fatal("empty text is not the empty detail")
	}
	if a, b := Text("peer 10.0.0.1:5000"), Text("peer 10.0.0.1:5000"); a != b {
		t.Fatal("the text table does not deduplicate")
	}
}

// TestReadJSONLTolerance: meta lines are skipped, an unknown stage name
// reads as StageUnknown and untyped detail text round-trips through the
// text table.
func TestReadJSONLTolerance(t *testing.T) {
	in := `{"stage":"_schema","at":0,"node":-1,"prio":-1,"detail":"canec-trace/1"}
{"stage":"_index","at":0,"node":-1}
{"id":3,"stage":"quantum_tunnel","at":5,"node":2,"detail":"from the future"}
{"id":3,"stage":"delivered","at":9,"node":1,"class":"SRT","detail":"prio 4"}
`
	info, err := ReadJSONLInfo(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema != traceSchema || len(info.Records) != 2 {
		t.Fatalf("schema %q, %d records", info.Schema, len(info.Records))
	}
	if r := info.Records[0]; r.Stage != StageUnknown || r.Detail.String() != "from the future" {
		t.Fatalf("unknown stage read as %+v", r)
	}
	if r := info.Records[1]; r.Class != ClassSRT || r.Detail != PrioDetail(4) {
		t.Fatalf("typed line read as %+v", r)
	}
	for _, bad := range []string{`{"stage":"rx","at":1,"node":0,"class":"XRT"}`,
		`{"stage":"rx","at":1,"node":0,"band":"lo"}`} {
		if _, err := ReadJSONLInfo(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

// TestCounterTableKeepsFirstUseOrder: the (stage, class) table takes each
// child on first use and reuses it, so the exposition lists children in
// the order the records first arrived.
func TestCounterTableKeepsFirstUseOrder(t *testing.T) {
	o := New(Config{Metrics: true}, func() sim.Time { return 1 }, testBandMap())
	for i := 0; i < 3; i++ {
		o.Emit(1, StagePublished, ClassNRT, 0, 1, 0, 0)
		o.Emit(2, StagePublished, ClassHRT, 0, 2, 0, 0)
		o.Emit(3, StageDropped, ClassSRT, 0, 3, 0, DetailTxAbandoned)
		o.Emit(4, StageEnqueued, ClassSRT, 0, 3, 0, 0)
	}
	out := expose(t, o.Registry())
	nrt := strings.Index(out, `canec_events_published_total{class="NRT"} 3`)
	hrt := strings.Index(out, `canec_events_published_total{class="HRT"} 3`)
	if nrt < 0 || hrt < nrt || !strings.Contains(out, `canec_events_dropped_total{reason="tx_abandoned"} 3`) {
		t.Fatalf("exposition:\n%s", out)
	}
}

// TestStageNames pins the JSONL name of every stage constant.
func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageUnknown:         "unknown",
		StagePublished:       "published",
		StageEnqueued:        "enqueued",
		StagePromoted:        "promoted",
		StageArbWon:          "arb_won",
		StageArbLost:         "arb_lost",
		StageTxStart:         "tx_start",
		StageTxOK:            "tx_ok",
		StageTxErr:           "tx_err",
		StageTxAbort:         "tx_abort",
		StageRx:              "rx",
		StageDelivered:       "delivered",
		StageDropped:         "dropped",
		StageExpired:         "expired",
		StageShed:            "shed",
		StageMissed:          "slot_missed",
		StageGuardMuted:      "guard_muted",
		StageGuardIsolated:   "guard_isolated",
		StageErrorPassive:    "error_passive",
		StageErrorActive:     "error_active",
		StageBusOff:          "bus_off",
		StageBusOffRecovered: "bus_off_recovered",
		StageNodeDown:        "node_down",
		StageNodeRestart:     "node_restart",
		StageNodeUp:          "node_up",
		StageAgentTakeover:   "agent_takeover",
		StageMasterTakeover:  "master_takeover",
		StageHoldoverEnter:   "holdover_enter",
		StageHoldoverExit:    "holdover_exit",
		StageRelayTx:         "relay_tx",
		StageRelayRx:         "relay_rx",
		StageRelayDrop:       "relay_drop",
		StageRelayLate:       "relay_late",
		StageRelayUp:         "relay_up",
		StageRelayDown:       "relay_down",
		StageRelayRedial:     "relay_redial",
		StageAdmitted:        "admitted",
		StageAdmitRejected:   "admit_rejected",
		StageAdmitShed:       "admit_shed",
		StageSLOBreach:       "slo_breach",
		StageCtrlSample:      "ctrl_sample",
		StageCtrlCommand:     "ctrl_command",
		StageCtrlApply:       "ctrl_apply",
		StageCtrlStale:       "ctrl_stale",
		StageSchema:          "_schema",
		StageMeta:            "_meta",
	}
	if len(want) != int(numStages) {
		t.Fatalf("%d stages pinned, %d declared", len(want), numStages)
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("stage %d is named %q, want %q", s, got, name)
		}
	}
}

// parsed reads a detail the way ReadJSONL does.
func parsed(s string) Detail {
	d, err := parseDetail(s)
	if err != nil {
		panic(err)
	}
	return d
}
