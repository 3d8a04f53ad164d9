package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"canec/internal/sim"
)

// stageSeries is the whole stage→counter table as seen from outside: the
// one sample line Emit(7, stage, "SRT", 1, 0x42, 10, "why") must add to
// the exposition, or "" for a record-only stage. Bus stages are
// record-only here because busEvent counts them from can.TraceEvents.
var stageSeries = map[Stage]string{
	StageUnknown:         "",
	StageSchema:          "",
	StageMeta:            "",
	StagePublished:       `canec_events_published_total{class="SRT"} 1`,
	StageEnqueued:        "",
	StagePromoted:        `canec_srt_promotions_total 1`,
	StageArbWon:          "",
	StageArbLost:         "",
	StageTxStart:         "",
	StageTxOK:            "",
	StageTxErr:           "",
	StageTxAbort:         "",
	StageRx:              "",
	StageDelivered:       `canec_events_delivered_total{class="SRT"} 1`,
	StageDropped:         `canec_events_dropped_total{reason="why"} 1`,
	StageExpired:         `canec_events_dropped_total{reason="expired"} 1`,
	StageShed:            `canec_events_dropped_total{reason="shed"} 1`,
	StageMissed:          "",
	StageGuardMuted:      "",
	StageGuardIsolated:   "",
	StageErrorPassive:    "",
	StageErrorActive:     "",
	StageBusOff:          "",
	StageBusOffRecovered: "",
	StageNodeDown:        `canec_node_lifecycle_total{event="node_down"} 1`,
	StageNodeRestart:     `canec_node_lifecycle_total{event="node_restart"} 1`,
	StageNodeUp:          `canec_node_lifecycle_total{event="node_up"} 1`,
	StageAgentTakeover:   `canec_control_plane_total{event="agent_takeover"} 1`,
	StageMasterTakeover:  `canec_control_plane_total{event="master_takeover"} 1`,
	StageHoldoverEnter:   `canec_control_plane_total{event="holdover_enter"} 1`,
	StageHoldoverExit:    `canec_control_plane_total{event="holdover_exit"} 1`,
	StageRelayTx:         `canec_relay_forwarded_total{class="SRT"} 1`,
	StageRelayRx:         "",
	StageRelayDrop:       `canec_relay_dropped_total{class="SRT",reason="why"} 1`,
	StageRelayLate:       `canec_relay_late_total{class="SRT",reason="why"} 1`,
	StageRelayUp:         `canec_relay_link_total{event="relay_up"} 1`,
	StageRelayDown:       `canec_relay_link_total{event="relay_down"} 1`,
	StageRelayRedial:     `canec_relay_link_total{event="relay_redial"} 1`,
	StageAdmitted:        "",
	StageAdmitRejected:   "",
	StageAdmitShed:       "",
	StageSLOBreach:       "",
	StageCtrlSample:      `canec_control_loop_stages_total{loop="why",stage="ctrl_sample"} 1`,
	StageCtrlCommand:     `canec_control_loop_stages_total{loop="why",stage="ctrl_command"} 1`,
	StageCtrlApply:       `canec_control_loop_stages_total{loop="why",stage="ctrl_apply"} 1`,
	StageCtrlStale:       `canec_control_stale_ticks_total{loop="why"} 1`,
}

// declaredStages lists the Stage constants of tracer.go, all but the
// numStages count, from its syntax (a spec without a type continues the
// Stage block), so the table above cannot fall behind the declaration.
func declaredStages(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "tracer.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		stage := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil {
				id, ok := vs.Type.(*ast.Ident)
				stage = ok && id.Name == "Stage"
			}
			for _, name := range vs.Names {
				if stage && name.Name != "numStages" {
					names = append(names, name.Name)
				}
			}
		}
	}
	return names
}

// TestEmitStageTable drives Emit with every Stage constant and pins the
// exact family and label delta, including "no family" for record-only
// stages: a stage added to tracer.go fails here until it is entered in
// stageSeries, so it cannot be silently uncounted.
func TestEmitStageTable(t *testing.T) {
	if declared := declaredStages(t); len(declared) != len(stageSeries) {
		t.Fatalf("tracer.go declares %d stages %v, stageSeries covers %d",
			len(declared), declared, len(stageSeries))
	}
	now := func() sim.Time { return 10 }
	baseline := expose(t, New(Config{Metrics: true}, now, testBandMap()).Registry())
	for stage, want := range stageSeries {
		o := New(Config{Trace: true, Metrics: true}, now, testBandMap())
		o.Emit(7, stage, ClassSRT, 1, 0x42, 10, Text("why"))

		recs := o.Records()
		if len(recs) != 1 || recs[0] != (Record{ID: 7, Stage: stage, At: 10, Node: 1,
			Class: ClassSRT, Subject: 0x42, Prio: -1, Detail: Text("why")}) {
			t.Errorf("%s: records = %+v", stage, recs)
		}

		var added []string
		for _, line := range strings.Split(expose(t, o.Registry()), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(baseline, line+"\n") {
				added = append(added, line)
			}
		}
		switch {
		case want == "" && len(added) != 0:
			t.Errorf("%s is record-only but added %q", stage, added)
		case want != "" && (len(added) != 1 || added[0] != want):
			t.Errorf("%s added %q, want exactly %q", stage, added, want)
		}
	}
	// An empty drop detail is counted under the generic reason.
	o := New(Config{Metrics: true}, now, testBandMap())
	o.Emit(7, StageDropped, ClassSRT, 1, 0x42, 10, 0)
	if out := expose(t, o.Registry()); !strings.Contains(out, `canec_events_dropped_total{reason="dropped"} 1`) {
		t.Errorf("empty drop reason not counted as \"dropped\":\n%s", out)
	}
}
