package admin

import (
	"net/http"
	"testing"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/sim"
)

// TestAdminWhyEndpoint serves a system whose attached why-late engine
// has attributed a late chain.
func TestAdminWhyEndpoint(t *testing.T) {
	a := causal.Analyze([]obs.Record{
		{ID: 9, Stage: obs.StageTxStart, At: 0, Node: 5, Subject: 0x42, Attempt: 1},
		{ID: 1, Stage: obs.StagePublished, At: 10, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 10, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 9, Stage: obs.StageTxOK, At: 200_000, Node: 5, Subject: 0x42},
		{ID: 1, Stage: obs.StageTxStart, At: 200_000, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxOK, At: 300_000, Node: 0, Subject: 0x300},
		{ID: 1, Stage: obs.StageRx, At: 300_000, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 300_000, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}, causal.Config{LateOver: map[string]sim.Duration{"SRT": 100_000}})

	sys, err := core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1, Observe: &obs.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	sys.K.Run(300_000)
	sys.Obs.AttachCausal(a)

	kernelCalls := 0
	s, err := Serve("127.0.0.1:0", Host{
		Segment: "why",
		Sys:     sys,
		InKernel: func(fn func()) {
			kernelCalls++
			fn()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var view WhyView
	if code := getJSON(t, "http://"+s.Addr()+"/why", &view); code != http.StatusOK {
		t.Fatalf("/why code %d", code)
	}
	if !view.Enabled || view.VirtualNow != 300_000 {
		t.Fatalf("/why = %+v", view)
	}
	if kernelCalls == 0 {
		t.Fatal("/why snapshot did not go through InKernel")
	}
	if view.Chains != 1 || len(view.Classes) != 1 {
		t.Fatalf("/why chains=%d classes=%d, want 1/1", view.Chains, len(view.Classes))
	}
	cp := view.Classes[0]
	if cp.Class != "SRT" || cp.Late != 1 || cp.Top != causal.CauseArbInterference {
		t.Fatalf("class profile = %+v", cp)
	}
	if len(view.Recent) != 1 || view.Recent[0].Top != causal.CauseArbInterference {
		t.Fatalf("recent = %+v", view.Recent)
	}
}
