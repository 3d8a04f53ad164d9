package scenario

import (
	"testing"

	"canec/internal/chaos"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// TestSRTStreamAcrossCrashRestart: an SRT publisher is silent while its
// station is down, and after the restart it publishes on the handle the
// restart re-announced, so its subscriber hears it again.
func TestSRTStreamAcrossCrashRestart(t *testing.T) {
	const subj = 0x200
	s := &Scenario{
		Name: "srt-restart", Nodes: 4, Seed: 1, DurationMs: 500,
		SRT: []SRTStream{{Subject: subj, Publisher: 1, Subscriber: 2,
			MeanPeriodUs: 2000, DeadlineUs: 10000, Payload: 8}},
		// The streams start at the epoch (300 ms); node 1 is down from
		// 400 to 450 ms and up again once re-synced.
		Chaos: &chaos.Script{Events: []chaos.Event{
			{Kind: "crash", AtMS: 400, Node: 1},
			{Kind: "restart", AtMS: 450, Node: 1},
		}},
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chaos.Crashes != 1 || rep.Chaos.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", rep.Chaos.Crashes, rep.Chaos.Restarts)
	}
	recs := rep.Obs.Records()
	down, restart := sim.Time(-1), sim.Time(-1)
	for _, r := range recs {
		switch {
		case r.Stage == obs.StageNodeDown && r.Node == 1:
			down = r.At
		case r.Stage == obs.StageNodeRestart && r.Node == 1:
			restart = r.At
		}
	}
	if down < 0 || restart <= down {
		t.Fatalf("node 1 down at %v, restart at %v", down, restart)
	}
	before, after := 0, 0
	for _, r := range recs {
		switch {
		case r.Stage == obs.StagePublished && r.Node == 1 && r.At >= down && r.At < restart:
			t.Errorf("published at %v while node 1 was down [%v, %v)", r.At, down, restart)
		case r.Stage == obs.StageDelivered && r.Node == 2 && r.Subject == subj && r.At < down:
			before++
		case r.Stage == obs.StageDelivered && r.Node == 2 && r.Subject == subj && r.At > restart:
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("deliveries on node 2: %d before the crash, %d after the restart, want both > 0", before, after)
	}
}

// TestSRTPubSilentWhileDown pins SRTPub's lifecycle gate: the loop does
// not publish while its station is down, so Sent stays put from the crash
// to the restart and grows again after it. A crashed station's handle
// refuses publishes without a trace record, so the loop's own counter is
// what shows the gate.
func TestSRTPubSilentWhileDown(t *testing.T) {
	const subj = 0x200
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lc := core.NewLifecycle(sys)
	ch, err := Announce(sys.Node(1).MW, core.SRT, subj, core.ChannelAttrs{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	epoch := sys.Cfg.Epoch
	end := epoch + 300*sim.Millisecond
	f := (&SRTPub{Sys: sys, Node: 1, Subject: subj, Ch: ch, Gap: 2 * sim.Millisecond,
		Deadline: 10 * sim.Millisecond, End: end, Lifecycle: lc,
		Payload: func(sim.Time) []byte { return make([]byte, 8) }}).Start(epoch)
	// Crash and restart fall between two publish instants.
	atCrash, atRestart := -1, -1
	sys.K.At(epoch+101*sim.Millisecond, func() {
		if err := lc.Crash(1); err != nil {
			t.Error(err)
		}
		atCrash = f.Sent
	})
	sys.K.At(epoch+151*sim.Millisecond, func() {
		atRestart = f.Sent
		if err := lc.Restart(1); err != nil {
			t.Error(err)
		}
	})
	sys.Run(end)
	if atCrash <= 0 || atRestart != atCrash || f.Sent <= atRestart {
		t.Fatalf("Sent %d at the crash, %d at the restart, %d at the end; want > 0, unchanged while down, then growing",
			atCrash, atRestart, f.Sent)
	}
}
