package chaos

import (
	"reflect"
	"strings"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

const (
	subjSteer binding.Subject = 0x2001
	subjBrake binding.Subject = 0x2002
)

// channels maps each HRT subject to its publishing station, in a fixed
// order so announcements are deterministic.
var channels = []struct {
	subj  binding.Subject
	owner int
}{
	{subjSteer, 2},
	{subjBrake, 3},
}

// rig is the four-station system under chaos: station 0 hosts the binding
// agent and both subscribers, station 1 is the potential babbling idiot,
// stations 2 and 3 each publish one periodic HRT subject.
type rig struct {
	t         *testing.T
	sys       *core.System
	lc        *core.Lifecycle
	cal       *calendar.Calendar
	pubs      map[binding.Subject]*core.HRTEC
	delivered map[binding.Subject]int
	late      int
}

func newRig(t *testing.T, seed uint64) *rig {
	t.Helper()
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjSteer), Publisher: 2, Payload: 8, Periodic: true},
		calendar.Slot{Subject: uint64(subjBrake), Publisher: 3, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes:    4,
		Seed:     seed,
		Calendar: cal,
		Epoch:    1 * sim.Millisecond,
		Observe:  obs.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		t: t, sys: sys, cal: cal,
		lc:        core.NewLifecycle(sys),
		pubs:      make(map[binding.Subject]*core.HRTEC),
		delivered: make(map[binding.Subject]int),
	}
	for _, c := range channels {
		r.announce(c.subj, sys.Node(c.owner).MW)
	}
	r.lc.OnRestart = func(n int, mw *core.Middleware) {
		for _, c := range channels {
			if c.owner == n {
				r.announce(c.subj, mw)
			}
		}
	}
	for _, c := range channels {
		subj := c.subj
		sub, err := sys.Node(0).MW.HRTEC(subj)
		if err != nil {
			t.Fatal(err)
		}
		sub.Subscribe(core.ChannelAttrs{Payload: 7, Periodic: true}, core.SubscribeAttrs{},
			func(ev core.Event, di core.DeliveryInfo) {
				r.delivered[subj]++
				if di.Late {
					r.late++
				}
			}, nil)
	}
	return r
}

func (r *rig) announce(subj binding.Subject, mw *core.Middleware) {
	c, err := mw.HRTEC(subj)
	if err != nil {
		r.t.Fatalf("HRTEC(%#x): %v", uint64(subj), err)
	}
	if err := c.Announce(core.ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		r.t.Fatalf("Announce(%#x): %v", uint64(subj), err)
	}
	r.pubs[subj] = c
}

// drive schedules one publish per subject per round, skipping stations that
// are down (the real application on a crashed node is dead too).
func (r *rig) drive(rounds int64) {
	for i := int64(0); i < rounds; i++ {
		i := i
		r.sys.K.At(r.sys.Cfg.Epoch+sim.Time(i)*r.cal.Round-100*sim.Microsecond, func() {
			for _, c := range channels {
				if !r.lc.Down(c.owner) {
					_ = r.pubs[c.subj].Publish(core.Event{Subject: c.subj, Payload: []byte{byte(i)}})
				}
			}
		})
	}
}

func (r *rig) missedSlots() int {
	n := 0
	for _, rec := range r.sys.Obs.Records() {
		if rec.Stage == obs.StageMissed {
			n++
		}
	}
	return n
}

// fullScript is the everything-at-once campaign: an error burst over the
// HRT slots of round 3, a crash/restart cycle of station 2 spanning rounds
// 6–10, an omission window over rounds 12–15, and a guarded babbling idiot
// over rounds 17–18.
func fullScript() Script {
	return Script{
		Guardian: true,
		Events: []Event{
			{Kind: "burst", AtMS: 31.1, UntilMS: 31.25},
			{Kind: "crash", AtMS: 52, Node: 2},
			{Kind: "restart", AtMS: 102, Node: 2},
			{Kind: "omission", AtMS: 121, UntilMS: 161, Rate: 0.3, VictimProb: 0.5},
			{Kind: "babble", AtMS: 171, UntilMS: 191, Node: 1},
		},
	}
}

const fullRounds = 25

func runFull(t *testing.T, seed uint64) (*rig, Report) {
	t.Helper()
	r := newRig(t, seed)
	c, err := NewCampaign(r.sys, r.lc, fullScript())
	if err != nil {
		t.Fatal(err)
	}
	r.drive(fullRounds)
	c.Install()
	r.sys.Run(r.sys.Cfg.Epoch + fullRounds*r.cal.Round)
	rep := c.Finish(0)
	for _, e := range c.Errors {
		t.Errorf("campaign event failed: %v", e)
	}
	return r, rep
}

// TestCampaignFullScript runs the combined crash/restart + burst + omission
// + babble campaign with the guardian armed and asserts every invariant
// checker passes on the trace.
func TestCampaignFullScript(t *testing.T) {
	r, rep := runFull(t, 1)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %v", v)
	}
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", rep.Crashes, rep.Restarts)
	}
	// The guardian muted the babbler before any babble frame hit the wire.
	if rep.GuardianMuted == 0 || rep.BabbleMuted == 0 || rep.BabbleSent != 0 {
		t.Fatalf("guardian muted=%d babble muted=%d sent=%d, want >0/>0/0",
			rep.GuardianMuted, rep.BabbleMuted, rep.BabbleSent)
	}
	// Station 3 never crashed: every round delivered. Station 2 lost the
	// outage rounds; the omission window may convert a couple of deliveries
	// into clean SlotMissed exceptions.
	if r.delivered[subjBrake] < fullRounds-2 {
		t.Fatalf("brake deliveries = %d, want ≥ %d", r.delivered[subjBrake], fullRounds-2)
	}
	if got := r.delivered[subjSteer]; got < 15 || got > 20 {
		t.Fatalf("steer deliveries = %d, want 15..20 (outage loses ~5 rounds)", got)
	}
	if r.late != 0 {
		t.Fatalf("%d late HRT deliveries with the guardian armed", r.late)
	}
	var down, up bool
	for _, rec := range r.sys.Obs.Records() {
		if rec.Node == 2 {
			switch rec.Stage {
			case obs.StageNodeDown:
				down = true
			case obs.StageNodeUp:
				up = true
			}
		}
	}
	if !down || !up {
		t.Fatalf("lifecycle trace incomplete: down=%v up=%v", down, up)
	}
}

// TestCampaignDeterministicPerSeed asserts bit-identical traces and reports
// for two independent runs of the same script and seed.
func TestCampaignDeterministicPerSeed(t *testing.T) {
	r1, rep1 := runFull(t, 5)
	r2, rep2 := runFull(t, 5)
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("reports diverge:\n%+v\n%+v", rep1, rep2)
	}
	a, b := r1.sys.Obs.Records(), r2.sys.Obs.Records()
	if len(a) != len(b) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace record %d diverges:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestGuardianStopsBabblingIdiot is the paper's babbling-idiot argument as
// an executable experiment: without a bus guardian a single station
// transmitting at priority 0 outside the calendar breaks HRT deadlines;
// with the guardian armed the same campaign is harmless.
func TestGuardianStopsBabblingIdiot(t *testing.T) {
	babble := func(guardian bool) Script {
		return Script{
			Guardian: guardian,
			Events:   []Event{{Kind: "babble", AtMS: 151, UntilMS: 181, Node: 1}},
		}
	}
	run := func(guardian bool) (*rig, Report) {
		r := newRig(t, 3)
		c, err := NewCampaign(r.sys, r.lc, babble(guardian))
		if err != nil {
			t.Fatal(err)
		}
		r.drive(fullRounds)
		c.Install()
		r.sys.Run(r.sys.Cfg.Epoch + fullRounds*r.cal.Round)
		return r, c.Finish(0)
	}

	r, rep := run(false)
	if harm := r.late + r.missedSlots(); harm == 0 {
		t.Fatalf("unguarded babbler caused no HRT deadline violations (sent %d frames)", rep.BabbleSent)
	}
	if rep.BabbleSent == 0 {
		t.Fatal("unguarded babbler never reached the wire")
	}

	r, rep = run(true)
	if r.late != 0 || r.missedSlots() != 0 {
		t.Fatalf("guarded run still violated deadlines: late=%d missed=%d", r.late, r.missedSlots())
	}
	if rep.GuardianMuted == 0 || rep.BabbleSent != 0 {
		t.Fatalf("guardian muted=%d babble sent=%d, want >0/0", rep.GuardianMuted, rep.BabbleSent)
	}
	if r.delivered[subjSteer] != fullRounds || r.delivered[subjBrake] != fullRounds {
		t.Fatalf("guarded deliveries = %d/%d, want %d/%d",
			r.delivered[subjSteer], r.delivered[subjBrake], fullRounds, fullRounds)
	}
	for _, v := range rep.Violations {
		t.Errorf("guarded run violated invariant: %v", v)
	}
}

// TestChaosSmokeSeeds is the seed sweep wired into `make chaos-smoke`: the
// full campaign under several seeds, every checker green each time.
func TestChaosSmokeSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		_, rep := runFull(t, seed)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %v", seed, v)
		}
		if rep.Crashes != 1 || rep.Restarts != 1 {
			t.Errorf("seed %d: crashes/restarts = %d/%d", seed, rep.Crashes, rep.Restarts)
		}
	}
}

// TestScriptValidate pins the script-level error paths.
func TestScriptValidate(t *testing.T) {
	bad := []Script{
		{Events: []Event{{Kind: "meteor", AtMS: 1}}},
		{Events: []Event{{Kind: "crash", AtMS: 1, Node: 0}}},
		{Events: []Event{{Kind: "crash", AtMS: 1, Node: 9}}},
		{Events: []Event{{Kind: "restart", AtMS: 1, Node: 2}}},
		{Events: []Event{{Kind: "babble", AtMS: 5, UntilMS: 5, Node: 1}}},
		{Events: []Event{{Kind: "omission", AtMS: 1, UntilMS: 2, Rate: 1.5, VictimProb: 0.5}}},
		{Events: []Event{{Kind: "crash", AtMS: -1, Node: 2}}},
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Errorf("script %d validated, want error", i)
		}
	}
	if err := fullScript().Validate(4); err != nil {
		t.Errorf("full script rejected: %v", err)
	}
}

// TestViolationsInStationOrder: violations at one instant come out by
// check, then by station, whatever order the checkers' maps iterate in,
// so identical traces give identical reports; Validate names the
// lowest-numbered station a script restarts more often than it crashes.
func TestViolationsInStationOrder(t *testing.T) {
	at := func(ms int) sim.Time { return sim.Time(ms) * sim.Millisecond }
	var recs []obs.Record
	for _, n := range []int32{3, 1, 2} {
		// Stations 1-3 owned HRT slots, recover at 30 ms and never
		// transmit HRT again.
		recs = append(recs,
			obs.Record{At: at(1), Node: n, Stage: obs.StageTxOK, Band: obs.BandHRT},
			obs.Record{At: at(10), Node: n, Stage: obs.StageNodeDown},
			obs.Record{At: at(20), Node: n, Stage: obs.StageNodeRestart},
			obs.Record{At: at(30), Node: n, Stage: obs.StageNodeUp})
	}
	for _, n := range []int32{6, 4, 5} {
		// Stations 4-6 begin recovery at 30 ms and never come up.
		recs = append(recs,
			obs.Record{At: at(10), Node: n, Stage: obs.StageNodeDown},
			obs.Record{At: at(30), Node: n, Stage: obs.StageNodeRestart})
	}
	for _, n := range []int32{9, 7, 8} {
		// Stations 7-9 enter holdover at 30 ms and never leave it.
		recs = append(recs, obs.Record{At: at(30), Node: n, Stage: obs.StageHoldoverEnter})
	}
	recs = append(recs, obs.Record{At: at(1000), Node: 0, Stage: obs.StageTxOK})
	ctx := CheckContext{Records: recs, Round: sim.Millisecond,
		MasterWindow: 100 * sim.Millisecond, RestartWindow: 100 * sim.Millisecond}
	want := []string{
		"recovery-bound 1", "recovery-bound 2", "recovery-bound 3",
		"holdover-closed 7", "holdover-closed 8", "holdover-closed 9",
		"restart-completes 4", "restart-completes 5", "restart-completes 6",
	}
	script := Script{Events: []Event{
		{Kind: "restart", AtMS: 1, Node: 3}, {Kind: "restart", AtMS: 1, Node: 1}, {Kind: "restart", AtMS: 1, Node: 2},
	}}
	for run := 0; run < 20; run++ {
		var got []string
		for _, v := range checkAll(ctx) {
			if v.At != at(30) {
				t.Fatalf("unexpected violation %v", v)
			}
			got = append(got, v.Check+" "+strings.Fields(v.Detail)[1])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: violations in order\n%v\nwant\n%v", run, got, want)
		}
		err := script.Validate(4)
		if err == nil || !strings.Contains(err.Error(), "station 1 ") {
			t.Fatalf("run %d: Validate = %v, want it to name station 1", run, err)
		}
	}
}
