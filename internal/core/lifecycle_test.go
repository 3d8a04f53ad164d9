package core

import (
	"slices"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/obs"
	"canec/internal/sim"
)

// crashCalendar reserves one periodic slot for subjTemp published by
// node 1 (node 0 hosts the binding agent and cannot crash).
func crashCalendar(t *testing.T) *calendar.Calendar {
	t.Helper()
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 1, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestLifecycleCrashRestartRecovery drives the full whole-node story on an
// ideal-clock system: crash mid-run, watchdog failure, restart with
// binding re-join and re-announcement, calendar re-entry at the current
// phase, watchdog back to alive, deliveries again at exact deadlines.
func TestLifecycleCrashRestartRecovery(t *testing.T) {
	cal := crashCalendar(t)
	sys, err := NewSystem(SystemConfig{
		Nodes:    3,
		Seed:     1,
		Calendar: cal,
		Epoch:    1 * sim.Millisecond,
		Observe:  obs.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLifecycle(sys)

	var pub *HRTEC
	announce := func(mw *Middleware) {
		c, err := mw.HRTEC(subjTemp)
		if err != nil {
			t.Fatalf("HRTEC: %v", err)
		}
		if err := c.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
			t.Fatalf("Announce: %v", err)
		}
		pub = c
	}
	announce(sys.Node(1).MW)
	lc.OnRestart = func(n int, mw *Middleware) {
		if n == 1 {
			announce(mw)
		}
	}

	sub, _ := sys.Node(2).MW.HRTEC(subjTemp)
	var rounds []int64
	var times []sim.Time
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(ev Event, di DeliveryInfo) {
			rounds = append(rounds, int64(ev.Payload[0]))
			times = append(times, di.DeliveredAt)
			if di.Late {
				t.Errorf("round %d delivered late", ev.Payload[0])
			}
		}, nil)
	var wdStates []NodeState
	sys.Node(2).MW.Watchdog(3, func(p can.TxNode, s NodeState, _ sim.Time) {
		if p == 1 {
			wdStates = append(wdStates, s)
		}
	})

	for r := int64(0); r < 20; r++ {
		r := r
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			if !lc.Down(1) {
				_ = pub.Publish(Event{Subject: subjTemp, Payload: []byte{byte(r)}})
			}
		})
	}
	sys.K.At(sys.Cfg.Epoch+5*cal.Round+sim.Time(1*sim.Millisecond), func() {
		if err := lc.Crash(1); err != nil {
			t.Errorf("Crash: %v", err)
		}
	})
	sys.K.At(sys.Cfg.Epoch+10*cal.Round+sim.Time(1*sim.Millisecond), func() {
		if err := lc.Restart(1); err != nil {
			t.Errorf("Restart: %v", err)
		}
	})
	sys.Run(sys.Cfg.Epoch + 20*cal.Round)

	// Rounds 0..5 ride their slots before the crash; 6..9 are lost to the
	// outage (round 10's publish still hits the stopped middleware during
	// recovery); 11..19 flow after recovery.
	want := []int64{0, 1, 2, 3, 4, 5, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if len(rounds) != len(want) {
		t.Fatalf("delivered rounds = %v, want %v", rounds, want)
	}
	slot := cal.Slots[0]
	for i, r := range want {
		if rounds[i] != r {
			t.Fatalf("delivered rounds = %v, want %v", rounds, want)
		}
		exact := sys.Cfg.Epoch + sim.Time(r)*cal.Round + slot.Deadline(cal.Cfg)
		if times[i] != exact {
			t.Fatalf("round %d delivered at %v, want exactly %v (calendar re-entry at correct phase)", r, times[i], exact)
		}
	}

	// Watchdog on the subscriber: suspected → failed during the outage,
	// alive again on the first post-recovery delivery.
	if len(wdStates) != 3 || wdStates[0] != NodeSuspected || wdStates[1] != NodeFailed || wdStates[2] != NodeAlive {
		t.Fatalf("watchdog transitions = %v, want [suspected failed alive]", wdStates)
	}

	// The lifecycle is visible in the trace.
	var sawDown, sawRestart, sawUp bool
	for _, rec := range sys.Obs.Records() {
		if rec.Node != 1 {
			continue
		}
		switch rec.Stage {
		case obs.StageNodeDown:
			sawDown = true
		case obs.StageNodeRestart:
			sawRestart = true
		case obs.StageNodeUp:
			sawUp = true
		}
	}
	if !sawDown || !sawRestart || !sawUp {
		t.Fatalf("lifecycle stages missing from trace: down=%v restart=%v up=%v", sawDown, sawRestart, sawUp)
	}
	if lc.CrashCount != 1 || lc.RestartCount != 1 {
		t.Fatalf("counts = %d/%d", lc.CrashCount, lc.RestartCount)
	}
}

// TestLifecycleRecoveryWithClockSync exercises the same path with drifting
// clocks: the restarted node's cold-booted clock must wait for the next
// synchronization round before re-entering the calendar.
func TestLifecycleRecoveryWithClockSync(t *testing.T) {
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 1, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	sync := clock.DefaultSyncConfig()
	sync.Period = 10 * sim.Millisecond
	sys, err := NewSystem(SystemConfig{
		Nodes:            3,
		Seed:             7,
		Calendar:         cal,
		Sync:             sync,
		MaxDriftPPM:      50,
		MaxInitialOffset: 20 * sim.Microsecond,
		Observe:          obs.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLifecycle(sys)

	var pub *HRTEC
	announce := func(mw *Middleware) {
		c, _ := mw.HRTEC(subjTemp)
		if err := c.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
			t.Fatalf("Announce: %v", err)
		}
		pub = c
	}
	announce(sys.Node(1).MW)
	lc.OnRestart = func(n int, mw *Middleware) { announce(mw) }

	sub, _ := sys.Node(2).MW.HRTEC(subjTemp)
	var before, after int
	restarted := false
	sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(ev Event, di DeliveryInfo) {
			if restarted {
				after++
			} else {
				before++
			}
		}, nil)
	wd := sys.Node(2).MW.Watchdog(3, nil)

	for r := int64(0); r < 20; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-200*sim.Microsecond, func() {
			if !lc.Down(1) {
				_ = pub.Publish(Event{Subject: subjTemp, Payload: []byte{1}})
			}
		})
	}
	sys.K.At(sys.Cfg.Epoch+5*cal.Round+sim.Time(sim.Millisecond), func() { _ = lc.Crash(1) })
	sys.K.At(sys.Cfg.Epoch+10*cal.Round+sim.Time(sim.Millisecond), func() {
		_ = lc.Restart(1)
		restarted = true
	})
	sys.Run(sys.Cfg.Epoch + 20*cal.Round)

	if before < 5 {
		t.Fatalf("pre-crash deliveries = %d, want ≥ 5", before)
	}
	if after < 5 {
		t.Fatalf("post-restart deliveries = %d, want ≥ 5 (recovery incl. re-sync must complete)", after)
	}
	if wd.State(1) != NodeAlive {
		t.Fatalf("final watchdog state = %v, want alive", wd.State(1))
	}
	var sawUp bool
	for _, rec := range sys.Obs.Records() {
		if rec.Stage == obs.StageNodeUp && rec.Node == 1 {
			sawUp = true
		}
	}
	if !sawUp {
		t.Fatal("node_up missing from trace")
	}
}

// TestLifecycleGuards pins the manager's error paths.
func TestLifecycleGuards(t *testing.T) {
	cal := crashCalendar(t)
	sys := idealSystem(t, 3, cal)
	lc := NewLifecycle(sys)
	if err := lc.Crash(0); err == nil {
		t.Fatal("crashing the agent station must fail")
	}
	if err := lc.Restart(1); err == nil {
		t.Fatal("restarting a running station must fail")
	}
	if err := lc.Crash(1); err != nil {
		t.Fatal(err)
	}
	if !lc.Down(1) {
		t.Fatal("not down after crash")
	}
	if err := lc.Crash(1); err == nil {
		t.Fatal("double crash must fail")
	}
}

// TestWatchdogOnChangeOrderInterleavedPublishers pins the OnChange firing
// order when two monitored publishers fail and recover with overlapping
// outages (satellite of the fault-model issue).
func TestWatchdogOnChangeOrderInterleavedPublishers(t *testing.T) {
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(subjTemp), Publisher: 0, Payload: 8, Periodic: true},
		calendar.Slot{Subject: uint64(subjDiag), Publisher: 1, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	sys := idealSystem(t, 3, cal)
	pub0, _ := sys.Node(0).MW.HRTEC(subjTemp)
	pub0.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	pub1, _ := sys.Node(1).MW.HRTEC(subjDiag)
	pub1.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
	subT, _ := sys.Node(2).MW.HRTEC(subjTemp)
	subT.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{}, func(Event, DeliveryInfo) {}, nil)
	subD, _ := sys.Node(2).MW.HRTEC(subjDiag)
	subD.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{}, func(Event, DeliveryInfo) {}, nil)

	type change struct {
		pub   can.TxNode
		state NodeState
		at    sim.Time
	}
	var changes []change
	sys.Node(2).MW.Watchdog(2, func(p can.TxNode, s NodeState, at sim.Time) {
		changes = append(changes, change{p, s, at})
	})

	publish := func(c *HRTEC, subj uint64, r int64) {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			_ = c.Publish(Event{Payload: []byte{byte(r)}})
		})
	}
	// Publisher 0 is silent in rounds 3..8, publisher 1 in rounds 5..10.
	for r := int64(0); r < 15; r++ {
		if r < 3 || r > 8 {
			publish(pub0, uint64(subjTemp), r)
		}
		if r < 5 || r > 10 {
			publish(pub1, uint64(subjDiag), r)
		}
	}
	sys.Run(sys.Cfg.Epoch + 15*cal.Round)

	want := []change{
		{0, NodeSuspected, 0}, // pub0 first miss, round 3
		{0, NodeFailed, 0},    // threshold 2, round 4
		{1, NodeSuspected, 0}, // pub1 first miss, round 5
		{1, NodeFailed, 0},    // round 6
		{0, NodeAlive, 0},     // pub0 resumes, round 9
		{1, NodeAlive, 0},     // pub1 resumes, round 11
	}
	if len(changes) != len(want) {
		t.Fatalf("transitions = %+v", changes)
	}
	for i, w := range want {
		if changes[i].pub != w.pub || changes[i].state != w.state {
			t.Fatalf("transition %d = %+v, want pub %d %v", i, changes[i], w.pub, w.state)
		}
		if i > 0 && changes[i].at < changes[i-1].at {
			t.Fatalf("transition %d at %v before predecessor at %v", i, changes[i].at, changes[i-1].at)
		}
	}
}

// TestCrashDropsInEtagOrder: a crash closes the traces of the events
// queued on the station's HRT channels in etag order, whatever order the
// middleware holds its channels in, so identical runs emit identical
// records.
func TestCrashDropsInEtagOrder(t *testing.T) {
	subjects := []binding.Subject{0x5004, 0x5001, 0x5003, 0x5002}
	var slots []calendar.Slot
	for _, s := range subjects {
		slots = append(slots, calendar.Slot{Subject: uint64(s), Publisher: 1, Payload: 8, Periodic: true})
	}
	cal, err := calendar.PackSequential(calendar.DefaultConfig(), 10*sim.Millisecond, slots...)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		sys, err := NewSystem(SystemConfig{Nodes: 3, Seed: 1, Calendar: cal,
			Epoch: sim.Millisecond, Observe: obs.Default()})
		if err != nil {
			t.Fatal(err)
		}
		mw := sys.Node(1).MW
		var pubs []*HRTEC
		for _, s := range subjects {
			c, err := mw.HRTEC(s)
			if err == nil {
				err = c.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			pubs = append(pubs, c)
		}
		lc := NewLifecycle(sys)
		sys.K.At(sys.Cfg.Epoch+2*cal.Round+sim.Millisecond, func() {
			for _, c := range pubs {
				for i := 0; i < 2; i++ {
					if err := c.Publish(Event{Subject: c.ch.subject, Payload: []byte{byte(i)}}); err != nil {
						t.Error(err)
					}
				}
			}
			if err := lc.Crash(1); err != nil {
				t.Error(err)
			}
		})
		sys.Run(sys.Cfg.Epoch + 3*cal.Round)

		var got []binding.Subject
		for _, rec := range sys.Obs.Records() {
			if rec.Stage == obs.StageDropped && rec.Detail == obs.DetailNodeCrash {
				got = append(got, binding.Subject(rec.Subject))
			}
		}
		var want []binding.Subject
		for _, c := range mw.Channels() {
			want = append(want, c.Subject, c.Subject)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: crash drops for subjects %#x, want etag order %#x", run, got, want)
		}
	}
}
