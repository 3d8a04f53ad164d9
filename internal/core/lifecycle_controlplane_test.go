package core

import (
	"strings"
	"testing"

	"canec/internal/binding"
	"canec/internal/clock"
	"canec/internal/obs"
	"canec/internal/sim"
)

// TestLifecycleRestartWithAgentDown: a station restarting while the binding
// agent is unreachable must not hang. The bounded re-join surfaces
// binding's agent-unreachable error through OnRestartError, and recovery completes
// in the background once the agent returns.
func TestLifecycleRestartWithAgentDown(t *testing.T) {
	cal := crashCalendar(t)
	sys := idealSystem(t, 3, cal)
	lc := NewLifecycle(sys)

	var restartErrs []error
	lc.OnRestartError = func(n int, err error) {
		if n != 1 {
			t.Errorf("OnRestartError for station %d, want 1", n)
		}
		restartErrs = append(restartErrs, err)
	}
	var recoveredAt sim.Time
	lc.OnRestart = func(n int, _ *Middleware) { recoveredAt = sys.K.Now() }

	sys.K.At(10*sim.Millisecond, func() {
		if err := lc.Crash(1); err != nil {
			t.Errorf("Crash: %v", err)
		}
		sys.Nodes[0].Ctrl.Detach() // agent station loses the bus (not via lc)
	})
	sys.K.At(20*sim.Millisecond, func() {
		if err := lc.Restart(1); err != nil {
			t.Errorf("Restart: %v", err)
		}
	})
	agentBack := sim.Time(3 * sim.Second)
	sys.K.At(agentBack, func() { sys.Nodes[0].Ctrl.Reattach() })
	sys.Run(8 * sim.Second)

	if len(restartErrs) == 0 {
		t.Fatal("bounded re-join never reported failure while the agent was down")
	}
	for _, err := range restartErrs {
		if err == nil || !strings.Contains(err.Error(), "configuration agent unreachable") {
			t.Fatalf("OnRestartError got %v, want ErrAgentUnreachable", err)
		}
	}
	if recoveredAt == 0 {
		t.Fatal("station never recovered after the agent returned")
	}
	if recoveredAt < agentBack {
		t.Fatalf("recovered at %v, before the agent returned at %v", recoveredAt, agentBack)
	}
	if lc.RestartCount != 1 || lc.Down(1) {
		t.Fatalf("RestartCount=%d Down(1)=%v after background recovery", lc.RestartCount, lc.Down(1))
	}
}

// TestLifecycleAgentCrashWithStandby: with a standby armed, the agent
// station may crash; the standby takes the role over, and the restarted old
// agent station re-arms as the new standby.
func TestLifecycleAgentCrashWithStandby(t *testing.T) {
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
	if err := lc.EnableStandby(2, binding.HeartbeatConfig{}); err != nil {
		t.Fatal(err)
	}

	sys.K.At(50*sim.Millisecond, func() {
		if err := lc.Crash(0); err != nil {
			t.Errorf("Crash(agent) with live standby: %v", err)
		}
	})
	sys.K.At(500*sim.Millisecond, func() {
		if lc.AgentTakeovers != 1 {
			t.Errorf("takeovers = %d before restart, want 1", lc.AgentTakeovers)
		}
		if err := lc.Restart(0); err != nil {
			t.Errorf("Restart: %v", err)
		}
	})
	sys.Run(2 * sim.Second)

	if lc.AgentStation() != 2 {
		t.Fatalf("acting agent on station %d, want 2", lc.AgentStation())
	}
	if lc.RestartCount != 1 {
		t.Fatalf("RestartCount = %d, want 1", lc.RestartCount)
	}
	if lc.Standby() == nil || lc.Standby().Active() {
		t.Fatal("restarted old agent station did not re-arm as the new standby")
	}
	var sawTakeover bool
	for _, rec := range sys.Obs.Records() {
		if rec.Stage == obs.StageAgentTakeover && rec.Node == 2 {
			sawTakeover = true
		}
	}
	if !sawTakeover {
		t.Fatal("agent_takeover missing from trace")
	}
}

// TestLifecycleStandbyGuards pins EnableStandby's and Crash's control-plane
// error paths.
func TestLifecycleStandbyGuards(t *testing.T) {
	cal := crashCalendar(t)
	sys := idealSystem(t, 3, cal)
	lc := NewLifecycle(sys)

	if err := lc.EnableStandby(0, binding.HeartbeatConfig{}); err == nil {
		t.Fatal("standby on the agent's own station must fail")
	}
	if err := lc.EnableStandby(3, binding.HeartbeatConfig{}); err == nil {
		t.Fatal("standby station out of range must fail")
	}
	if err := lc.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := lc.EnableStandby(2, binding.HeartbeatConfig{}); err == nil {
		t.Fatal("standby on a crashed station must fail")
	}
	if err := lc.Restart(2); err != nil {
		t.Fatal(err)
	}
	sys.Run(sys.K.Now() + sim.Second)
	if err := lc.EnableStandby(2, binding.HeartbeatConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := lc.EnableStandby(1, binding.HeartbeatConfig{}); err == nil {
		t.Fatal("arming a second standby must fail")
	}
	// The armed standby is the only thing keeping the agent crashable; with
	// the standby down, crashing the agent must be refused again.
	if err := lc.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := lc.Crash(0); err == nil {
		t.Fatal("crashing the agent with the standby down must fail")
	}
}

// TestLifecycleMasterCrashGuard: the acting time master can only crash when
// a live ranked backup exists.
func TestLifecycleMasterCrashGuard(t *testing.T) {
	cal := crashCalendar(t)
	sync := clock.DefaultSyncConfig()
	sync.Period = 10 * sim.Millisecond
	sys, err := NewSystem(SystemConfig{
		Nodes:            4,
		Seed:             5,
		Calendar:         cal,
		Sync:             sync,
		Master:           1,
		MaxDriftPPM:      20,
		MaxInitialOffset: 20 * sim.Microsecond,
		Observe:          obs.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLifecycle(sys)
	if err := lc.Crash(1); err == nil {
		t.Fatal("crashing the master without backups must fail")
	}
	sys.Syncer.SetBackups([]int{3})
	sys.K.At(100*sim.Millisecond, func() {
		if err := lc.Crash(1); err != nil {
			t.Errorf("Crash(master) with live backup: %v", err)
		}
	})
	sys.Run(sim.Second)
	if sys.Syncer.Takeovers != 1 || sys.Syncer.Master != 3 {
		t.Fatalf("takeovers=%d master=%d, want 1 / 3", sys.Syncer.Takeovers, sys.Syncer.Master)
	}
	// With the sole backup now the master, crashing it must be refused.
	if err := lc.Crash(3); err == nil {
		t.Fatal("crashing the last master must fail")
	}
}

type stubHealth struct{ u sim.Duration }

func (s stubHealth) Uncertainty(int, sim.Time) sim.Duration { return s.u }

// TestHRTSlackWidensInHoldover pins the holdover widening of the HRT
// lateness check: the slack is 2π while the clock-health uncertainty stays
// inside it and grows to the uncertainty bound (counted) beyond it.
func TestHRTSlackWidensInHoldover(t *testing.T) {
	cal := crashCalendar(t)
	sys := idealSystem(t, 3, cal)
	mw := sys.Node(2).MW
	base := 2 * cal.Cfg.Precision
	if got := mw.hrtSlack(); got != base {
		t.Fatalf("slack without health source = %v, want 2π = %v", got, base)
	}
	mw.Health = stubHealth{u: base / 2}
	if got := mw.hrtSlack(); got != base {
		t.Fatalf("slack with small uncertainty = %v, want 2π = %v", got, base)
	}
	if mw.Counters().HoldoverWidened != 0 {
		t.Fatal("widening counted while uncertainty was inside 2π")
	}
	wide := 3 * base
	mw.Health = stubHealth{u: wide}
	if got := mw.hrtSlack(); got != wide {
		t.Fatalf("slack in deep holdover = %v, want uncertainty %v", got, wide)
	}
	if mw.Counters().HoldoverWidened != 1 {
		t.Fatalf("HoldoverWidened = %d, want 1", mw.Counters().HoldoverWidened)
	}
}
