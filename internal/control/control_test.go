package control

import (
	"math"
	"strings"
	"testing"

	"canec/internal/core"
	"canec/internal/sim"
)

func TestDoubleIntegratorExactZOH(t *testing.T) {
	dt := 10 * sim.Millisecond
	m := doubleIntegrator(dt)
	x := [2]float64{1, 2}
	u := 3.0
	m.step(&x, u)
	h := 0.01
	wantPos := 1 + 2*h + u*h*h/2
	wantVel := 2 + u*h
	if math.Abs(x[0]-wantPos) > 1e-12 || math.Abs(x[1]-wantVel) > 1e-12 {
		t.Fatalf("step = %v, want [%v %v]", x, wantPos, wantVel)
	}
}

func TestThermalConvergesToGain(t *testing.T) {
	m := firstOrderThermal(5*sim.Millisecond, 200*sim.Millisecond, 1)
	x := [2]float64{0, 0}
	for i := 0; i < 2000; i++ { // 10 s >> τ
		m.step(&x, 2.5)
	}
	if math.Abs(x[0]-2.5) > 1e-6 {
		t.Fatalf("thermal steady state = %v, want 2.5", x[0])
	}
}

func TestFix24RoundTrip(t *testing.T) {
	var b [3]byte
	for _, v := range []float64{0, 1, -1, 3.14159, -1234.5, 4095, -4095} {
		putFix24(b[:], v)
		got := getFix24(b[:])
		if math.Abs(got-v) > 1/fixScale {
			t.Fatalf("fix24(%v) = %v", v, got)
		}
	}
	putFix24(b[:], 1e9) // clamps, must not wrap sign
	if got := getFix24(b[:]); got < 4000 {
		t.Fatalf("clamped fix24(1e9) = %v", got)
	}
	putFix24(b[:], -1e9)
	if got := getFix24(b[:]); got > -4000 {
		t.Fatalf("clamped fix24(-1e9) = %v", got)
	}
}

// localLoop runs controller and plant with no network in between: the
// baseline both control laws must at minimum handle.
func localLoop(t *testing.T, plant, controller string, setpoint, initial float64) [2]float64 {
	t.Helper()
	period := 5 * sim.Millisecond
	cfg := LoopConfig{Name: "local", Plant: plant, Controller: controller,
		Class: core.SRT, Sensor: 0, ControllerNode: 0, Actuator: 0,
		SensorSubject: 1, CommandSubject: 2, Period: period,
		Setpoint: setpoint, Initial: initial}
	l, err := NewLoop(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := plantModel(plant, period)
	x := [2]float64{initial, 0}
	for i := 0; i < 400; i++ { // 2 s
		u := l.ctl.command(x, setpoint)
		m.step(&x, u)
	}
	return x
}

func TestPIDSettles(t *testing.T) {
	x := localLoop(t, PlantDoubleIntegrator, ControllerPID, 0, 1)
	if math.Abs(x[0]) > 0.02 || math.Abs(x[1]) > 0.5 {
		t.Fatalf("pid/double_integrator final state = %v", x)
	}
	x = localLoop(t, plantThermal, ControllerPID, 1, 0)
	if math.Abs(x[0]-1) > 0.02 {
		t.Fatalf("pid/thermal final state = %v", x)
	}
}

func TestMPCSettles(t *testing.T) {
	x := localLoop(t, PlantDoubleIntegrator, controllerMPC, 0, 1)
	if math.Abs(x[0]) > 0.02 || math.Abs(x[1]) > 0.5 {
		t.Fatalf("mpc/double_integrator final state = %v", x)
	}
	x = localLoop(t, plantThermal, controllerMPC, 1, 0)
	if math.Abs(x[0]-1) > 0.05 {
		t.Fatalf("mpc/thermal final state = %v", x)
	}
}

func TestMPCQuietAtSetpoint(t *testing.T) {
	pm := doubleIntegrator(5 * sim.Millisecond)
	c, err := newMPC(pm, 8, [2]float64{costQPos, costQVel}, costRU, 200)
	if err != nil {
		t.Fatal(err)
	}
	if u := c.command([2]float64{0, 0}, 0); math.Abs(u) > 1e-9 {
		t.Fatalf("mpc at setpoint commands %v, want 0", u)
	}
}

func TestLoopConfigValidate(t *testing.T) {
	good := LoopConfig{Name: "x", Plant: PlantDoubleIntegrator, Controller: ControllerPID,
		Class: core.SRT, SensorSubject: 1, CommandSubject: 2, Period: sim.Millisecond}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mutate func(*LoopConfig)
		want   string
	}{
		{func(c *LoopConfig) { c.Name = "" }, "name"},
		{func(c *LoopConfig) { c.Period = 0 }, "period"},
		{func(c *LoopConfig) { c.CommandSubject = 1 }, "distinct"},
		{func(c *LoopConfig) { c.Plant = "pendulum" }, "plant"},
		{func(c *LoopConfig) { c.Controller = "lqr" }, "controller"},
	} {
		cfg := good
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Validate() = %v, want mention of %q", err, tc.want)
		}
	}
}

func TestCalendarRequestsForHRT(t *testing.T) {
	cfg := LoopConfig{Name: "h", Plant: PlantDoubleIntegrator, Controller: ControllerPID,
		Class: core.HRT, Sensor: 1, ControllerNode: 2, Actuator: 1,
		SensorSubject: 0x101, CommandSubject: 0x102, Period: 10 * sim.Millisecond}
	reqs := cfg.CalendarRequests()
	if len(reqs) != 2 {
		t.Fatalf("HRT loop calendar requests = %d, want 2", len(reqs))
	}
	if reqs[0].Subject != 0x101 || reqs[1].Subject != 0x102 {
		t.Fatalf("request subjects = %v", reqs)
	}
	cfg.Class = core.SRT
	if reqs := cfg.CalendarRequests(); reqs != nil {
		t.Fatalf("SRT loop calendar requests = %v, want none", reqs)
	}
}

// TestClosedLoopOverSRT closes a PID loop over real SRT event channels on
// a simulated segment and asserts it settles with measured latency.
func TestClosedLoopOverSRT(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoopConfig{Name: "cart", Plant: PlantDoubleIntegrator, Controller: ControllerPID,
		Class: core.SRT, Sensor: 1, ControllerNode: 2, Actuator: 1,
		SensorSubject: 0x301, CommandSubject: 0x302, Period: 5 * sim.Millisecond,
		Setpoint: 0, Initial: 1}
	l, err := NewLoop(cfg, sys.Obs)
	if err != nil {
		t.Fatal(err)
	}
	end := sys.Cfg.Epoch + sim.Time(1200*sim.Millisecond)
	if err := l.Install(sys.K, sys.Cfg.Epoch, end, func(n int) *core.Middleware {
		return sys.Node(n).MW
	}, nil); err != nil {
		t.Fatal(err)
	}
	sys.Run(end)
	q := l.Report()
	if !q.Settled {
		t.Fatalf("loop did not settle: %s", q.String())
	}
	if q.Applied < 100 {
		t.Fatalf("only %d commands applied: %s", q.Applied, q.String())
	}
	if q.Latency.N() == 0 {
		t.Fatalf("no loop latencies measured: %s", q.String())
	}
	if q.Stale > q.Steps/10 {
		t.Fatalf("clean bus but %d/%d stale ticks: %s", q.Stale, q.Steps, q.String())
	}
	if q.Cost <= 0 {
		t.Fatalf("zero cost over a transient: %s", q.String())
	}
}

// TestActuatorHotPathZeroAllocs pins the zero-order-hold latch — the
// per-command hot path — at zero allocations when observers are off, in
// the style of TestNilObserverZeroAllocs.
func TestActuatorHotPathZeroAllocs(t *testing.T) {
	cfg := LoopConfig{Name: "pin", Plant: PlantDoubleIntegrator, Controller: ControllerPID,
		Class: core.SRT, SensorSubject: 1, CommandSubject: 2, Period: 5 * sim.Millisecond}
	l, err := NewLoop(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.k = sim.NewKernel(1)
	l.down = func(int) bool { return false }
	l.sampleAt[9] = 1 // exercise the latency branch too
	payload := make([]byte, commandPayload)
	payload[0] = 9
	putFix24(payload[1:], 1.5)
	ev := core.Event{Subject: 2, Payload: payload}
	di := core.DeliveryInfo{}
	if allocs := testing.AllocsPerRun(1000, func() { l.onCommand(ev, di) }); allocs != 0 {
		t.Fatalf("actuator hot path: %v allocs/op, want 0", allocs)
	}
}
