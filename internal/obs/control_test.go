package obs

import (
	"strings"
	"testing"

	"canec/internal/sim"
)

// TestControlObserverMetricsAndRecords drives the closed-loop workload
// hooks and checks both faces: trace records for the flight recorder and
// canec_control_* series in the Prometheus exposition.
func TestControlObserverMetricsAndRecords(t *testing.T) {
	var now sim.Time
	o := New(Config{Trace: true, Metrics: true}, func() sim.Time { return now }, testBandMap())

	dev := 0.25
	o.RegisterControlLoop("cart", func() float64 { return dev })
	o.Emit(0, StageCtrlSample, ClassSRT, 1, 0, 10, Text("cart"))
	o.Emit(0, StageCtrlCommand, ClassSRT, 2, 0, 20, Text("cart"))
	o.Emit(0, StageCtrlApply, ClassSRT, 1, 0, 30, Text("cart"))
	o.Emit(0, StageCtrlApply, ClassSRT, 1, 0, 40, Text("cart"))
	o.Emit(0, StageCtrlStale, ClassSRT, 1, 0, 50, Text("cart"))
	o.ControlCost("cart", 0.5)
	o.ControlCost("cart", 0.25)
	o.ControlLatency("cart", 1500)

	stages := map[Stage]int{}
	for _, r := range o.Records() {
		if r.Detail.String() == "cart" {
			if r.Class != ClassSRT || r.Prio != -1 {
				t.Fatalf("control record shape = %+v", r)
			}
			stages[r.Stage]++
		}
	}
	if stages[StageCtrlSample] != 1 || stages[StageCtrlCommand] != 1 ||
		stages[StageCtrlApply] != 2 || stages[StageCtrlStale] != 1 {
		t.Fatalf("control stage records = %v", stages)
	}

	var out strings.Builder
	if err := o.Registry().WriteText(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`canec_control_loop_stages_total{loop="cart",stage="ctrl_apply"} 2`,
		`canec_control_loop_stages_total{loop="cart",stage="ctrl_sample"} 1`,
		`canec_control_stale_ticks_total{loop="cart"} 1`,
		`canec_control_cost_total{loop="cart"} 0.75`,
		`canec_control_deviation{loop="cart"} 0.25`,
		`canec_control_loop_latency_microseconds_count{loop="cart"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// The whole hook surface must be inert on a nil observer.
	var nilObs *Observer
	nilObs.Emit(0, StageCtrlSample, ClassSRT, 0, 0, 0, Text("x"))
	nilObs.ControlCost("x", 1)
	nilObs.ControlLatency("x", 1)
	nilObs.RegisterControlLoop("x", func() float64 { return 0 })
}

// TestSLOControlCostObjective: the control-cost objective budgets the
// summed quadratic cost per long window — a loop that keeps burning cost
// (late frames, plant off setpoint) must breach, and a loop that settles
// must not.
func TestSLOControlCostObjective(t *testing.T) {
	cfg := SLOConfig{
		Interval:          10 * sim.Millisecond,
		ShortWindow:       100 * sim.Millisecond,
		LongWindow:        sim.Second,
		ControlCostBudget: 5, // tolerated cost per long window
	}
	k, o, s := sloHarness(t, cfg, t.TempDir())

	burning := false
	var step func()
	step = func() {
		delta := 0.001 // settled loop: ~0.2 cost/s, well inside budget
		if burning {
			delta = 0.1 // off-setpoint loop: ~20 cost/s, 4x over budget
		}
		o.ControlCost("cart", delta)
		k.After(5*sim.Millisecond, step)
	}
	step()

	k.Run(sim.Time(2 * sim.Second))
	obl := s.Snapshot()
	if len(obl) != 1 || obl[0].Name != "control-cost" {
		t.Fatalf("objectives = %+v, want control-cost only", obl)
	}
	if !obl[0].Evaluable || obl[0].Breached {
		t.Fatalf("settled loop breached cost budget: %+v", obl[0])
	}

	burning = true
	k.Run(sim.Time(4 * sim.Second))
	ob := s.Snapshot()[0]
	if !ob.Breached {
		t.Fatalf("burning loop did not breach cost budget: %+v", ob)
	}
	if ob.Long < 15 {
		t.Fatalf("long-window cost = %v, want ~20/window", ob.Long)
	}
	if !s.Breached() {
		t.Fatal("SLO.Breached() should be true")
	}

	burning = false
	k.Run(sim.Time(8 * sim.Second))
	if ob := s.Snapshot()[0]; ob.Breached {
		t.Fatalf("cost breach did not clear after settling: %+v", ob)
	}
}
