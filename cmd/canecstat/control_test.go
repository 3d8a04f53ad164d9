package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/sim"
)

// controlAdmin runs one closed PID loop over SRT channels to completion
// and serves its QoC plus the canec_control_* metric series on an admin
// plane.
func controlAdmin(t *testing.T) *admin.Server {
	t.Helper()
	k := sim.NewKernel(5)
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 4, Kernel: k,
		Observe: &obs.Config{Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := control.NewLoop(control.LoopConfig{
		Name: "cart", Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
		Class: core.SRT, Sensor: 1, ControllerNode: 2, Actuator: 1,
		SensorSubject: 0x351, CommandSubject: 0x352, Period: 5 * sim.Millisecond,
		Setpoint: 0, Initial: 1,
	}, sys.Obs)
	if err != nil {
		t.Fatal(err)
	}
	end := sys.Cfg.Epoch + sim.Time(1200*sim.Millisecond)
	if err := l.Install(k, sys.Cfg.Epoch, end, func(n int) *core.Middleware {
		return sys.Node(n).MW
	}, nil); err != nil {
		t.Fatal(err)
	}
	sys.Run(end)

	return serve(t, "ctl", sys, l)
}

// TestControlColumnAndExposition is the golden path for the closed-loop
// observability series: every canec_control_* metric must survive the
// strict Prometheus exposition check, /control must carry the QoC
// snapshot, and the fleet table must render it in the QOC column.
func TestControlColumnAndExposition(t *testing.T) {
	srv := controlAdmin(t)
	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, true)
	if len(targets) != 1 || targets[0].err != nil {
		t.Fatalf("poll: %+v", targets)
	}
	tg := targets[0]
	if tg.promErr != nil {
		t.Fatalf("control metrics break exposition: %v", tg.promErr)
	}
	if !tg.control.Enabled || len(tg.control.Loops) != 1 {
		t.Fatalf("/control snapshot: %+v", tg.control)
	}
	row := tg.control.Loops[0]
	if row.Loop != "cart" || !row.Settled || row.Cost <= 0 {
		t.Fatalf("loop row: %+v", row)
	}

	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE canec_control_loop_stages_total counter",
		`canec_control_loop_stages_total{loop="cart",stage="ctrl_apply"}`,
		`canec_control_cost_total{loop="cart"}`,
		`canec_control_deviation{loop="cart"}`,
		`canec_control_loop_latency_microseconds_count{loop="cart"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	var b strings.Builder
	render(&b, targets)
	out := b.String()
	if !strings.Contains(out, "QOC") {
		t.Fatalf("header missing QOC column:\n%s", out)
	}
	if !strings.Contains(out, "1/1 ") {
		t.Fatalf("QOC column not rendered from loop snapshot:\n%s", out)
	}
}
