package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/sim"
)

// busOffAdmin drives node 0 into bus-off (a rate-1.0 targeted bit-error
// adversary against a non-single-shot sender walks the TEC 0 → 256 in one
// retransmission burst) and serves the aftermath on an admin plane.
// Auto-recovery is off so the controller is still bus-off at scrape time
// and the ERRST gauges carry live values.
func busOffAdmin(t *testing.T) *admin.Server {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 3, Seed: 1, ConfineFaults: true,
		Observe: &obs.Config{Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Node(0).Ctrl.SetAutoRecover(false)
	sys.Bus.Injector = can.TargetedBitErrors{Victim: 0, Rate: 1, Prio: -1}

	pub, _ := sys.Node(0).MW.SRTEC(0x51)
	pub.Announce(core.ChannelAttrs{}, nil)
	sub, _ := sys.Node(1).MW.SRTEC(0x51)
	sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil)
	sys.K.At(0, func() {
		pub.Publish(core.Event{Subject: 0x51, Payload: []byte{1}})
	})
	sys.Run(100 * sim.Millisecond)

	if sys.Node(0).Ctrl.State() != can.BusOff {
		t.Fatalf("victim state: %v, want bus-off", sys.Node(0).Ctrl.State())
	}
	return serve(t, "errst", sys)
}

// TestErrorStateColumnAndExposition is the golden path for the
// fault-confinement observability series: the canec_can_* gauges and the
// bus-off counter must survive the strict Prometheus exposition check,
// /healthz must summarize the confinement plane, and the fleet table must
// render it in the ERRST column.
func TestErrorStateColumnAndExposition(t *testing.T) {
	srv := busOffAdmin(t)
	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, true)
	if len(targets) != 1 || targets[0].err != nil {
		t.Fatalf("poll: %+v", targets)
	}
	tg := targets[0]
	if tg.promErr != nil {
		t.Fatalf("confinement metrics break exposition: %v", tg.promErr)
	}
	if tg.health.BusOff != 1 || tg.health.BusOffTotal != 1 {
		t.Fatalf("health confinement summary: passive=%d busoff=%d total=%d",
			tg.health.ErrorPassive, tg.health.BusOff, tg.health.BusOffTotal)
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
	for _, series := range []string{
		"canec_can_tec", "canec_can_rec", "canec_can_error_state", "canec_can_busoff_total",
	} {
		if !strings.Contains(text, "# TYPE "+series) {
			t.Fatalf("exposition missing %s:\n%s", series, text)
		}
	}
	// The bus-off victim's gauges: state 2 and one bus-off entry. The
	// bystanders' RECs carry the attack's receive-side ramp.
	for _, sample := range []string{
		`canec_can_error_state{node="0"} 2`,
		`canec_can_busoff_total{node="0"} 1`,
	} {
		if !strings.Contains(text, sample) {
			t.Fatalf("exposition missing sample %q:\n%s", sample, text)
		}
	}
	if !strings.Contains(text, `canec_can_rec{node="1"}`) {
		t.Fatalf("no REC gauge for bystander node 1:\n%s", text)
	}

	var b strings.Builder
	render(&b, targets)
	out := b.String()
	if !strings.Contains(out, "ERRST") {
		t.Fatalf("header missing ERRST column:\n%s", out)
	}
	if !strings.Contains(out, "0p/1b/1t") {
		t.Fatalf("ERRST column not rendered from health fields:\n%s", out)
	}
}

// TestErrorStateColumnQuiet: a clean confinement plane renders "ok"
// rather than inventing counts.
func TestErrorStateColumnQuiet(t *testing.T) {
	srv := serve(t, "quiet", plainSystem(t))
	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, false)
	if targets[0].err != nil {
		t.Fatalf("poll: %v", targets[0].err)
	}
	var b strings.Builder
	render(&b, targets)
	row := ""
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "quiet") {
			row = line
		}
	}
	if row == "" || !strings.Contains(row, "ok") {
		t.Fatalf("quiet plane should render ok in ERRST:\n%s", b.String())
	}
}
