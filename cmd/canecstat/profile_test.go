package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/sim"
)

// profiledAdmin runs SRT traffic through a profiled system and serves it
// on an admin plane whose registry includes the profiler metrics.
func profiledAdmin(t *testing.T) *admin.Server {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 2, Seed: 1, Observe: &obs.Config{Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, "perf", sys) // attaches the profiler before the run

	pub, _ := sys.Node(0).MW.SRTEC(0x41)
	pub.Announce(core.ChannelAttrs{}, nil)
	sub, _ := sys.Node(1).MW.SRTEC(0x41)
	sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil)
	for r := 0; r < 30; r++ {
		sys.K.At(sim.Time(r)*200*sim.Microsecond, func() {
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(core.Event{Subject: 0x41, Payload: []byte{1},
				Attrs: core.EventAttrs{Deadline: now + 5*sim.Millisecond}})
		})
	}
	sys.Run(sim.Second)
	return srv
}

// TestFleetTableProfilerColumns polls a profiled daemon end to end: the
// fleet table must show live events/s, heap high-water and allocs/frame
// instead of dashes, and the profiler gauges must survive the strict
// Prometheus exposition check.
func TestFleetTableProfilerColumns(t *testing.T) {
	srv := profiledAdmin(t)
	client := &http.Client{Timeout: 2 * time.Second}
	targets := poll(client, []string{srv.Addr()}, true)
	if len(targets) != 1 || targets[0].err != nil {
		t.Fatalf("poll: %+v", targets)
	}
	tg := targets[0]
	if !tg.profile.Enabled {
		t.Fatal("profiler not visible through /profile")
	}
	if tg.profile.Profile.Delivered != 30 {
		t.Fatalf("delivered: %d", tg.profile.Profile.Delivered)
	}
	// The registered profiler gauges went through the strict checker.
	if tg.promErr != nil {
		t.Fatalf("profiler metrics break exposition: %v", tg.promErr)
	}

	var b strings.Builder
	render(&b, targets)
	out := b.String()
	if !strings.Contains(out, "EV/S") || !strings.Contains(out, "ALLOC/FR") {
		t.Fatalf("header missing perf columns:\n%s", out)
	}
	// The row must carry real numbers in the perf columns: heap
	// high-water for this workload is well above zero.
	if tg.profile.Profile.HeapHighWater < 1 {
		t.Fatalf("heap high-water: %d", tg.profile.Profile.HeapHighWater)
	}
	row := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "perf") {
			row = line
		}
	}
	if row == "" {
		t.Fatalf("no row for segment perf:\n%s", out)
	}
	// Dashes allowed: SRT MISS, ADMIT, QOC, TOPCAUSE and BREACHED have no
	// data in this minimal setup; the three perf columns must not add any
	// more.
	if strings.Count(row, "-") >= 6 {
		t.Fatalf("perf columns still dashed:\n%s", row)
	}
}
