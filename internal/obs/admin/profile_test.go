package admin

import (
	"net/http"
	"testing"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// TestAdminProfileEndpoint drives traffic through a served system and
// checks that /profile serves the live stage breakdown of the profiler
// Serve attached, routing the snapshot through InKernel.
func TestAdminProfileEndpoint(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1, Observe: &obs.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	inKernelCalls := 0
	s, err := Serve("127.0.0.1:0", Host{
		Segment:  "profiled",
		Sys:      sys,
		InKernel: func(fn func()) { inKernelCalls++; fn() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pub, _ := sys.Node(0).MW.SRTEC(0x41)
	pub.Announce(core.ChannelAttrs{}, nil)
	sub, _ := sys.Node(1).MW.SRTEC(0x41)
	sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil)
	const n = 20
	for r := 0; r < n; r++ {
		sys.K.At(sim.Time(r)*200*sim.Microsecond, func() {
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(core.Event{Subject: 0x41, Payload: []byte{1},
				Attrs: core.EventAttrs{Deadline: now + 5*sim.Millisecond}})
		})
	}
	sys.Run(sim.Second)
	base := "http://" + s.Addr()

	var view ProfileView
	if code := getJSON(t, base+"/profile", &view); code != http.StatusOK {
		t.Fatalf("/profile code %d", code)
	}
	if !view.Enabled || view.Segment != "profiled" {
		t.Fatalf("view = %+v", view)
	}
	if view.Profile.Delivered != n {
		t.Fatalf("delivered: %d want %d", view.Profile.Delivered, n)
	}
	if len(view.Profile.Stages) == 0 || view.Profile.Steps == 0 {
		t.Fatalf("empty profile: %+v", view.Profile)
	}
	if view.Profile.BusyVirtualNs <= 0 {
		t.Fatalf("busy virtual: %d", view.Profile.BusyVirtualNs)
	}
	// The sampled step wall and its unattributed row reach the view.
	sum := view.Profile.UnattributedNs
	for _, st := range view.Profile.Stages {
		sum += st.WallNs
	}
	if view.Profile.TimedSteps == 0 || sum != view.Profile.StepWallNs {
		t.Fatalf("%d timed steps; stages + unattributed %d, step wall %d",
			view.Profile.TimedSteps, sum, view.Profile.StepWallNs)
	}
	if inKernelCalls == 0 {
		t.Fatal("snapshot did not go through InKernel")
	}
}
