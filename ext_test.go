package canec_test

import (
	"strings"
	"testing"

	"canec"
)

func TestFacadeBridge(t *testing.T) {
	k := canec.NewKernel(4)
	segA, err := canec.NewSystem(canec.SystemConfig{Nodes: 2, Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	segB, err := canec.NewSystem(canec.SystemConfig{Nodes: 2, Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	ga, gb, err := canec.JoinSegments(segA.Node(1).MW, segB.Node(1).MW, "a", "b", 100*canec.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][2]*canec.Gateway{{ga, gb}, {gb, ga}} {
		if err := g[1].Announce(canec.SRT, 0x55, canec.ChannelAttrs{}); err != nil {
			t.Fatal(err)
		}
		if err := g[0].Forward(canec.SRT, 0x55, canec.ChannelAttrs{}); err != nil {
			t.Fatal(err)
		}
	}
	pub, _ := segA.Node(0).MW.SRTEC(0x55)
	pub.Announce(canec.ChannelAttrs{}, nil)
	got := 0
	sub, _ := segB.Node(0).MW.SRTEC(0x55)
	sub.Subscribe(canec.ChannelAttrs{}, canec.SubscribeAttrs{},
		func(canec.Event, canec.DeliveryInfo) { got++ }, nil)
	k.At(canec.Millisecond, func() {
		now := segA.Node(0).MW.LocalTime()
		pub.Publish(canec.Event{Subject: 0x55, Payload: []byte{9},
			Attrs: canec.EventAttrs{Deadline: now + 5*canec.Millisecond}})
	})
	k.Run(canec.Second)
	if fwd := ga.Forwarded() + gb.Forwarded(); got != 1 || fwd != 1 {
		t.Fatalf("got=%d forwarded=%d", got, fwd)
	}
}

func TestFacadeValueFunctions(t *testing.T) {
	fns := []canec.ValueFunc{
		canec.StepValue{},
		canec.LinearValue{Grace: canec.Millisecond},
		canec.ExponentialValue{HalfLife: canec.Millisecond},
		canec.PlateauValue{After: 0.4, Grace: canec.Millisecond},
	}
	for _, fn := range fns {
		if fn.At(-1) != 1 {
			t.Fatalf("%T early value != 1", fn)
		}
	}
	exp := canec.ExpirationFor(canec.StepValue{}, canec.Time(canec.Second), 0.5, canec.Second)
	if exp != canec.Time(canec.Second) {
		t.Fatalf("step expiration = %v", exp)
	}
}

func TestFacadeScenario(t *testing.T) {
	sc, err := canec.LoadScenario(strings.NewReader(`{
		"name": "facade", "nodes": 3, "durationMs": 100,
		"srt": [{"subject": 7, "publisher": 0, "subscriber": 1,
		         "meanPeriodUs": 2000, "deadlineUs": 5000, "payload": 8}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.DeliveredSRT == 0 {
		t.Fatal("scenario carried no traffic")
	}
}

func TestFacadeWatchdogStates(t *testing.T) {
	if canec.NodeAlive.String() != "alive" || canec.NodeFailed.String() != "failed" {
		t.Fatal("state aliases broken")
	}
	sys, _ := canec.NewSystem(canec.SystemConfig{Nodes: 2, Seed: 1})
	wd := sys.Node(1).MW.Watchdog(2, nil)
	if wd.State(0) != canec.NodeAlive {
		t.Fatal("default watchdog state")
	}
	infos := sys.Node(1).MW.Channels()
	if len(infos) != 0 {
		t.Fatalf("fresh middleware has %d channels", len(infos))
	}
}
