package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/obs"
	"canec/internal/sim"
)

// observedSystem is idealSystem with the observability layer enabled.
func observedSystem(t *testing.T, nodes int, cfg SystemConfig) *System {
	t.Helper()
	cfg.Nodes = nodes
	cfg.Seed = 1
	cfg.Observe = obs.Default()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// chainOf extracts the stage sequence of one trace ID, asserting
// non-decreasing timestamps along the way.
func chainOf(t *testing.T, recs []obs.Record, id uint64) []obs.Stage {
	t.Helper()
	var stages []obs.Stage
	var prev sim.Time
	for _, r := range recs {
		if r.ID != id {
			continue
		}
		if r.At < prev {
			t.Errorf("trace %d: timestamp decreases at %q: %d < %d", id, r.Stage, r.At, prev)
		}
		prev = r.At
		stages = append(stages, r.Stage)
	}
	return stages
}

func hasStage(stages []obs.Stage, s obs.Stage) bool {
	for _, st := range stages {
		if st == s {
			return true
		}
	}
	return false
}

func TestObservedSRTLifecycle(t *testing.T) {
	sys := observedSystem(t, 2, SystemConfig{})
	pub, err := sys.Node(0).MW.SRTEC(subjDiag)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := sys.Node(1).MW.SRTEC(subjDiag)
	if err != nil {
		t.Fatal(err)
	}
	var got []DeliveryInfo
	err = sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
		func(_ Event, di DeliveryInfo) { got = append(got, di) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.K.At(1*sim.Millisecond, func() {
		if err := pub.Publish(Event{Subject: subjDiag, Payload: []byte{1, 2}}); err != nil {
			t.Error(err)
		}
	})
	sys.Run(10 * sim.Millisecond)

	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if got[0].PublishedAt != 1*sim.Millisecond {
		t.Errorf("DeliveryInfo.PublishedAt = %v, want 1ms", got[0].PublishedAt)
	}

	recs := sys.Obs.Records()
	var id uint64
	for _, r := range recs {
		if r.Stage == obs.StagePublished {
			id = r.ID
			break
		}
	}
	if id == 0 {
		t.Fatal("no published record found")
	}
	stages := chainOf(t, recs, id)
	for _, want := range []obs.Stage{
		obs.StagePublished, obs.StageEnqueued, obs.StageTxStart,
		obs.StageTxOK, obs.StageRx, obs.StageDelivered,
	} {
		if !hasStage(stages, want) {
			t.Errorf("chain missing stage %q: %v", want, stages)
		}
	}

	// The bus-level records must carry the resolved subject.
	for _, r := range recs {
		if r.ID == id && r.Stage == obs.StageTxOK && r.Subject != uint64(subjDiag) {
			t.Errorf("tx_ok subject = %#x, want %#x", r.Subject, uint64(subjDiag))
		}
	}

	var buf bytes.Buffer
	if err := sys.Obs.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`canec_events_published_total{class="SRT"} 1`,
		`canec_events_delivered_total{class="SRT"} 1`,
		`canec_e2e_latency_microseconds_count{class="SRT",subject="0x2001"} 1`,
		`canec_band_busy_ns_total{band="srt"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestObservedHRTLifecycle(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := observedSystem(t, 2, SystemConfig{Calendar: cal, Epoch: 1 * sim.Millisecond})
	pub, err := sys.Node(0).MW.HRTEC(subjTemp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := sys.Node(1).MW.HRTEC(subjTemp)
	if err != nil {
		t.Fatal(err)
	}
	var got []DeliveryInfo
	err = sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{},
		func(_ Event, di DeliveryInfo) { got = append(got, di) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 3; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			if err := pub.Publish(Event{Subject: subjTemp, Payload: []byte{9}}); err != nil {
				t.Error(err)
			}
		})
	}
	sys.Run(sys.Cfg.Epoch + 3*cal.Round + cal.Round/2)

	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(got))
	}
	for i, di := range got {
		if di.PublishedAt == 0 || di.PublishedAt >= di.DeliveredAt {
			t.Errorf("delivery %d: PublishedAt %v not before DeliveredAt %v",
				i, di.PublishedAt, di.DeliveredAt)
		}
	}

	// Every delivered HRT event has the complete published→delivered chain.
	recs := sys.Obs.Records()
	delivered := 0
	for _, r := range recs {
		if r.Stage != obs.StageDelivered {
			continue
		}
		delivered++
		stages := chainOf(t, recs, r.ID)
		for _, want := range []obs.Stage{
			obs.StagePublished, obs.StageEnqueued, obs.StageTxStart,
			obs.StageTxOK, obs.StageRx, obs.StageDelivered,
		} {
			if !hasStage(stages, want) {
				t.Errorf("trace %d missing stage %q: %v", r.ID, want, stages)
			}
		}
	}
	if delivered != 3 {
		t.Errorf("delivered records = %d, want 3", delivered)
	}

	var buf bytes.Buffer
	if err := sys.Obs.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`canec_hrt_slots_total{outcome="fired"} 3`,
		`canec_band_busy_ns_total{band="hrt"}`,
		`canec_queue_depth{node="0",queue="hrt"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestObserveDisabledCarriesNoObserver(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	if sys.Obs != nil {
		t.Fatal("observer present without Observe config")
	}
	if sys.Obs.Records() != nil || sys.Obs.Registry() != nil {
		t.Fatal("nil observer leaked components")
	}
	if sys.Bus.TraceArbitration {
		t.Fatal("arbitration tracing enabled without observer")
	}
}

// delivery is one notification as a subscriber saw it.
type delivery struct {
	node    int
	subject binding.Subject
	di      DeliveryInfo
}

// relayedFrom is the federation header mixedDeliveries publishes with.
var relayedFrom = can.Origin{End: 40 * sim.Millisecond, Segment: 2, Node: 9, Hops: 3}

// mixedDeliveries runs five events of each class among three stations,
// each class published by one station and subscribed by the other two,
// all with the federation header relayedFrom, and logs every
// notification in order.
func mixedDeliveries(t *testing.T, observe *obs.Config) []delivery {
	t.Helper()
	cal := testCalendar(t, 1)
	sys, err := NewSystem(SystemConfig{Nodes: 3, Seed: 1, Calendar: cal, Epoch: sim.Millisecond, Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	var log []delivery
	for _, c := range []struct {
		class   Class
		subject binding.Subject
		pub     int
		attrs   ChannelAttrs
		payload []byte
		at      sim.Duration // publish offset from each round's start
	}{
		{HRT, subjTemp, 0, ChannelAttrs{Payload: 7, Periodic: true}, []byte{1, 2, 3}, -100 * sim.Microsecond},
		{SRT, subjDiag, 1, ChannelAttrs{}, []byte{4, 5}, 2 * sim.Millisecond},
		{NRT, subjBulk, 2, ChannelAttrs{Prio: 252, Fragmentation: true}, bulk(0x10, 40), 3 * sim.Millisecond},
	} {
		pub, err := sys.Node(c.pub).MW.Channel(c.class, c.subject)
		if err == nil {
			err = pub.Announce(c.attrs, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 3; n++ {
			if n == c.pub {
				continue
			}
			n := n
			sub, err := sys.Node(n).MW.Channel(c.class, c.subject)
			if err == nil {
				err = sub.Subscribe(c.attrs, SubscribeAttrs{}, func(ev Event, di DeliveryInfo) {
					log = append(log, delivery{n, ev.Subject, di})
				}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ev := WithOrigin(Event{Subject: c.subject, Payload: c.payload}, relayedFrom)
		for r := 0; r < 5; r++ {
			sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round+c.at, func() {
				if err := pub.Publish(ev); err != nil {
					t.Error(err)
				}
			})
		}
	}
	sys.Run(sys.Cfg.Epoch + 6*cal.Round)
	return log
}

// TestPublishedAtWithoutObserver: the publish instant rides the event, so
// every delivery of every class reports it, and attaching an observer
// changes no delivery at all.
func TestPublishedAtWithoutObserver(t *testing.T) {
	off := mixedDeliveries(t, nil)
	on := mixedDeliveries(t, obs.Default())
	if len(off) != 30 {
		t.Fatalf("%d deliveries, want 30 (5 events × 3 classes × 2 subscribers)", len(off))
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("deliveries differ with an observer attached:\nwithout %+v\nwith    %+v", off, on)
	}
	for i, d := range off {
		if d.di.PublishedAt <= 0 || d.di.PublishedAt > d.di.DeliveredAt {
			t.Errorf("delivery %d (node %d, subject %#x): PublishedAt %v, DeliveredAt %v",
				i, d.node, uint64(d.subject), d.di.PublishedAt, d.di.DeliveredAt)
		}
	}
}

// TestOriginRidesEveryClass: the federation header an event is published
// with reaches every subscriber of every class, through the HRT stash and
// the NRT fragment chain alike.
func TestOriginRidesEveryClass(t *testing.T) {
	for i, d := range mixedDeliveries(t, nil) {
		if d.di.Origin != relayedFrom {
			t.Errorf("delivery %d (node %d, subject %#x): Origin %+v, want %+v",
				i, d.node, uint64(d.subject), d.di.Origin, relayedFrom)
		}
	}
}

// TestObservedSRTRetainsNoPublishState: with the publish instant on the
// event, a metrics-only observer keeps nothing per event to compute
// latency. 200k SRT publish→delivery cycles allocate 0 B on amd64;
// publish times kept on the observer, keyed by trace ID, allocated
// 9,454,504 B for them.
func TestObservedSRTRetainsNoPublishState(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Nodes: 2, Seed: 1, Epoch: sim.Millisecond,
		Observe: &obs.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := sys.Node(0).MW.SRTEC(subjDiag)
	if err := pub.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	sub, _ := sys.Node(1).MW.SRTEC(subjDiag)
	delivered := 0
	if err := sub.Subscribe(ChannelAttrs{}, SubscribeAttrs{},
		func(Event, DeliveryInfo) { delivered++ }, nil); err != nil {
		t.Fatal(err)
	}
	ev := Event{Subject: subjDiag, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	cycle := func() {
		if err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
		sys.Run(sys.K.Now() + 200*sim.Microsecond)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	const cycles, bound = 200_000, 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if delivered != 100+cycles {
		t.Fatalf("delivered %d, want %d", delivered, 100+cycles)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("%d observed cycles allocated %d B, want at most %d", cycles, got, bound)
	}
}
