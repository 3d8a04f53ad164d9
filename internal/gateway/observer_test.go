package gateway

import (
	"fmt"
	"reflect"
	"testing"

	"canec/internal/binding"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// chain joins n 4-node segments in a line on one kernel: hop i joins
// station 2 of segment i to station 3 of segment i+1, the two bridges on
// every middle segment are linked siblings, and subjTemp is forwarded
// from segment 0 towards segment n-1. hops[i] holds hop i's two ends.
func chain(t *testing.T, k *sim.Kernel, n int, observe func(seg int) *obs.Config) (segs []*core.System, hops [][2]*RemoteBridge) {
	t.Helper()
	for i := 0; i < n; i++ {
		segs = append(segs, segment(t, k, 4, observe(i)))
	}
	for i := 0; i+1 < n; i++ {
		a, b, err := Join(segs[i].Node(2).MW, segs[i+1].Node(3).MW,
			fmt.Sprint("seg", i), fmt.Sprint("seg", i+1), 50*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			hops[i-1][1].LinkSiblings(a)
		}
		if err := forwardSRT(a, b, subjTemp); err != nil {
			t.Fatal(err)
		}
		hops = append(hops, [2]*RemoteBridge{a, b})
	}
	return segs, hops
}

// outcome is what a federation run did: each subscriber's deliveries in
// order and each bridge end's counters.
type outcome struct {
	delivered [][]arrival
	ends      [][4]uint64 // Forwarded, Received, Dropped, Late
}

// diff describes the first way o and p differ, "" when they do not.
func (o outcome) diff(p outcome) string {
	for i := range o.delivered {
		if !reflect.DeepEqual(o.delivered[i], p.delivered[i]) {
			return fmt.Sprintf("segment %d delivers %d events without, %d with: %+v, %+v",
				i, len(o.delivered[i]), len(p.delivered[i]), o.delivered[i], p.delivered[i])
		}
	}
	if !reflect.DeepEqual(o.ends, p.ends) {
		return fmt.Sprintf("ends count (forwarded, received, dropped, late) %v without, %v with", o.ends, p.ends)
	}
	return ""
}

type arrival struct {
	payload string
	di      core.DeliveryInfo
}

// drive subscribes station 1 of every segment to subject, publishes
// five events on station 0 of the first segment, runs the kernel for a
// second and reports the outcome.
func drive(t *testing.T, k *sim.Kernel, segs []*core.System, subject binding.Subject, ends ...*RemoteBridge) outcome {
	t.Helper()
	out := outcome{delivered: make([][]arrival, len(segs))}
	for i, s := range segs {
		sub, _ := s.Node(1).MW.SRTEC(subject)
		got := &out.delivered[i]
		if err := sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{}, func(ev core.Event, di core.DeliveryInfo) {
			*got = append(*got, arrival{string(ev.Payload), di})
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pub, _ := segs[0].Node(0).MW.SRTEC(subject)
	if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		k.At(sim.Time(i+1)*20*sim.Millisecond, func() {
			pub.Publish(core.Event{Subject: subject, Payload: []byte{byte(i)},
				Attrs: core.EventAttrs{Deadline: segs[0].Node(0).MW.LocalTime() + 5*sim.Millisecond}})
		})
	}
	k.Run(sim.Second)
	for _, b := range ends {
		out.ends = append(out.ends, [4]uint64{b.Forwarded(), b.Received(), b.Dropped(), b.Late()})
	}
	return out
}

// Forwarding is a function of the federation alone: chains of
// gateway.Join segments, each transit segment's bridges linked, and the
// three-segment ring deliver the same events at the same instants, drop
// the same ones and count the same on every end whether or not each
// segment runs an observer. The hop limit holds untraced too: a chain
// delivers on its first maxHops segments and no further.
func TestForwardingIgnoresObservers(t *testing.T) {
	traced := func(seg int) *obs.Config {
		return &obs.Config{Trace: true, Metrics: true, TraceIDBase: uint64(seg+1) << 32}
	}
	untraced := func(int) *obs.Config { return nil }
	for _, n := range []int{2, 8, 9, 12} {
		t.Run(fmt.Sprint("chain", n), func(t *testing.T) {
			run := func(o func(int) *obs.Config) outcome {
				k := sim.NewKernel(7)
				segs, hops := chain(t, k, n, o)
				var ends []*RemoteBridge
				for _, h := range hops {
					ends = append(ends, h[0], h[1])
				}
				return drive(t, k, segs, subjTemp, ends...)
			}
			off, on := run(untraced), run(traced)
			if d := off.diff(on); d != "" {
				t.Fatalf("an observer changes the run: %s", d)
			}
			for i, got := range off.delivered {
				want := 5
				if i >= maxHops {
					want = 0
				}
				if len(got) != want {
					t.Errorf("segment %d delivered %d events, want %d", i, len(got), want)
				}
			}
		})
	}
	t.Run("ring", func(t *testing.T) {
		run := func(o func(int) *obs.Config) outcome {
			k := sim.NewKernel(11)
			segs, gs := ring(t, k, o)
			return drive(t, k, segs, ringSubject, gs[0][0], gs[0][1], gs[1][0], gs[1][1], gs[2][0], gs[2][1])
		}
		off, on := run(untraced), run(traced)
		if d := off.diff(on); d != "" {
			t.Fatalf("an observer changes the run: %s", d)
		}
		for i, got := range off.delivered {
			if len(got) != 5 {
				t.Errorf("segment %d delivered %d events, want 5", i, len(got))
			}
		}
	})
}
