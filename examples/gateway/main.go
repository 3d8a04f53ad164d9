// Gateway: event channels spanning multiple networks (§2.2.1).
//
// Two CAN segments — a machine-room field bus and a supervision bus —
// share one simulated time base and are bridged by a gateway node. A
// temperature subject published on the field bus is forwarded to the
// supervision segment; a command subject flows the other way. A
// supervision-side subscriber demonstrates the paper's origin filtering:
// by excluding the gateway's node number it receives only events
// generated on its own segment, exactly the "only publishers in the same
// network" attribute of §2.2.1.
package main

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/sim"
)

func main() {
	const (
		temp binding.Subject = 0x701 // field → supervision
		cmd  binding.Subject = 0x702 // supervision → field
		stat binding.Subject = 0x703 // supervision-local status
	)

	k := sim.NewKernel(2026)
	field, err := core.NewSystem(core.SystemConfig{Nodes: 4, Kernel: k})
	if err != nil {
		panic(err)
	}
	super, err := core.NewSystem(core.SystemConfig{Nodes: 4, Kernel: k})
	if err != nil {
		panic(err)
	}
	// Gateway occupies node 3 on both segments; store-and-forward 100 µs.
	// Each subject is announced on the segment it enters before the
	// gateway subscribes to it on the segment it leaves.
	gwField, gwSuper, err := gateway.Join(field.Node(3).MW, super.Node(3).MW, "field", "supervision", 100*sim.Microsecond)
	if err != nil {
		panic(err)
	}
	for _, leg := range []struct {
		from, to *gateway.RemoteBridge
		subject  binding.Subject
	}{{gwField, gwSuper, temp}, {gwSuper, gwField, cmd}} {
		if err := leg.to.Announce(core.SRT, leg.subject, core.ChannelAttrs{}); err != nil {
			panic(err)
		}
		if err := leg.from.Forward(core.SRT, leg.subject, core.ChannelAttrs{}); err != nil {
			panic(err)
		}
	}

	// Field-bus sensor publishes temperature every 5 ms.
	sensor, _ := field.Node(0).MW.SRTEC(temp)
	sensor.Announce(core.ChannelAttrs{}, nil)
	n := 0
	var sense func()
	sense = func() {
		if k.Now() > 500*sim.Millisecond {
			return
		}
		now := field.Node(0).MW.LocalTime()
		sensor.Publish(core.Event{Subject: temp, Payload: []byte{byte(20 + n%5)},
			Attrs: core.EventAttrs{Deadline: now + 5*sim.Millisecond}})
		n++
		k.After(5*sim.Millisecond, sense)
	}
	k.At(0, sense)

	// Supervision console receives forwarded temperatures and issues a
	// command back whenever a reading exceeds the threshold.
	console, _ := super.Node(0).MW.SRTEC(temp)
	cmdPub, _ := super.Node(0).MW.SRTEC(cmd)
	cmdPub.Announce(core.ChannelAttrs{}, nil)
	tempsSeen, cmdsSent := 0, 0
	console.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(ev core.Event, di core.DeliveryInfo) {
			tempsSeen++
			if ev.Payload[0] >= 23 {
				now := super.Node(0).MW.LocalTime()
				cmdPub.Publish(core.Event{Subject: cmd, Payload: []byte{0xC0},
					Attrs: core.EventAttrs{Deadline: now + 10*sim.Millisecond}})
				cmdsSent++
			}
		}, nil)

	// Field actuator receives the commands.
	act, _ := field.Node(1).MW.SRTEC(cmd)
	cmdsGot := 0
	act.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) { cmdsGot++ }, nil)

	// Supervision-local status traffic plus the origin-filtered view.
	statPub, _ := super.Node(1).MW.SRTEC(stat)
	statPub.Announce(core.ChannelAttrs{}, nil)
	var pulse func()
	statSent := 0
	pulse = func() {
		if k.Now() > 500*sim.Millisecond {
			return
		}
		now := super.Node(1).MW.LocalTime()
		statPub.Publish(core.Event{Subject: stat, Payload: []byte{0x57},
			Attrs: core.EventAttrs{Deadline: now + 20*sim.Millisecond}})
		statSent++
		k.After(25*sim.Millisecond, pulse)
	}
	k.At(0, pulse)

	gwNode := super.Node(3).Ctrl.Node()
	localOnly, everything := 0, 0
	// Node 2 subscribes twice conceptually; since one middleware holds one
	// channel state per subject, use the per-event origin check in a
	// single subscription for the "everything" count and the middleware
	// filter for the local-only count on different subjects.
	viewTemp, _ := super.Node(2).MW.SRTEC(temp)
	viewTemp.Subscribe(core.ChannelAttrs{},
		core.SubscribeAttrs{ExcludePublishers: []can.TxNode{gwNode}},
		func(core.Event, core.DeliveryInfo) { localOnly++ }, nil)
	viewStat, _ := super.Node(2).MW.SRTEC(stat)
	viewStat.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) { everything++ }, nil)

	k.Run(600 * sim.Millisecond)

	fmt.Printf("field bus: %d temperature events published\n", n)
	fmt.Printf("gateway:   %d events forwarded across segments, %d dropped\n",
		gwField.Forwarded()+gwSuper.Forwarded(), gwField.Dropped()+gwSuper.Dropped())
	fmt.Printf("supervision console: %d temperatures received, %d commands issued\n",
		tempsSeen, cmdsSent)
	fmt.Printf("field actuator: %d commands received (via gateway)\n", cmdsGot)
	fmt.Printf("origin filtering on supervision node 2:\n")
	fmt.Printf("  temp events excluding gateway origin: %d (all %d temps were remote ⇒ filtered out)\n",
		localOnly, tempsSeen)
	fmt.Printf("  local status events received:         %d of %d sent\n", everything, statSent)
	fmt.Printf("segment utilization: field %.1f%%, supervision %.1f%%\n",
		100*field.Utilization(), 100*super.Utilization())
}
