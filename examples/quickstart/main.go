// Quickstart: a three-node CAN segment with one hard real-time event
// channel. Node 0 publishes a temperature reading every 10 ms round; the
// two other nodes subscribe. The output shows the headline property of
// HRT channels: events are delivered to the application exactly at the
// slot's delivery deadline, so the application-visible period is
// jitter-free even though the network-level arrival times wander.
package main

import (
	"encoding/binary"
	"fmt"

	"canec"
)

const tempSubject canec.Subject = 0x1001

func main() {
	// 1. Off-line configuration: one reserved slot per round for the
	//    temperature channel, published by node 0, tolerating one
	//    omission fault per transmission (the default).
	calCfg := canec.DefaultCalendarConfig()
	cal, err := canec.PackCalendar(calCfg, 10*canec.Millisecond,
		canec.Slot{Subject: uint64(tempSubject), Publisher: 0, Payload: 8, Periodic: true})
	if err != nil {
		panic(err)
	}

	// 2. Build the system: 3 nodes, drifting clocks, synchronization on.
	sys, err := canec.NewSystem(canec.SystemConfig{
		Nodes:            3,
		Seed:             42,
		Calendar:         cal,
		Sync:             canec.DefaultSyncConfig(),
		MaxDriftPPM:      100,
		MaxInitialOffset: 200 * canec.Microsecond,
	})
	if err != nil {
		panic(err)
	}

	// 3. Publisher: announce, then publish a fresh reading each round.
	pub, err := sys.Node(0).MW.HRTEC(tempSubject)
	if err != nil {
		panic(err)
	}
	if err := pub.Announce(canec.ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		panic(err)
	}
	reading := uint16(2500) // centi-degrees
	var publish func(round int64)
	publish = func(round int64) {
		if round >= 50 {
			return
		}
		// Be ready 100 µs before the slot (paper: events must be ready at
		// the latest-ready instant).
		local := sys.Cfg.Epoch + canec.Time(round)*cal.Round - 100*canec.Microsecond
		sys.K.At(sys.Clocks[0].WhenLocal(sys.K.Now(), local), func() {
			payload := make([]byte, 2)
			binary.LittleEndian.PutUint16(payload, reading)
			reading += 7
			if err := pub.Publish(canec.Event{Subject: tempSubject, Payload: payload}); err != nil {
				fmt.Println("publish:", err)
			}
			publish(round + 1)
		})
	}
	publish(0)

	// 4. Subscribers: notification handler runs at the delivery deadline.
	var lastAt canec.Time
	n := 0
	for i := 1; i <= 2; i++ {
		i := i
		sub, err := sys.Node(i).MW.HRTEC(tempSubject)
		if err != nil {
			panic(err)
		}
		err = sub.Subscribe(canec.ChannelAttrs{Payload: 7, Periodic: true}, canec.SubscribeAttrs{},
			func(ev canec.Event, di canec.DeliveryInfo) {
				if i != 1 {
					return // print only node 1's view
				}
				temp := binary.LittleEndian.Uint16(ev.Payload)
				dPeriod := canec.Duration(0)
				if lastAt != 0 {
					dPeriod = di.DeliveredAt - lastAt
				}
				lastAt = di.DeliveredAt
				if n < 5 || n%10 == 0 {
					fmt.Printf("round %2d: temp=%2d.%02d°C delivered at %v (period %d µs, network arrival %v)\n",
						n, temp/100, temp%100, di.DeliveredAt, dPeriod.Micros(), di.ArrivedAt)
				}
				n++
			},
			func(e canec.Exception) { fmt.Println("exception:", e.Kind, e.Detail()) })
		if err != nil {
			panic(err)
		}
	}

	// 5. Run 50 rounds of virtual time.
	sys.Run(sys.Cfg.Epoch + 50*cal.Round - 1)

	c := sys.TotalCounters()
	fmt.Printf("\npublished=%d delivered=%d (2 subscribers) slotMissed=%d late=%d\n",
		c.PublishedHRT, c.DeliveredHRT, c.SlotMissed, c.LateHRTDeliveries)
	fmt.Printf("bus utilization: %.1f%%\n", 100*sys.Utilization())
}
