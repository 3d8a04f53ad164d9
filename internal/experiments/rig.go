package experiments

import (
	"canec/internal/baseline"
	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/scenario"
	"canec/internal/sim"
)

// The rig: the traffic shapes only the experiments use. The ones
// scenario.Build uses too (announce, subscribe, the HRT round publisher on
// its station's clock, the SRT loop) are in internal/scenario. Each helper
// keeps the order of look-ups, kernel scheduling and RNG draws the tables
// were measured with, and the publishers drop Publish's error as the
// shared ones do. See DESIGN.md §4.

// must returns v, or panics with err.
func must[T any](v T, err error) T {
	wired(err)
	return v
}

// wired panics on a wiring error, which names the step, class, subject
// and node: an experiment whose channel is not wired measures nothing.
func wired(err error) {
	if err != nil {
		panic(err)
	}
}

// hrtAttrs are the channel attributes of every experiment's HRT
// channels: 7 payload bytes behind the middleware's header byte.
func hrtAttrs() core.ChannelAttrs { return core.ChannelAttrs{Payload: 7, Periodic: true} }

// nrtAttrs are a fragmenting NRT channel's attributes at priority prio.
func nrtAttrs(prio can.Prio) core.ChannelAttrs {
	return core.ChannelAttrs{Prio: prio, Fragmentation: true}
}

// pair announces subj on node pub and subscribes node sub to it, and
// returns the publisher's channel. notify nil subscribes a sink.
func pair(sys *core.System, class core.Class, subj binding.Subject, pub int, attrs core.ChannelAttrs, exc core.ExceptionHandler,
	sub int, subAttrs core.ChannelAttrs, notify core.NotificationHandler, subExc core.ExceptionHandler) core.Channel {
	ch := must(scenario.Announce(sys.Node(pub).MW, class, subj, attrs, exc))
	if notify == nil {
		notify = func(core.Event, core.DeliveryInfo) {}
	}
	wired(scenario.Subscribe(sys.Node(sub).MW, class, subj, subAttrs, notify, subExc))
	return ch
}

// onGrid schedules, up front, one HRT publish on ch per round r in
// [0, rounds) at Epoch + r·Round + at on the kernel's clock (at < 0: a
// lead before the round). payload(r) runs at the publish instant; a nil
// result skips that round.
func onGrid(sys *core.System, ch core.Channel, subj binding.Subject, rounds int64, at sim.Duration, payload func(r int64) []byte) {
	round := sys.Cfg.Calendar.Round
	for r := int64(0); r < rounds; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*round+at, func() {
			if p := payload(r); p != nil {
				_ = ch.Publish(core.Event{Subject: subj, Payload: p})
			}
		})
	}
}

// zeros8 is an SRT payload of eight zero bytes.
func zeros8(sim.Time) []byte { return make([]byte, 8) }

// nrtFeed tops the NRT channel ch up to depth queued chains of
// size-byte messages every millisecond from start until end, publishing
// at most perTick messages a tick (0: no cap).
func nrtFeed(sys *core.System, ch core.Channel, subj binding.Subject, size, depth, perTick int, start, end sim.Time) {
	q := ch.(*core.NRTEC)
	// Every message is size zero bytes, and Publish copies them, so one
	// buffer serves the whole feed.
	payload := make([]byte, size)
	var feed func()
	feed = func() {
		if sys.K.Now() >= end {
			return
		}
		for i := 0; (perTick == 0 || i < perTick) && q.QueuedChains() < depth; i++ {
			_ = ch.Publish(core.Event{Subject: subj, Payload: payload})
		}
		sys.K.After(sim.Millisecond, feed)
	}
	sys.K.At(start, feed)
}

// ttcan runs the TTCAN-style baseline with cal's reservations on a fresh
// kernel and bus of nodes stations until horizon: one exclusive window
// per slot and one arbitration window after the last. In every active
// round each slot's publisher fills its window with 8 zero bytes at
// 100 µs before the window when send says so; station bulk submits
// twenty 8-byte frames to the arbitration window every millisecond and
// done receives each success's instant.
func ttcan(seed uint64, cal *calendar.Calendar, nodes, bulk int, horizon sim.Time,
	send func(k *sim.Kernel, s calendar.Slot) bool, done func(at sim.Time)) {
	cfg := cal.Cfg
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	for i := 0; i < nodes; i++ {
		bus.Attach(can.TxNode(i))
	}
	net := baseline.NewTTCAN(k, bus, cal.Round)
	for _, s := range cal.Slots {
		net.AddExclusive(s.Ready, s.End(cfg)-s.Ready, int(s.Publisher))
	}
	last := cal.Slots[len(cal.Slots)-1]
	arbStart := last.End(cfg) + cfg.GapMin
	if arbStart < cal.Round {
		net.AddArbitration(arbStart, cal.Round-arbStart)
	}
	wired(net.Start())
	for wi, s := range cal.Slots {
		var loop func(r int64)
		loop = func(r int64) {
			at := sim.Time(r)*cal.Round + s.Ready - 100*sim.Microsecond
			if at < 0 {
				at = 0
			}
			if at >= horizon {
				return
			}
			k.At(at, func() {
				if send(k, s) {
					net.SetExclusive(wi, can.Frame{
						ID:   can.MakeID(0, s.Publisher, can.Etag(s.Subject&0x3fff)),
						Data: make([]byte, 8),
					})
				}
				loop(s.NextActive(r + 1))
			})
		}
		loop(s.NextActive(0))
	}
	// SubmitAsync clones the frame, so every submit shares one frame and
	// one completion.
	frame := can.Frame{ID: can.MakeID(254, can.TxNode(bulk), 0x7ff), Data: make([]byte, 8)}
	sent := func(ok bool, at sim.Time) {
		if ok {
			done(at)
		}
	}
	var feed func()
	feed = func() {
		if k.Now() >= horizon {
			return
		}
		for i := 0; i < 20; i++ {
			net.SubmitAsync(bulk, frame, sent)
		}
		k.After(sim.Millisecond, feed)
	}
	k.At(0, feed)
	k.Run(horizon)
}

// e1System is the one-channel segment of E1, E2, E6 and A2: nodes
// stations on perfect clocks, round 0 at 1 ms, and one 8-byte slot for
// e1Subject on node 0 in a 10 ms round packed under cfg.
func e1System(cfg calendar.Config, nodes int, seed uint64) (*core.System, *calendar.Calendar) {
	cal := must(calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(e1Subject), Publisher: 0, Payload: 8, Periodic: true}))
	return must(core.NewSystem(core.SystemConfig{Nodes: nodes, Seed: seed, Calendar: cal, Epoch: sim.Millisecond})), cal
}

// fiveStreams are the outage experiments' five periodic 10 ms HRT
// streams, all subscribed by node 5: base and base+4 on node 1, so an
// outage of node 1 frees a sizable reservation, and base+1..base+3 on
// nodes 2-4. Round r publishes the one byte r.
func fiveStreams(base uint64) []scenario.HRTStream {
	var out []scenario.HRTStream
	for _, s := range []struct {
		off  uint64
		node int
	}{{0, 1}, {4, 1}, {1, 2}, {2, 3}, {3, 4}} {
		out = append(out, scenario.HRTStream{Subject: base + s.off, Publisher: s.node, Subscriber: 5,
			PeriodUs: 10_000, Payload: 7, RoundPayload: func(r int64) []byte { return []byte{byte(r)} }})
	}
	return out
}

// txTimes returns the instants of node's successful transmissions in
// recs.
func txTimes(recs []obs.Record, node int) []sim.Time {
	var out []sim.Time
	for _, r := range recs {
		if r.Stage == obs.StageTxOK && int(r.Node) == node {
			out = append(out, r.At)
		}
	}
	return out
}

// bytesIn sums the frame-data bytes of 8-byte frames sent at times in
// [from, to): best-effort bytes at frame granularity, since chain
// completions are too coarse to resolve a short outage window.
func bytesIn(times []sim.Time, from, to sim.Time) int {
	n := 0
	for _, t := range times {
		if t >= from && t < to {
			n += 8
		}
	}
	return n
}
