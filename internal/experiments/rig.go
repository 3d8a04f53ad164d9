package experiments

import (
	"fmt"

	"canec/internal/baseline"
	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// The rig: the one implementation of each traffic shape the experiments
// share. The kernel runs equal-instant events in the order they were
// scheduled, so that order is part of every table: each helper does its
// look-ups, kernel scheduling and RNG draws in the order the experiments
// did them by hand, and an experiment that needs a step in between calls
// the halves (announce, subscribe) itself. A publish the middleware
// refuses is part of what an experiment measures (its exception handlers
// and counters see it), so the publishers drop Publish's error. See
// DESIGN.md §4.

// must returns v, or panics with err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// hrtAttrs are the channel attributes of every experiment's HRT
// channels: 7 payload bytes behind the middleware's header byte.
func hrtAttrs() core.ChannelAttrs { return core.ChannelAttrs{Payload: 7, Periodic: true} }

// nrtAttrs are a fragmenting NRT channel's attributes at priority prio.
func nrtAttrs(prio can.Prio) core.ChannelAttrs {
	return core.ChannelAttrs{Prio: prio, Fragmentation: true}
}

// wired panics on a wiring error, naming the step, class, subject and
// node: an experiment whose channel is not wired measures nothing.
func wired(err error, step string, class core.Class, subj binding.Subject, mw *core.Middleware) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %s %v subject %#x on node %d: %v",
			step, class, uint64(subj), mw.Node().Index, err))
	}
}

// announce looks up subj's channel of the given class on mw and
// announces it with attrs and the publisher's exception handler.
func announce(mw *core.Middleware, class core.Class, subj binding.Subject, attrs core.ChannelAttrs, exc core.ExceptionHandler) core.Channel {
	ch, err := mw.Channel(class, subj)
	if err == nil {
		err = ch.Announce(attrs, exc)
	}
	wired(err, "announce", class, subj, mw)
	return ch
}

// subscribe looks up subj's channel of the given class on mw and
// subscribes to it with attrs, notify and exc.
func subscribe(mw *core.Middleware, class core.Class, subj binding.Subject, attrs core.ChannelAttrs, notify core.NotificationHandler, exc core.ExceptionHandler) {
	ch, err := mw.Channel(class, subj)
	if err == nil {
		err = ch.Subscribe(attrs, core.SubscribeAttrs{}, notify, exc)
	}
	wired(err, "subscribe", class, subj, mw)
}

// pair announces subj on node pub and subscribes node sub to it, and
// returns the publisher's channel. notify nil subscribes a sink.
func pair(sys *core.System, class core.Class, subj binding.Subject, pub int, attrs core.ChannelAttrs, exc core.ExceptionHandler,
	sub int, subAttrs core.ChannelAttrs, notify core.NotificationHandler, subExc core.ExceptionHandler) core.Channel {
	ch := announce(sys.Node(pub).MW, class, subj, attrs, exc)
	if notify == nil {
		notify = func(core.Event, core.DeliveryInfo) {}
	}
	subscribe(sys.Node(sub).MW, class, subj, subAttrs, notify, subExc)
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

// localPub is an HRT round publisher timed by the clock of its slot's
// publisher: each publish schedules the next active round of slot at
// Epoch + r·Round + at read on that clock through WhenLocal, so the
// instants follow clock corrections. It stops before round rounds (0: no bound) and at the
// first instant at or after end.
type localPub struct {
	sys     *core.System
	ch      core.Channel
	slot    calendar.Slot
	at      sim.Duration
	rounds  int64
	end     sim.Time
	payload func(r int64) []byte
	// lc, when set, makes the publisher crash-aware: it is silent while
	// its node is down, and restart starts a new generation.
	lc  *core.Lifecycle
	gen int
}

// onLocal announces slot's subject on its publisher and starts publishing
// from its first active round.
func onLocal(p *localPub) *localPub {
	subj := binding.Subject(p.slot.Subject)
	p.ch = announce(p.sys.Node(p.node()).MW, core.HRT, subj, hrtAttrs(), nil)
	p.loop(p.slot.NextActive(0), 0)
	return p
}

func (p *localPub) node() int { return int(p.slot.Publisher) }

func (p *localPub) loop(r int64, g int) {
	if p.rounds > 0 && r >= p.rounds {
		return
	}
	sys := p.sys
	local := sys.Cfg.Epoch + sim.Time(r)*sys.Cfg.Calendar.Round + p.at
	at := sys.Clocks[p.node()].WhenLocal(sys.K.Now(), local)
	if at >= p.end {
		return
	}
	sys.K.At(at, func() {
		if (p.lc != nil && p.lc.Down(p.node())) || p.gen != g {
			return
		}
		_ = p.ch.Publish(core.Event{Subject: binding.Subject(p.slot.Subject), Payload: p.payload(r)})
		p.loop(p.slot.NextActive(r+1), g)
	})
}

// restart re-announces on the restarted node's middleware and re-anchors
// a new generation at the next round of the re-synced clock.
func (p *localPub) restart(mw *core.Middleware) {
	p.ch = announce(mw, core.HRT, binding.Subject(p.slot.Subject), hrtAttrs(), nil)
	p.gen++
	sys := p.sys
	rel := sys.Clocks[p.node()].Read(sys.K.Now()) - sys.Cfg.Epoch
	next := int64(1)
	if rel > 0 {
		next = int64(rel/sys.Cfg.Calendar.Round) + 1
	}
	p.loop(p.slot.NextActive(next), p.gen)
}

// reanchor restarts, in order, the publishers of a node that lc restarts.
func reanchor(lc *core.Lifecycle, pubs []*localPub) {
	lc.OnRestart = func(n int, mw *core.Middleware) {
		for _, p := range pubs {
			if p.node() == n {
				p.restart(mw)
			}
		}
	}
}

// srtFeed counts an SRT publish loop's publications.
type srtFeed struct{ sent, accepted int }

// srtLoop publishes on ch from node, first at start and then gap after
// each publish (exponentially distributed with mean gap when poisson),
// until the kernel reaches end. Deadline and expiration (0: none) are
// offsets from the publisher's local time, which payload also receives.
func srtLoop(sys *core.System, node int, ch core.Channel, subj binding.Subject, start, end sim.Time,
	gap sim.Duration, poisson bool, deadline, expiration sim.Duration, payload func(local sim.Time) []byte) *srtFeed {
	f := &srtFeed{}
	var loop func()
	loop = func() {
		if sys.K.Now() >= end {
			return
		}
		now := sys.Node(node).MW.LocalTime()
		attrs := core.EventAttrs{Deadline: now + deadline}
		if expiration > 0 {
			attrs.Expiration = now + expiration
		}
		if ch.Publish(core.Event{Subject: subj, Payload: payload(now), Attrs: attrs}) == nil {
			f.accepted++
		}
		f.sent++
		d := gap
		if poisson {
			d = sys.K.RNG().ExpDuration(gap)
		}
		sys.K.After(d, loop)
	}
	sys.K.At(start, loop)
	return f
}

// zeros8 is an SRT payload of eight zero bytes.
func zeros8(sim.Time) []byte { return make([]byte, 8) }

// nrtFeed tops the NRT channel ch up to depth queued chains of
// size-byte messages every millisecond from start until end, publishing
// at most perTick messages a tick (0: no cap).
func nrtFeed(sys *core.System, ch core.Channel, subj binding.Subject, size, depth, perTick int, start, end sim.Time) {
	q := ch.(*core.NRTEC)
	var feed func()
	feed = func() {
		if sys.K.Now() >= end {
			return
		}
		for i := 0; (perTick == 0 || i < perTick) && q.QueuedChains() < depth; i++ {
			_ = ch.Publish(core.Event{Subject: subj, Payload: make([]byte, size)})
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
	if err := net.Start(); err != nil {
		panic(err)
	}
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
	var feed func()
	feed = func() {
		if k.Now() >= horizon {
			return
		}
		for i := 0; i < 20; i++ {
			net.SubmitAsync(bulk, can.Frame{
				ID:   can.MakeID(254, can.TxNode(bulk), 0x7ff),
				Data: make([]byte, 8),
			}, func(ok bool, at sim.Time) {
				if ok {
					done(at)
				}
			})
		}
		k.After(sim.Millisecond, feed)
	}
	k.At(0, feed)
	k.Run(horizon)
}

// fiveSlots reserves five periodic 10 ms HRT channels at omission degree
// k: base and base+4 on node 1, so an outage of node 1 frees a sizable
// reservation, and base+1..base+3 on nodes 2-4.
func fiveSlots(base uint64, k int) *calendar.Calendar {
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = k
	var reqs []calendar.Request
	for _, s := range []struct {
		off  uint64
		node can.TxNode
	}{{0, 1}, {4, 1}, {1, 2}, {2, 3}, {3, 4}} {
		reqs = append(reqs, calendar.Request{Subject: base + s.off, Publisher: s.node, Payload: 8,
			Period: 10 * sim.Millisecond, Periodic: true})
	}
	return must(calendar.Plan(cfg, reqs))
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

// outagePubs drives every slot of sys's calendar from its publisher's
// clock, 300 µs before the slot's ready instant, until end, and
// subscribes node 5 to each; lc, when set, makes them crash-aware.
func outagePubs(sys *core.System, end sim.Time, lc *core.Lifecycle) []*localPub {
	var pubs []*localPub
	for _, s := range sys.Cfg.Calendar.Slots {
		pubs = append(pubs, onLocal(&localPub{sys: sys, slot: s,
			at: s.Ready - 300*sim.Microsecond, end: end, lc: lc,
			payload: func(r int64) []byte { return []byte{byte(r)} }}))
		subscribe(sys.Node(5).MW, core.HRT, binding.Subject(s.Subject), hrtAttrs(),
			func(core.Event, core.DeliveryInfo) {}, nil)
	}
	return pubs
}
