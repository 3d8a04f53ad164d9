package experiments

import (
	"fmt"

	"canec/internal/baseline"
	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/clock"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
	"canec/internal/stats"
)

// E11Recovery measures what a whole-node outage costs and what it gives
// back. A scripted crash takes one HRT publisher down; its restart drives
// the full recovery path (re-attach, re-join over the binding protocol,
// re-bind, clock re-sync, calendar re-entry). The experiment reports the
// recovery latency of that path and — the flip side the paper's
// arbitration-based design buys (§3.2, §5) — how many bytes of the dead
// node's reserved HRT bandwidth background NRT traffic reclaims during
// the outage. A TTCAN-style network with the same reservations leaves the
// dead node's exclusive windows idle, so it reclaims nothing.
func E11Recovery(seed uint64) Result {
	tbl := stats.Table{
		Title: "node crash/restart: recovery latency and outage bandwidth reclamation (k=2 copies)",
		Headers: []string{"outage ms", "rejoin ms", "service gap ms", "slots missed",
			"canec reclaimed B", "ttcan reclaimed B", "violations"},
	}
	base := e11Canec(seed, -1, -1)
	ttBase := e11TTCAN(seed, -1, -1)
	for _, outMS := range []float64{50, 100, 200} {
		down := e11CrashAt
		restart := down + sim.Duration(outMS*float64(sim.Millisecond))
		crash := e11Canec(seed, down, restart)
		tt := e11TTCAN(seed, down, restart)
		// Reclamation: extra best-effort bytes on the wire inside the
		// service gap, against the same window of the identical run without
		// a crash.
		reclaimed := e11BytesIn(crash.deliv, crash.downAt, crash.upAt) -
			e11BytesIn(base.deliv, crash.downAt, crash.upAt)
		ttReclaimed := e11BytesIn(tt.deliv, down, restart) -
			e11BytesIn(ttBase.deliv, down, restart)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", outMS),
			fmt.Sprintf("%.1f", float64(crash.upAt-crash.restartAt)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", float64(crash.upAt-crash.downAt)/float64(sim.Millisecond)),
			fmt.Sprintf("%d", crash.missed),
			fmt.Sprintf("%d", reclaimed),
			fmt.Sprintf("%d", ttReclaimed),
			fmt.Sprintf("%d", crash.violations),
		})
	}
	return Result{
		ID:    "E11",
		Title: "crash recovery latency and outage reclamation (§3.2, §5)",
		Table: tbl,
		Notes: []string{
			"rejoin = node_restart to node_up: re-attach, join, re-bind, clock re-sync",
			"service gap = node_down to node_up; slots missed = subscriber-side SlotMissed exceptions",
			"canec reclaims the dead publisher's slots through arbitration (extra bulk frame-data bytes); TTCAN leaves them idle",
			"violations = chaos trace invariant failures over the crash run (must be 0)",
		},
	}
}

const (
	e11Horizon = 1500 * sim.Millisecond
	e11CrashAt = 600 * sim.Millisecond
	// e11Chunk keeps best-effort deliveries fine-grained so a short outage
	// window still resolves reclaimed bytes.
	e11Chunk = 128
)

type e11Delivery struct {
	at sim.Time
	n  int
}

type e11Run struct {
	downAt, restartAt, upAt sim.Time
	missed                  int
	violations              int
	deliv                   []e11Delivery
	recs                    []obs.Record
}

// e11BytesIn sums best-effort wire bytes in [from, to).
func e11BytesIn(deliv []e11Delivery, from, to sim.Time) int {
	total := 0
	for _, d := range deliv {
		if d.at >= from && d.at < to {
			total += d.n
		}
	}
	return total
}

// e11Calendar reserves five periodic HRT channels with k=2 redundant
// copies, all on one rate (the TTCAN baseline models each slot as an
// exclusive window every cycle): two on node 1 — the crash victim, so its
// outage frees a sizable reservation — and one each on nodes 2-4.
func e11Calendar() (*calendar.Calendar, error) {
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = 2
	reqs := []calendar.Request{
		{Subject: 0x720, Publisher: 1, Payload: 8, Period: 10 * sim.Millisecond, Periodic: true},
		{Subject: 0x724, Publisher: 1, Payload: 8, Period: 10 * sim.Millisecond, Periodic: true},
		{Subject: 0x721, Publisher: 2, Payload: 8, Period: 10 * sim.Millisecond, Periodic: true},
		{Subject: 0x722, Publisher: 3, Payload: 8, Period: 10 * sim.Millisecond, Periodic: true},
		{Subject: 0x723, Publisher: 4, Payload: 8, Period: 10 * sim.Millisecond, Periodic: true},
	}
	return calendar.Plan(cfg, reqs)
}

// e11Canec runs the paper's system with saturating background NRT bulk
// and, when down >= 0, a scripted crash/restart of node 1.
func e11Canec(seed uint64, down, restart sim.Duration) e11Run {
	cal, err := e11Calendar()
	if err != nil {
		panic(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 8, Seed: seed, Calendar: cal,
		Sync:             clock.DefaultSyncConfig(),
		MaxDriftPPM:      100,
		MaxInitialOffset: 200 * sim.Microsecond,
		Observe:          obs.Default(),
	})
	if err != nil {
		panic(err)
	}
	var lc *core.Lifecycle
	var camp *chaos.Campaign
	if down >= 0 {
		lc = core.NewLifecycle(sys)
		camp, err = chaos.NewCampaign(sys, lc, chaos.Script{Events: []chaos.Event{
			{Kind: "crash", AtMS: float64(down) / float64(sim.Millisecond), Node: 1},
			{Kind: "restart", AtMS: float64(restart) / float64(sim.Millisecond), Node: 1},
		}})
		if err != nil {
			panic(err)
		}
	}
	isDown := func(n int) bool { return lc != nil && lc.Down(n) }
	end := sys.Cfg.Epoch + e11Horizon

	// HRT publishers, one per slot, re-anchored after a restart (see
	// internal/scenario for the pattern: the publish task schedules through
	// the node's local clock, so it dies with a crash and OnRestart starts a
	// fresh generation from the re-synced clock).
	pubs := make(map[binding.Subject]*core.HRTEC)
	restartFns := make(map[int][]func(mw *core.Middleware))
	for _, s := range cal.Slots {
		s := s
		subj := binding.Subject(s.Subject)
		node := int(s.Publisher)
		announce := func(mw *core.Middleware) error {
			ch, err := mw.HRTEC(subj)
			if err != nil {
				return err
			}
			if err := ch.Announce(core.ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
				return err
			}
			pubs[subj] = ch
			return nil
		}
		if err := announce(sys.Node(node).MW); err != nil {
			panic(err)
		}
		gen := 0
		var loop func(r int64, g int)
		loop = func(r int64, g int) {
			local := sys.Cfg.Epoch + sim.Time(r)*cal.Round + s.Ready - 300*sim.Microsecond
			at := sys.Clocks[node].WhenLocal(sys.K.Now(), local)
			if at >= end {
				return
			}
			sys.K.At(at, func() {
				if isDown(node) || gen != g {
					return
				}
				pubs[subj].Publish(core.Event{Subject: subj, Payload: []byte{byte(r)}})
				loop(s.NextActive(r+1), g)
			})
		}
		loop(s.NextActive(0), 0)
		restartFns[node] = append(restartFns[node], func(mw *core.Middleware) {
			if announce(mw) != nil {
				return
			}
			gen++
			rel := sys.Clocks[node].Read(sys.K.Now()) - sys.Cfg.Epoch
			next := int64(1)
			if rel > 0 {
				next = int64(rel/cal.Round) + 1
			}
			loop(s.NextActive(next), gen)
		})
		sub, err := sys.Node(5).MW.HRTEC(subj)
		if err != nil {
			panic(err)
		}
		if err := sub.Subscribe(core.ChannelAttrs{Payload: 7, Periodic: true}, core.SubscribeAttrs{},
			func(core.Event, core.DeliveryInfo) {}, nil); err != nil {
			panic(err)
		}
	}
	if lc != nil {
		lc.OnRestart = func(n int, mw *core.Middleware) {
			for _, f := range restartFns[n] {
				f(mw)
			}
		}
		camp.Install()
	}

	// Saturating background bulk, node 6 -> node 7, in small chains so the
	// outage window resolves reclaimed bytes.
	bulk, err := sys.Node(6).MW.NRTEC(0x7ff)
	if err != nil {
		panic(err)
	}
	if err := bulk.Announce(core.ChannelAttrs{Prio: 254, Fragmentation: true}, nil); err != nil {
		panic(err)
	}
	run := e11Run{downAt: -1, restartAt: -1, upAt: -1}
	sub, _ := sys.Node(7).MW.NRTEC(0x7ff)
	sub.Subscribe(core.ChannelAttrs{Fragmentation: true}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil)
	var feed func()
	feed = func() {
		if sys.K.Now() >= end {
			return
		}
		for bulk.QueuedChains() < 4 {
			bulk.Publish(core.Event{Subject: 0x7ff, Payload: make([]byte, e11Chunk)})
		}
		sys.K.After(sim.Millisecond, feed)
	}
	sys.K.At(0, feed)

	sys.Run(end)
	run.recs = sys.Obs.Records()
	for _, r := range run.recs {
		switch r.Stage {
		case obs.StageNodeDown:
			run.downAt = r.At
		case obs.StageNodeRestart:
			run.restartAt = r.At
		case obs.StageNodeUp:
			run.upAt = r.At
		case obs.StageMissed:
			run.missed++
		case obs.StageTxOK:
			// Account the bulk transfer at frame granularity (8 data bytes
			// per fragment): chain-completion timestamps are too coarse to
			// resolve a short outage window.
			if int(r.Node) == 6 {
				run.deliv = append(run.deliv, e11Delivery{at: r.At, n: 8})
			}
		}
	}
	if camp != nil {
		run.violations = len(camp.Finish(0).Violations)
	}
	return run
}

// e11TTCAN runs the TTCAN-style baseline with the same reservations: the
// crash stops node 1's exclusive frames, but the windows stay reserved —
// the arbitration window, where the bulk traffic lives, does not grow.
func e11TTCAN(seed uint64, down, restart sim.Duration) e11Run {
	cal, err := e11Calendar()
	if err != nil {
		panic(err)
	}
	cfg := cal.Cfg
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	for i := 0; i < 8; i++ {
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
		wi, s := wi, s
		var loop func(r int64)
		loop = func(r int64) {
			at := sim.Time(r)*cal.Round + s.Ready - 100*sim.Microsecond
			if at < 0 {
				at = 0
			}
			if at >= e11Horizon {
				return
			}
			k.At(at, func() {
				crashed := down >= 0 && k.Now() >= down && k.Now() < restart
				if !(crashed && s.Publisher == 1) {
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
	var run e11Run
	var feed func()
	feed = func() {
		if k.Now() >= e11Horizon {
			return
		}
		for i := 0; i < 20; i++ {
			net.SubmitAsync(6, can.Frame{
				ID:   can.MakeID(254, 6, 0x7ff),
				Data: make([]byte, 8),
			}, func(ok bool, at sim.Time) {
				if ok {
					run.deliv = append(run.deliv, e11Delivery{at: at, n: 8})
				}
			})
		}
		k.After(sim.Millisecond, feed)
	}
	k.At(0, feed)
	k.Run(e11Horizon)
	return run
}
