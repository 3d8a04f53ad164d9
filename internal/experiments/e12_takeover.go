package experiments

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/chaos"
	"canec/internal/clock"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e12MasterFailover measures what losing the time master costs. A scripted
// crash kills the acting master mid-run; the ranked backup takes the role
// over after FailoverRounds missed rounds, and every follower rides out the
// gap in holdover, its uncertainty growing at 2·d_max. The experiment
// reports, per missed-round tolerance: the takeover latency, how long
// followers spent in holdover, and the HRT delivery jitter — measured
// against the next master's timebase — before the crash versus during the
// holdover window, next to the analytical uncertainty bound that must
// contain it. The core middleware widens its HRT lateness check by exactly
// that bound (the "hrt widened" column counts such checks), so a correctly
// holding-over system delivers zero late events across the failover.
func e12MasterFailover(seed uint64) Result {
	tbl := stats.Table{
		Title: "time-master failover: takeover latency and HRT jitter in holdover",
		Headers: []string{"failover rounds", "takeover ms", "holdover ms",
			"synced jit us", "holdover jit us", "bound us", "hrt widened", "late", "violations"},
	}
	for _, fr := range []int{2, 5, 10} {
		r := e12Run(seed, fr)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", fr),
			fmt.Sprintf("%.1f", float64(r.takeoverAt-e12CrashAt)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.holdover)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.syncedJit)/float64(sim.Microsecond)),
			fmt.Sprintf("%.1f", float64(r.holdoverJit)/float64(sim.Microsecond)),
			fmt.Sprintf("%.1f", float64(r.bound)/float64(sim.Microsecond)),
			fmt.Sprintf("%d", r.widened),
			fmt.Sprintf("%d", r.late),
			fmt.Sprintf("%d", r.violations),
		})
	}
	return Result{
		ID:    "E12",
		Title: "time-master failover: takeover latency and holdover jitter (§3.2)",
		Table: tbl,
		Notes: []string{
			"takeover = master_crash to the ranked backup's first SYNC as the new master",
			"holdover = longest follower enter-to-exit interval; jitter = HRT delivery deviation from the calendar grid read on the next master's clock",
			"bound = 2·U(elapsed), U the holdover uncertainty model (both clocks hold over until takeover); holdover jitter must stay inside it",
			"hrt widened = HRT lateness checks that ran with slack widened beyond 2π; late must be 0 — holdover widening absorbs the drift",
			"violations = chaos trace invariant failures (takeover window, holdover closure; must be 0)",
		},
	}
}

const (
	e12Horizon = 1800 * sim.Millisecond
	e12CrashAt = 600 * sim.Millisecond
)

type e12Result struct {
	takeoverAt  sim.Time
	holdover    sim.Duration
	syncedJit   sim.Duration
	holdoverJit sim.Duration
	bound       sim.Duration
	widened     uint64
	late        int
	violations  int
}

// e12Calendar reserves E12's two 10 ms channels, published by nodes 4
// and 5.
func e12Calendar() *calendar.Calendar {
	return must(calendar.PackSequential(calendar.DefaultConfig(), 10*sim.Millisecond,
		calendar.Slot{Subject: 0x730, Publisher: 4, Payload: 8, Periodic: true},
		calendar.Slot{Subject: 0x731, Publisher: 5, Payload: 8, Periodic: true}))
}

// e12Run drives an 8-station system (agent on 0, master on 1, backups 2
// and 3, HRT publishers 4 and 5, subscriber 6) through one master
// crash/restart cycle with the given missed-round tolerance.
func e12Run(seed uint64, failoverRounds int) e12Result {
	cal := e12Calendar()
	sync := clock.DefaultSyncConfig()
	sync.Period = 40 * sim.Millisecond
	sys := must(core.NewSystem(core.SystemConfig{
		Nodes: 8, Seed: seed, Calendar: cal,
		Sync:             sync,
		Master:           1,
		MaxDriftPPM:      100,
		MaxInitialOffset: 200 * sim.Microsecond,
		Observe:          obs.Default(),
	}))
	lc := core.NewLifecycle(sys)
	camp := must(chaos.NewCampaign(sys, lc, chaos.Script{
		SyncBackups:    []int{2, 3},
		FailoverRounds: failoverRounds,
		Events: []chaos.Event{
			{Kind: "master_crash", AtMS: float64(e12CrashAt) / float64(sim.Millisecond)},
			{Kind: "master_restart", AtMS: float64(e12CrashAt+600*sim.Millisecond) / float64(sim.Millisecond)},
		},
	}))
	camp.Install()

	type delivery struct {
		slot int
		r    int64
		at   sim.Time
	}
	var deliveries []delivery
	res := e12Result{}
	pubs := make([]core.Channel, len(cal.Slots))
	for si, s := range cal.Slots {
		seen := int64(0)
		pubs[si] = pair(sys, core.HRT, binding.Subject(s.Subject), int(s.Publisher), hrtAttrs(), nil, 6, hrtAttrs(),
			func(ev core.Event, di core.DeliveryInfo) {
				deliveries = append(deliveries, delivery{slot: si, r: seen, at: di.DeliveredAt})
				seen++
				if di.Late {
					res.late++
				}
			}, nil)
	}
	// Publishers 4 and 5 never crash: drive them on the kernel grid with a
	// margin that covers the master clock's worst-case drift over the run.
	rounds := int64((e12Horizon - sys.Cfg.Epoch) / sim.Duration(cal.Round))
	for si, s := range cal.Slots {
		onGrid(sys, pubs[si], binding.Subject(s.Subject), rounds, -sim.Millisecond,
			func(r int64) []byte { return []byte{byte(r)} })
	}
	sys.Run(e12Horizon)
	res.violations = len(camp.Finish(0).Violations)
	res.widened = sys.TotalCounters().HoldoverWidened

	// Takeover instant and the longest follower holdover interval.
	enter := map[int]sim.Time{}
	for _, rec := range sys.Obs.Records() {
		switch rec.Stage {
		case obs.StageMasterTakeover:
			if res.takeoverAt == 0 {
				res.takeoverAt = rec.At
			}
		case obs.StageHoldoverEnter:
			enter[int(rec.Node)] = rec.At
		case obs.StageHoldoverExit:
			if from, ok := enter[int(rec.Node)]; ok {
				if d := sim.Duration(rec.At - from); d > res.holdover {
					res.holdover = d
				}
				delete(enter, int(rec.Node))
			}
		}
	}

	// Jitter: HRT deliveries land at the calendar deadline on the
	// subscriber's clock; read each one back on the next master's (station
	// 2's) clock and compare with the nominal grid. Before the crash both
	// clocks track the master within π; across the gap they both free-run,
	// so the deviation is bounded by twice the holdover uncertainty at
	// takeover time.
	ref := sys.Clocks[2]
	for _, d := range deliveries {
		nominal := sys.Cfg.Epoch + sim.Time(d.r)*cal.Round + cal.Slots[d.slot].Deadline(cal.Cfg)
		dev := sim.Duration(ref.Read(d.at) - nominal)
		if dev < 0 {
			dev = -dev
		}
		switch {
		case d.at < e12CrashAt:
			if dev > res.syncedJit {
				res.syncedJit = dev
			}
		case d.at <= res.takeoverAt:
			if dev > res.holdoverJit {
				res.holdoverJit = dev
			}
		}
	}
	elapsed := sim.Duration(res.takeoverAt-e12CrashAt) + sync.Period
	res.bound = 2 * clock.HoldoverUncertainty(sys.Syncer.Cfg, elapsed)
	return res
}
