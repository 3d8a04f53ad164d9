package experiments

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/chaos"
	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/workload"
)

// e18ControlQoC closes the loop on the paper's central claim: that the
// event channel classes exist to serve applications with different
// timing needs. A PID-controlled double integrator rides its sensor and
// command frames over each class while background SRT load sweeps from
// idle to near saturation, and the quadratic quality-of-control cost
// measures what the bus actually did to the application. NRT (plain
// arbitration, no deadlines) degrades first as load grows, SRT
// (deadline-scheduled) later, and HRT (calendar-reserved slots) not at
// all — the paper's class hierarchy, read off a plant instead of a
// latency histogram. Bus-off attack rows knock the controller station
// out mid-run (Bosch §8 confinement on, guardian off), and relay rows
// add a store-and-forward hop between controller and plant (§2.2.1
// inter-bus channels).
func e18ControlQoC(seed uint64) Result {
	tbl := stats.Table{
		Title: "closed-loop quality of control vs channel class, bus load, faults and relay hops",
		Headers: []string{"class", "load", "campaign", "cost/s", "degrade",
			"settled ms", "overshoot", "stale", "applied", "lat p50 µs", "lat p99 µs"},
	}
	classes := []core.Class{core.HRT, core.SRT, core.NRT}
	baseline := map[core.Class]float64{}
	for _, class := range classes {
		for _, load := range []float64{0, 0.45, 0.85, 1.2} {
			q := e18Run(seed, class, load, false)
			if load == 0 {
				baseline[class] = q.CostPerSec
			}
			tbl.Rows = append(tbl.Rows, e18Row(q, load, "none", baseline[class]))
		}
	}
	for _, class := range classes {
		q := e18Run(seed, class, 0.45, true)
		tbl.Rows = append(tbl.Rows, e18Row(q, 0.45, "busoff", baseline[class]))
	}
	for _, load := range []float64{0, 0.45} {
		q := e18Relay(seed, load)
		tbl.Rows = append(tbl.Rows, e18Row(q, load, "+1 hop", baseline[core.SRT]))
	}
	return Result{
		ID:    "E18",
		Title: "closed-loop control: QoC vs channel class x load x faults x hops (§2.2, §5)",
		Table: tbl,
		Notes: []string{
			"one PID loop (double integrator, 10 ms sampling, setpoint step 1→0) per row; cost = ∫(q·e² + q_v·v² + r·u²)dt per second",
			"degrade = cost/s over the same class's idle-bus row; HRT rides reserved calendar slots and must stay ~1.0x at any load",
			"NRT degrades first (plain arbitration starves under load), SRT later (deadline scheduling holds until near saturation), the paper's class ranking",
			"busoff rows: an adversary fires bit errors into the controller station over [300,700) ms (confinement on, guardian off) — " +
				"the loop runs blind on a stale held command until the supervisor recovers the station",
			"+1 hop rows: controller lives across a store-and-forward gateway (200 µs); the extra hop taxes cost but deadline scheduling still settles the loop",
		},
	}
}

const (
	e18Horizon  = 1500 * sim.Millisecond
	e18Period   = 10 * sim.Millisecond
	e18Sensor   = 1
	e18Ctrl     = 2
	e18Attacker = 8
	e18Nodes    = 10
	e18SensSubj = 0x681
	e18CmdSubj  = 0x682
)

func e18Row(q control.QoC, load float64, campaign string, base float64) []string {
	settled := "-"
	if q.Settled {
		settled = fmt.Sprintf("%.0f", float64(q.SettlingTime)/float64(sim.Millisecond))
	}
	degrade := "-"
	if base > 0 {
		degrade = fmt.Sprintf("%.1fx", q.CostPerSec/base)
	}
	p50, p99 := "-", "-"
	if q.Latency != nil && q.Latency.N() > 0 {
		p50 = fmt.Sprintf("%.0f", q.Latency.Quantile(0.50))
		p99 = fmt.Sprintf("%.0f", q.Latency.Quantile(0.99))
	}
	return []string{
		q.Class,
		fmt.Sprintf("%.2f", load),
		campaign,
		fmt.Sprintf("%.4f", q.CostPerSec),
		degrade,
		settled,
		stats.Pct(q.Overshoot),
		fmt.Sprintf("%d", q.Stale),
		fmt.Sprintf("%d/%d", q.Applied, q.Commands),
		p50, p99,
	}
}

// e18Background installs the MixedSet SRT load on sys: each stream's
// pre-generated job trace publishes on its own channel with the stream's
// deadline and expiration; one station subscribes to all of them so the
// load includes full delivery work, not just wire occupancy.
func e18Background(sys *core.System, load float64, seed uint64, end sim.Time) {
	if load <= 0 {
		return
	}
	rng := sim.NewRNG(seed + 18)
	streams := workload.MixedSet(e18Nodes-3, load, actualFrameTime, rng)
	horizon := end - sys.Cfg.Epoch
	jobs := workload.GenJobs(rng, streams, sim.Time(horizon))
	chans := make([]core.Channel, len(streams))
	for i, s := range streams {
		// Skip the loop's own stations so a crashed/attacked controller
		// doesn't silently remove background load with it.
		chans[i] = pair(sys, core.SRT, binding.Subject(0x400+i), 3+s.Node%(e18Nodes-3), core.ChannelAttrs{}, nil,
			e18Nodes-1, core.ChannelAttrs{}, nil, nil)
	}
	for _, j := range jobs {
		s := streams[j.Stream]
		ch := chans[j.Stream]
		sys.K.At(sys.Cfg.Epoch+j.Release, func() {
			mw := sys.Node(3 + s.Node%(e18Nodes-3)).MW
			now := mw.LocalTime()
			p := make([]byte, s.Payload)
			ch.Publish(core.Event{Subject: binding.Subject(0x400 + j.Stream), Payload: p,
				Attrs: core.EventAttrs{
					Deadline:   now + sim.Time(s.RelDeadline),
					Expiration: now + sim.Time(s.RelExpiration),
				}})
		})
	}
}

// e18Scenario is one single-segment row's confined segment: the cart (a
// PID-controlled double integrator regulating from 1 to 0) on the given
// class, optionally under a bus-off attack on the controller station.
func e18Scenario(seed uint64, class core.Class, attack bool) *scenario.Scenario {
	sc := &scenario.Scenario{Name: "E18", Nodes: e18Nodes, Seed: seed, DurationMs: int64(e18Horizon / sim.Millisecond),
		MaxDriftPPM: 100, ConfineFaults: true, Observe: obs.Default(),
		Control: []scenario.ControlLoop{{
			Name: "cart", Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
			Class: class.String(), Sensor: e18Sensor, ControllerNode: e18Ctrl, Actuator: e18Sensor,
			SensorSubject: e18SensSubj, CommandSubject: e18CmdSubj,
			PeriodUs: int64(e18Period / sim.Microsecond), Initial: 1,
		}}}
	if attack {
		sc.Chaos = &chaos.Script{Events: []chaos.Event{{
			Kind: "busoff_attack", AtMS: 300, UntilMS: 700,
			Node: e18Attacker, Victim: e18Ctrl, Rate: 1,
		}}}
	}
	return sc
}

// e18Run executes one single-segment row: e18Scenario with MixedSet
// background at the given load.
func e18Run(seed uint64, class core.Class, load float64, attack bool) control.QoC {
	in := must(e18Scenario(seed, class, attack).Build())
	end := in.Sys.Cfg.Epoch + e18Horizon
	e18Background(in.Sys, load, seed, end)
	in.Sys.Run(end)
	return in.Finish().Control[0]
}

// e18Relay executes the relay-hop row: sensor and actuator live on
// segment A, the controller across a store-and-forward gateway on
// segment B (one kernel, two buses). Samples forward A→B, commands B→A;
// both legs ride SRT.
func e18Relay(seed uint64, load float64) control.QoC {
	k := sim.NewKernel(seed)
	segA := must(core.NewSystem(core.SystemConfig{Nodes: e18Nodes, Seed: seed, Kernel: k,
		ConfineFaults: true}))
	segB := must(core.NewSystem(core.SystemConfig{Nodes: 3, Kernel: k}))
	ga, gb, err := gateway.Join(segA.Node(0).MW, segB.Node(2).MW, "A", "B", 200*sim.Microsecond)
	wired(err)
	wired(gb.Announce(core.SRT, e18SensSubj, core.ChannelAttrs{}))
	wired(ga.Forward(core.SRT, e18SensSubj, core.ChannelAttrs{}))
	wired(ga.Announce(core.SRT, e18CmdSubj, core.ChannelAttrs{}))
	wired(gb.Forward(core.SRT, e18CmdSubj, core.ChannelAttrs{}))

	// The cart with its controller on segB station 0, via the index
	// mapping below.
	l := must(control.NewLoop(control.LoopConfig{
		Name: "cart", Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
		Class: core.SRT, Sensor: e18Sensor, ControllerNode: e18Nodes, Actuator: e18Sensor,
		SensorSubject: e18SensSubj, CommandSubject: e18CmdSubj,
		Period: e18Period, Initial: 1,
	}, nil))
	end := segA.Cfg.Epoch + e18Horizon
	wired(l.Install(k, segA.Cfg.Epoch, end, func(n int) *core.Middleware {
		if n >= e18Nodes {
			return segB.Node(n - e18Nodes).MW
		}
		return segA.Node(n).MW
	}, nil))
	e18Background(segA, load, seed, end)
	k.Run(end)
	return l.Report()
}
