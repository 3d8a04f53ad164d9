// canecsim runs a single configurable mixed-traffic scenario on the
// simulated CAN segment and prints a summary: per-class counts, latency
// and jitter statistics, exception counts and bus utilization.
//
// Example:
//
//	canecsim -nodes 16 -hrt 4 -srt-load 0.6 -bulk 32768 -faults 0.01 -dur 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"canec"
	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/obs/causal"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/trace"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 8, "number of stations (2..127)")
		hrt      = flag.Int("hrt", 2, "number of periodic HRT channels (each gets a 10 ms slot)")
		srtLoad  = flag.Float64("srt-load", 0.4, "offered SRT utilization (0..1.5)")
		bulk     = flag.Int("bulk", 16384, "bytes of NRT bulk data to stream (0 disables)")
		faults   = flag.Float64("faults", 0, "per-frame consistent error probability")
		omission = flag.Int("omission", 1, "HRT omission degree k")
		nCtl     = flag.Int("control", 0, "number of closed PID control loops riding event channels (classes cycle SRT/HRT/NRT)")
		dur      = flag.Duration("dur", 2*time.Second, "simulated duration")
		seed     = flag.Uint64("seed", 1, "random seed")
		drift    = flag.Float64("drift", 100, "max clock drift (ppm)")
		traceN   = flag.Int("trace", 0, "dump the last N bus events candump-style")
		config   = flag.String("config", "", "run a JSON scenario file instead of the flag-driven mix")
		chaosCfg = flag.String("chaos", "", "JSON chaos script (crash/restart/burst/omission/babble/bit_error/busoff_attack campaign) applied to the -config scenario")
		hist     = flag.Bool("hist", false, "print latency distribution histograms")
		prom     = flag.String("prom", "", "write the run's metrics registry to this file (Prometheus text format)")
		adminOpt = flag.String("admin", "", "serve the admin introspection plane on this address during a -pace run (flag mode only)")
		pace     = flag.Float64("pace", 0, "throttle the run against the wall clock at this many virtual ns per wall ns (0 = free-running, deterministic)")
	)
	flag.Parse()
	if *chaosCfg != "" && *config == "" {
		fmt.Fprintln(os.Stderr, "canecsim: -chaos needs a -config scenario to inject faults into")
		os.Exit(1)
	}
	plane := obsPlane{promPath: *prom, adminAddr: *adminOpt}
	if *adminOpt != "" {
		if *config != "" {
			fmt.Fprintln(os.Stderr, "canecsim: -admin is not available with -config (use canecd to host long-running scenarios)")
			os.Exit(1)
		}
		if *pace <= 0 {
			fmt.Fprintln(os.Stderr, "canecsim: -admin needs -pace > 0 (a free-running simulation finishes before anything could poll it)")
			os.Exit(1)
		}
	}
	if *config != "" {
		if err := runConfig(*config, plane, *chaosCfg); err != nil {
			fmt.Fprintln(os.Stderr, "canecsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*nodes, *hrt, *srtLoad, *bulk, *faults, *omission, *nCtl, sim.Duration(dur.Nanoseconds()), *seed, *drift, *traceN, *hist, plane, *pace); err != nil {
		fmt.Fprintln(os.Stderr, "canecsim:", err)
		os.Exit(1)
	}
}

// obsPlane is the single plumbing path behind canecsim's metrics flags:
// -prom (write the registry to a file after the run) and -admin (serve
// the same registry live over HTTP during a paced run). Both share one
// obs.Config, so enabling either collects the same metric set.
type obsPlane struct {
	promPath  string
	adminAddr string
}

func (p obsPlane) config() *obs.Config {
	if p.promPath == "" && p.adminAddr == "" {
		return nil
	}
	return &obs.Config{Metrics: true}
}

// serve starts the admin plane over a paced run; the returned stop is
// safe to call unconditionally.
func (p obsPlane) serve(sys *canec.System, paced *sim.Paced, loops []*control.Loop) (stop func(), err error) {
	if p.adminAddr == "" {
		return func() {}, nil
	}
	// A paced run with an admin plane gets the why-late engine for free:
	// /why and the canec_why_* families go live on the same registry.
	if sys.Obs.Causal() == nil {
		sys.Obs.AttachCausal(causal.New(causal.Config{Registry: sys.Obs.Registry(), KeepRecent: 16}))
	}
	opts := admin.SystemOptions("canecsim", sys, paced)
	opts.Control = admin.LoopRows(loops)
	adm, err := admin.Serve(p.adminAddr, opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("canecsim: admin on %s\n", adm.Addr())
	return func() { adm.Close() }, nil
}

// flush writes the -prom file, when requested, from the run's registry.
func (p obsPlane) flush(reg *obs.Registry) error {
	if p.promPath == "" {
		return nil
	}
	f, err := os.Create(p.promPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WriteText(f)
}

// runConfig loads and executes a declarative scenario file, optionally
// overlaying a chaos campaign script.
func runConfig(path string, plane obsPlane, chaosPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		return err
	}
	if chaosPath != "" {
		cf, err := os.Open(chaosPath)
		if err != nil {
			return err
		}
		defer cf.Close()
		var script chaos.Script
		dec := json.NewDecoder(cf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&script); err != nil {
			return fmt.Errorf("chaos script %s: %w", chaosPath, err)
		}
		sc.Chaos = &script
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	if cfg := plane.config(); cfg != nil {
		sc.Observe = cfg
	}
	rep, err := sc.Run()
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if rep.Chaos != nil && len(rep.Chaos.Violations) > 0 {
		return fmt.Errorf("%d trace invariants violated", len(rep.Chaos.Violations))
	}
	return plane.flush(rep.Obs.Registry())
}

func run(nodes, nHRT int, srtLoad float64, bulkBytes int, faultRate float64,
	omission, nCtl int, dur sim.Duration, seed uint64, drift float64, traceN int, hist bool, plane obsPlane, pace float64) error {

	if nHRT >= nodes {
		return fmt.Errorf("need more nodes (%d) than HRT channels (%d)", nodes, nHRT)
	}
	calCfg := canec.DefaultCalendarConfig()
	calCfg.OmissionDegree = omission
	var slots []canec.Slot
	for i := 0; i < nHRT; i++ {
		slots = append(slots, canec.Slot{
			Subject: uint64(0x100 + i), Publisher: canec.TxNode(i), Payload: 8, Periodic: true,
		})
	}

	// Closed control loops: PID on a double integrator, classes cycling
	// SRT/HRT/NRT so one run contrasts the quality of control each class
	// delivers. HRT legs need calendar slots, planned with the rest.
	ctlClasses := []core.Class{core.SRT, core.HRT, core.NRT}
	var loopCfgs []control.LoopConfig
	for i := 0; i < nCtl; i++ {
		cfg := control.LoopConfig{
			Name:  fmt.Sprintf("loop%d", i),
			Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
			Class:  ctlClasses[i%len(ctlClasses)],
			Sensor: i % nodes, ControllerNode: (i + 1) % nodes, Actuator: i % nodes,
			SensorSubject: uint64(0x600 + 2*i), CommandSubject: uint64(0x601 + 2*i),
			Period: 10 * canec.Millisecond, Setpoint: 0, Initial: 1,
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		loopCfgs = append(loopCfgs, cfg)
		if cfg.Class == core.HRT {
			slots = append(slots,
				canec.Slot{Subject: cfg.SensorSubject, Publisher: canec.TxNode(cfg.Sensor), Payload: 8, Periodic: true},
				canec.Slot{Subject: cfg.CommandSubject, Publisher: canec.TxNode(cfg.ControllerNode), Payload: 5, Periodic: true})
		}
	}

	var cal *canec.Calendar
	if len(slots) > 0 {
		var err error
		cal, err = canec.PackCalendar(calCfg, 10*canec.Millisecond, slots...)
		if err != nil {
			return err
		}
	}
	observe := plane.config()
	sys, err := canec.NewSystem(canec.SystemConfig{
		Nodes: nodes, Seed: seed, Calendar: cal,
		Sync:             canec.DefaultSyncConfig(),
		MaxDriftPPM:      drift,
		MaxInitialOffset: 200 * canec.Microsecond,
		Observe:          observe,
	})
	if err != nil {
		return err
	}
	if faultRate > 0 {
		sys.Bus.Injector = can.RandomErrors{Rate: faultRate}
	}
	var ring *trace.Ring
	if traceN > 0 {
		ring = trace.NewRing(traceN)
		sys.Bus.Trace = ring.Hook(sys.Bus.Trace)
	}
	end := sys.Cfg.Epoch + dur

	// HRT channels with latency measurement via payload timestamps.
	hrtLat := stats.NewSeries("hrt")
	var firstTimes []sim.Time
	for i := 0; i < nHRT; i++ {
		i := i
		subj := canec.Subject(0x100 + i)
		ch, err := sys.Node(i).MW.HRTEC(subj)
		if err != nil {
			return err
		}
		if err := ch.Announce(canec.ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
			return err
		}
		var loop func(r int64)
		loop = func(r int64) {
			local := sys.Cfg.Epoch + canec.Time(r)*cal.Round - 200*canec.Microsecond
			at := sys.Clocks[i].WhenLocal(sys.K.Now(), local)
			if at >= end {
				return
			}
			sys.K.At(at, func() {
				p := make([]byte, 7)
				putTS(p, sys.K.Now())
				ch.Publish(canec.Event{Subject: subj, Payload: p})
				loop(r + 1)
			})
		}
		loop(0)
		sub, err := sys.Node((i + 1) % nodes).MW.HRTEC(subj)
		if err != nil {
			return err
		}
		sub.Subscribe(canec.ChannelAttrs{Payload: 7, Periodic: true}, canec.SubscribeAttrs{},
			func(ev canec.Event, di canec.DeliveryInfo) {
				hrtLat.ObserveDuration(di.DeliveredAt - getTS(ev.Payload))
				if i == 0 {
					firstTimes = append(firstTimes, di.DeliveredAt)
				}
			}, nil)
	}

	// SRT: sporadic streams from every node to reach the offered load.
	srtLat := stats.NewSeries("srt")
	frame := can.BitTime(can.WorstCaseBits(8), can.DefaultBitRate)
	if srtLoad > 0 {
		period := sim.Duration(float64(frame) * float64(nodes) / srtLoad)
		for i := 0; i < nodes; i++ {
			i := i
			subj := canec.Subject(0x300 + i)
			ch, err := sys.Node(i).MW.SRTEC(subj)
			if err != nil {
				return err
			}
			ch.Announce(canec.ChannelAttrs{}, nil)
			sub, err := sys.Node((i + 2) % nodes).MW.SRTEC(subj)
			if err != nil {
				return err
			}
			sub.Subscribe(canec.ChannelAttrs{}, canec.SubscribeAttrs{},
				func(ev canec.Event, di canec.DeliveryInfo) {
					srtLat.ObserveDuration(di.DeliveredAt - getTS(ev.Payload))
				}, nil)
			var loop func()
			loop = func() {
				if sys.K.Now() >= end {
					return
				}
				now := sys.Node(i).MW.LocalTime()
				p := make([]byte, 8)
				putTS(p, sys.K.Now())
				ch.Publish(canec.Event{Subject: subj, Payload: p,
					Attrs: canec.EventAttrs{
						Deadline:   now + 10*canec.Millisecond,
						Expiration: now + 50*canec.Millisecond,
					}})
				sys.K.After(sys.K.RNG().ExpDuration(period), loop)
			}
			sys.K.At(sys.Cfg.Epoch, loop)
		}
	}

	// NRT bulk.
	nrtDone := 0
	if bulkBytes > 0 {
		bulkCh, err := sys.Node(nodes - 1).MW.NRTEC(0x500)
		if err != nil {
			return err
		}
		if err := bulkCh.Announce(canec.ChannelAttrs{Prio: 254, Fragmentation: true}, nil); err != nil {
			return err
		}
		bsub, err := sys.Node(0).MW.NRTEC(0x500)
		if err != nil {
			return err
		}
		bsub.Subscribe(canec.ChannelAttrs{Fragmentation: true}, canec.SubscribeAttrs{},
			func(ev canec.Event, _ canec.DeliveryInfo) { nrtDone += len(ev.Payload) }, nil)
		var feed func()
		feed = func() {
			if sys.K.Now() >= end {
				return
			}
			if bulkCh.QueuedChains() < 2 {
				bulkCh.Publish(canec.Event{Subject: 0x500, Payload: make([]byte, bulkBytes)})
			}
			sys.K.After(5*canec.Millisecond, feed)
		}
		sys.K.At(sys.Cfg.Epoch, feed)
	}

	// Closed control loops over real event channels.
	var loops []*control.Loop
	for _, cfg := range loopCfgs {
		l, err := control.NewLoop(cfg, sys.Obs)
		if err != nil {
			return err
		}
		if err := l.Install(sys.K, sys.Cfg.Epoch, end, func(n int) *core.Middleware {
			return sys.Node(n).MW
		}, nil); err != nil {
			return fmt.Errorf("control loop %s: %w", cfg.Name, err)
		}
		loops = append(loops, l)
	}

	if pace > 0 {
		// Paced mode: the same discrete-event run, throttled against the
		// wall clock (1.0 = real time). Opt-in; free-running stays default
		// so results remain bit-reproducible. The admin plane, when
		// requested, serves live state for the run's duration.
		paced := sim.NewPaced(sys.K, pace)
		stopAdmin, err := plane.serve(sys, paced, loops)
		if err != nil {
			return err
		}
		paced.Run(end)
		stopAdmin()
	} else {
		sys.Run(end)
	}

	c := sys.TotalCounters()
	fmt.Printf("simulated %v on a %d-node bus (seed %d, fault rate %.3f)\n",
		dur, nodes, seed, faultRate)
	fmt.Printf("\nclass  published  delivered  latency µs (mean/p99)  notes\n")
	if nHRT > 0 {
		jit := sim.Duration(0)
		if len(firstTimes) > 1 {
			jit = stats.PeriodJitter(firstTimes, cal.Round)
		}
		fmt.Printf("HRT    %-9d  %-9d  %s / %s            appJitter=%dµs late=%d missed=%d\n",
			c.PublishedHRT, c.DeliveredHRT,
			stats.Micros(hrtLat.Mean()), stats.Micros(hrtLat.Quantile(0.99)),
			jit.Micros(), c.LateHRTDeliveries, c.SlotMissed)
	}
	fmt.Printf("SRT    %-9d  %-9d  %s / %s            deadlineMissed=%d expired=%d promotions=%d\n",
		c.PublishedSRT, c.DeliveredSRT,
		stats.Micros(srtLat.Mean()), stats.Micros(srtLat.Quantile(0.99)),
		c.DeadlineMissed, c.Expired, c.PromotionsApplied)
	fmt.Printf("NRT    %-9d  %-9d  %d KiB transferred     fragErrors=%d\n",
		c.PublishedNRT, c.DeliveredNRT, nrtDone/1024, c.FragErrors)
	fmt.Printf("\nbus: utilization %.1f%%, %d frames ok, %d error frames, %d ID rewrites\n",
		100*sys.Utilization(), sys.Bus.Stats().FramesOK, sys.Bus.Stats().FramesError,
		sys.Bus.Stats().IDRewrites)
	fmt.Printf("redundancy: %d copies suppressed, %d redundant copies sent, %d duplicates dropped\n",
		c.CopiesSuppressed, c.RedundantCopiesSent, c.DuplicatesDropped)
	if len(loops) > 0 {
		fmt.Printf("\nquality of control:\n")
		for _, l := range loops {
			q := l.Report()
			fmt.Printf("  %s\n", q.String())
		}
	}
	if hist {
		h := stats.NewHistogram("SRT latency µs", 0, 2*srtLat.Quantile(0.99)/1000+1, 24)
		// Re-bin from the retained series (histograms are for display; the
		// exact series already holds the samples).
		for q := 0.0; q <= 1.0; q += 0.005 {
			h.Observe(srtLat.Quantile(q) / 1000)
		}
		fmt.Printf("\n%s", h.Render())
	}
	if ring != nil {
		fmt.Printf("\n-- last %d of %d bus events --\n", len(ring.Entries()), ring.Total())
		if err := ring.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return plane.flush(sys.Obs.Registry())
}

func putTS(dst []byte, t sim.Time) {
	v := uint64(t)
	for i := 0; i < 7; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

func getTS(src []byte) sim.Time {
	var v uint64
	for i := 0; i < 7; i++ {
		v |= uint64(src[i]) << (8 * i)
	}
	return sim.Time(v)
}
