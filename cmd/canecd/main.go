// canecd hosts one canec bus segment per process and federates it with
// other segments over TCP relay links (internal/relay). The segment's
// discrete-event kernel runs in paced mode — virtual time throttled
// against the wall clock — so multiple daemons interoperate in real time
// while every in-process simulation semantic stays intact.
//
// A two-daemon federation, subject 0x42 flowing left to right:
//
//	canecd -segment b -trace-base 2 -listen 127.0.0.1:7443 \
//	       -sub 0x42 -announce srt:0x42 -expect 0x42:3 -expect-origin 1
//	canecd -segment a -trace-base 1 -uplink 127.0.0.1:7443 \
//	       -forward srt:0x42 -publish srt:0x42:3:20ms
//
// The first process exits 0 once three events published on segment a
// were delivered on segment b with their origin traces intact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"canec/internal/binding"
	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/obs/causal"
	"canec/internal/obs/perf"
	"canec/internal/relay"
	"canec/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// chanSpec is one parsed class:subject federation entry.
type chanSpec struct {
	class   core.Class
	subject binding.Subject
}

func parseSubject(s string) (binding.Subject, error) {
	v, err := strconv.ParseUint(s, 0, 56)
	if err != nil {
		return 0, fmt.Errorf("subject %q: %w", s, err)
	}
	return binding.Subject(v), nil
}

// parseChanList parses "class:subject,class:subject,...".
func parseChanList(s string) ([]chanSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []chanSpec
	for _, part := range strings.Split(s, ",") {
		f := strings.SplitN(part, ":", 2)
		if len(f) != 2 {
			return nil, fmt.Errorf("entry %q: want class:subject", part)
		}
		class, err := core.ParseClass(f[0])
		if err != nil {
			return nil, err
		}
		subj, err := parseSubject(f[1])
		if err != nil {
			return nil, err
		}
		out = append(out, chanSpec{class, subj})
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// sleep waits for d or for ctx to end, whichever comes first, and reports
// whether the full duration elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// run is the whole daemon: it parses args, hosts the segment until its
// expectation is met, its -dur limit expires or ctx ends, and returns the
// process exit code. It owns no package-level state, so tests run several
// daemons as goroutines of one process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	die := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "canecd: "+format+"\n", a...)
		return 1
	}
	fs := flag.NewFlagSet("canecd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		segment   = fs.String("segment", "", "segment name, unique across the federation (required)")
		nodes     = fs.Int("nodes", 4, "stations on this segment (node 0 publishes, node 1 subscribes, the top nodes host relay bridges)")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		traceBase = fs.Uint64("trace-base", 0, "trace-ID base index; IDs are minted as base<<32|n, keep it disjoint per segment")
		pace      = fs.Float64("pace", 1.0, "virtual nanoseconds per wall nanosecond")
		listen    = fs.String("listen", "", "comma-separated addresses to accept relay peers on")
		uplink    = fs.String("uplink", "", "comma-separated relay server addresses to dial")
		forward   = fs.String("forward", "", "comma list class:subject shipped to peers (e.g. srt:0x42)")
		announce  = fs.String("announce", "", "comma list class:subject expected in from peers")
		subs      = fs.String("sub", "", "comma list of subjects requested from peers")
		publish   = fs.String("publish", "", "class:subject:count:period — demo publisher on node 0")
		expect    = fs.String("expect", "", "subject:count — exit 0 once node 1 delivered count events")
		expOrigin = fs.Uint64("expect-origin", 0, "require delivered trace IDs to originate from this trace base (0 disables)")
		dur       = fs.Duration("dur", 30*time.Second, "wall-clock run limit")
		hb        = fs.Duration("hb", 500*time.Millisecond, "relay heartbeat period")
		verbose   = fs.Bool("v", false, "log relay link events to stderr")

		adminAddr = fs.String("admin", "", "serve the admin introspection plane (/metrics /healthz /channels /slo /relay /flight, pprof) on this address; empty disables")
		flightN   = fs.Int("flight", 2048, "flight-recorder retention, trace records per node (0 disables)")
		flightDir = fs.String("flight-dir", ".", "directory for flight-recorder post-mortem dumps")
		slo       = fs.Bool("slo", true, "run the SLO engine (default objective set)")
		whyOn     = fs.Bool("why", true, "run the causal why-late engine (/why on the admin plane, canec_why_* metrics, root causes on SLO breach post-mortems)")
		whyLate   = fs.String("why-late-over", "", "comma list class=duration marking delivered chains late (e.g. srt=5ms); empty attributes drops only")
		profile   = fs.Bool("profile", true, "attach the kernel profiler (publish→deliver stage timing, /profile on the admin plane)")
		sloSRT    = fs.Float64("slo-srt-budget", 0.05, "SRT deadline-miss budget (fraction of published events)")
		sloCtl    = fs.Float64("slo-control-budget", 0, "control-cost SLO budget: tolerated quadratic cost per long window (0 disables the objective)")
		ctlDemo   = fs.Bool("control", false, "run a demo closed PID control loop (double integrator over SRT channels on stations 0/1) and serve its QoC at /control")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *segment == "" {
		return die("-segment is required")
	}
	fwd, err := parseChanList(*forward)
	if err != nil {
		return die("-forward: %v", err)
	}
	ann, err := parseChanList(*announce)
	if err != nil {
		return die("-announce: %v", err)
	}
	listens, uplinks := splitList(*listen), splitList(*uplink)
	nLinks := len(listens) + len(uplinks)
	if nLinks == 0 {
		return die("need at least one -listen or -uplink")
	}
	if *nodes < nLinks+2 {
		return die("%d nodes cannot host %d relay bridges plus app stations", *nodes, nLinks)
	}

	obsCfg := &obs.Config{
		Trace: true, Metrics: true, TraceIDBase: *traceBase << 32,
		FlightRecords: *flightN, FlightDir: *flightDir,
	}
	if *slo {
		sloCfg := obs.DefaultSLOConfig()
		sloCfg.SRTMissBudget = *sloSRT
		sloCfg.ControlCostBudget = *sloCtl
		obsCfg.SLO = &sloCfg
	}
	k := sim.NewKernel(*seed)
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes:   *nodes,
		Kernel:  k,
		Observe: obsCfg,
	})
	if err != nil {
		return die("system: %v", err)
	}
	paced := sim.NewPaced(k, *pace)

	// Causal why-late engine: attributes every chain's publish→deliver
	// latency to typed causes, feeds canec_why_* metrics, /why on the
	// admin plane and the root-cause line on SLO breach post-mortems.
	if *whyOn {
		bounds, err := causal.ParseLateOver(*whyLate)
		if err != nil {
			return die("-why-late-over: %v", err)
		}
		sys.Obs.AttachCausal(causal.New(causal.Config{
			Registry: sys.Obs.Registry(), LateOver: bounds, KeepRecent: 16,
		}))
	}

	// Kernel profiler: stage-level wall-clock attribution for the whole
	// publish→deliver chain, served at /profile and folded into /metrics.
	var prof *perf.Profiler
	if *profile {
		prof = &perf.Profiler{}
		prof.AttachKernel(k)
		prof.SetBusySource(func() sim.Duration { return sys.Bus.Stats().BusyTime })
		if reg := sys.Obs.Registry(); reg != nil {
			prof.Register(reg)
		}
	}

	// Demo closed loop: a PID-controlled double integrator whose sensor
	// and command frames ride SRT channels between stations 0 and 1. Its
	// live QoC is served at /control and its cost feeds the control-cost
	// SLO objective when -slo-control-budget is set.
	var loops []*control.Loop
	if *ctlDemo {
		l, err := control.NewLoop(control.LoopConfig{
			Name: "demo", Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
			Class: core.SRT, Sensor: 0, ControllerNode: 1, Actuator: 0,
			SensorSubject: 0x7C0, CommandSubject: 0x7C1,
			Period: 5 * sim.Millisecond, Setpoint: 0, Initial: 1,
		}, sys.Obs)
		if err != nil {
			return die("control loop: %v", err)
		}
		if err := l.Install(k, sys.Cfg.Epoch, controlEnd(sys.Cfg.Epoch, paced, *dur), func(n int) *core.Middleware {
			return sys.Node(n).MW
		}, nil); err != nil {
			return die("control loop: %v", err)
		}
		loops = append(loops, l)
	}

	cfg := relay.Config{
		Segment:        *segment,
		HeartbeatEvery: *hb,
		Seed:           *seed,
	}
	var verboseTrace func(relay.Event)
	if *verbose {
		verboseTrace = func(e relay.Event) {
			fmt.Fprintf(stderr, "canecd[%s]: relay %s peer=%s %s\n", *segment, e.Kind, e.Peer, e.Detail)
		}
	}
	// Each link's trace stream feeds the observability plane from its
	// bridge station (top stations, one per link, assigned below).
	linkCfg := func(i int) relay.Config {
		c := cfg
		c.Trace = relay.ObserveTrace(paced, sys.Obs, *nodes-1-i, verboseTrace)
		return c
	}

	var links []relay.Link
	var relayRows []func() admin.RelayRow
	for _, addr := range listens {
		srv, err := relay.Serve(addr, linkCfg(len(links)))
		if err != nil {
			return die("listen %s: %v", addr, err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "canecd[%s]: listening on %s\n", *segment, srv.Addr())
		links = append(links, srv)
		name := "listen " + srv.Addr().String()
		relayRows = append(relayRows, func() admin.RelayRow {
			return admin.LinkRow(name, "listen", srv.Peers() > 0, srv.Peers(),
				srv.Counters(), srv.Depths)
		})
	}
	for _, addr := range uplinks {
		up := relay.Dial(addr, linkCfg(len(links)))
		defer up.Close()
		fmt.Fprintf(stdout, "canecd[%s]: uplink to %s\n", *segment, addr)
		links = append(links, up)
		name := "uplink " + addr
		relayRows = append(relayRows, func() admin.RelayRow {
			return admin.LinkRow(name, "uplink", up.Connected(), 0,
				up.Counters(), up.Depths)
		})
	}

	// One bridge per link, hosted on the segment's top stations; siblings
	// linked so transit traffic keeps origin, hops and budget.
	var bridges []*gateway.RemoteBridge
	for i, l := range links {
		station := *nodes - 1 - i
		b, err := gateway.NewRemote(sys.Node(station).MW, relay.NewPort(paced, l), *segment)
		if err != nil {
			return die("bridge on station %d: %v", station, err)
		}
		bridges = append(bridges, b)
	}
	for i, b := range bridges {
		b.LinkSiblings(bridges[i+1:]...)
	}
	for _, s := range splitList(*subs) {
		subj, err := parseSubject(s)
		if err != nil {
			return die("-sub: %v", err)
		}
		for _, l := range links {
			if err := l.Subscribe(subj, nil, nil); err != nil {
				return die("subscribe %s: %v", s, err)
			}
		}
	}
	for _, c := range fwd {
		for _, b := range bridges {
			if err := b.Forward(c.class, c.subject, core.ChannelAttrs{}); err != nil {
				return die("forward %v:%#x: %v", c.class, c.subject, err)
			}
		}
	}
	for _, c := range ann {
		for _, b := range bridges {
			if err := b.Announce(c.class, c.subject, core.ChannelAttrs{}); err != nil {
				return die("announce %v:%#x: %v", c.class, c.subject, err)
			}
		}
	}

	// Admin introspection plane: kernel-owned state is snapshotted via
	// paced.Call so HTTP handlers never race the simulation.
	if *adminAddr != "" {
		opts := admin.SystemOptions(*segment, sys, paced)
		opts.Profiler = prof
		opts.Control = admin.LoopRows(loops)
		opts.Relay = func() []admin.RelayRow {
			rows := make([]admin.RelayRow, 0, len(relayRows))
			for _, fn := range relayRows {
				rows = append(rows, fn())
			}
			return rows
		}
		adm, err := admin.Serve(*adminAddr, opts)
		if err != nil {
			return die("admin: %v", err)
		}
		defer adm.Close()
		fmt.Fprintf(stdout, "canecd[%s]: admin on %s\n", *segment, adm.Addr())
	}

	// Demo expectation: node 1 subscribes and counts deliveries.
	var delivered atomic.Uint64
	var originBad atomic.Uint64
	var expectSubj binding.Subject
	expectCount := uint64(0)
	var lastTraceID atomic.Uint64
	if *expect != "" {
		f := strings.SplitN(*expect, ":", 2)
		if len(f) != 2 {
			return die("-expect: want subject:count")
		}
		if expectSubj, err = parseSubject(f[0]); err != nil {
			return die("-expect: %v", err)
		}
		if expectCount, err = strconv.ParseUint(f[1], 0, 64); err != nil {
			return die("-expect count: %v", err)
		}
		class := core.SRT
		for _, c := range ann {
			if c.subject == expectSubj {
				class = c.class
			}
		}
		handler := func(ev core.Event, _ core.DeliveryInfo) {
			if *expOrigin != 0 && ev.TraceID()>>32 != *expOrigin {
				originBad.Add(1)
			}
			lastTraceID.Store(ev.TraceID())
			delivered.Add(1)
		}
		ch, err := sys.Node(1).MW.Channel(class, expectSubj)
		if err == nil {
			err = ch.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{}, handler, nil)
		}
		if err != nil {
			return die("-expect subscribe: %v", err)
		}
	}

	// Demo publisher on node 0.
	var pubCh func(payload []byte)
	pubCount := uint64(0)
	pubPeriod := time.Duration(0)
	if *publish != "" {
		f := strings.Split(*publish, ":")
		if len(f) != 4 {
			return die("-publish: want class:subject:count:period")
		}
		class, err := core.ParseClass(f[0])
		if err != nil {
			return die("-publish: %v", err)
		}
		subj, err := parseSubject(f[1])
		if err != nil {
			return die("-publish: %v", err)
		}
		if pubCount, err = strconv.ParseUint(f[2], 0, 64); err != nil {
			return die("-publish count: %v", err)
		}
		if pubPeriod, err = time.ParseDuration(f[3]); err != nil {
			return die("-publish period: %v", err)
		}
		// HRT needs a calendar slot the daemon does not plan: its announce
		// fails with the middleware's own error.
		mw := sys.Node(0).MW
		ch, err := mw.Channel(class, subj)
		if err != nil {
			return die("-publish: %v", err)
		}
		if err := ch.Announce(core.ChannelAttrs{}, nil); err != nil {
			return die("-publish announce: %v", err)
		}
		pubCh = func(p []byte) {
			ev := core.Event{Subject: subj, Payload: p}
			if class == core.SRT {
				now := mw.LocalTime()
				ev.Attrs = core.EventAttrs{
					Deadline:   now + 10*sim.Millisecond,
					Expiration: now + 50*sim.Millisecond,
				}
			}
			ch.Publish(ev)
		}
	}

	// Settle bindings deterministically, then hand the kernel to the pacer.
	sys.K.Run(100 * sim.Millisecond)
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		paced.Run(sim.Time(1<<62) - 1)
	}()
	defer func() {
		paced.Stop()
		<-pacerDone
	}()

	deadline := time.Now().Add(*dur)
	// Publisher: wait for a link, then emit pubCount events.
	if pubCh != nil {
		for time.Now().Before(deadline) && !anyLinkUp(links) && sleep(ctx, 5*time.Millisecond) {
		}
		for i := uint64(0); i < pubCount; i++ {
			paced.Call(func() { pubCh([]byte{byte(i), 0xEC}) })
			if !sleep(ctx, pubPeriod) {
				return die("interrupted after publishing %d of %d events", i+1, pubCount)
			}
		}
		fmt.Fprintf(stdout, "canecd[%s]: published %d events\n", *segment, pubCount)
	}

	// Expectation: poll until met or the wall limit expires.
	if expectCount > 0 {
		for time.Now().Before(deadline) && delivered.Load() < expectCount && sleep(ctx, 5*time.Millisecond) {
		}
		if got := delivered.Load(); got < expectCount {
			return die("expected %d deliveries on %#x, got %d", expectCount, expectSubj, got)
		}
		if originBad.Load() > 0 {
			return die("%d deliveries carried trace IDs outside origin base %d", originBad.Load(), *expOrigin)
		}
		if !traceContinuous(paced, sys, lastTraceID.Load()) {
			return die("delivered trace %#x has no relay_rx record: trace not continuous", lastTraceID.Load())
		}
		fmt.Fprintf(stdout, "canecd[%s]: expect met: %d deliveries on %#x, trace continuity ok (id=%#x)\n",
			*segment, delivered.Load(), expectSubj, lastTraceID.Load())
		return 0
	}

	// Pure relay / publisher process: idle until the wall limit.
	if pubCh == nil {
		sleep(ctx, time.Until(deadline))
	} else {
		// Give the egress queue a moment to drain before exiting.
		sleep(ctx, 200*time.Millisecond)
	}
	return 0
}

// controlEnd is where the demo loop's plant stops ticking: twice the wall
// limit, in the virtual time it spans at the configured pace, so /control
// keeps advancing for the whole run whatever -pace is.
func controlEnd(epoch sim.Time, paced *sim.Paced, dur time.Duration) sim.Time {
	return epoch + 2*paced.VirtualPerWall(dur)
}

// anyLinkUp reports whether any relay link has a live peer.
func anyLinkUp(links []relay.Link) bool {
	for _, l := range links {
		if l.Counters().LinkUps() > l.Counters().LinkDowns() {
			return true
		}
	}
	return false
}

// traceContinuous checks, in kernel context, that the delivered trace ID
// carries a relay_rx record on this segment — i.e. the local trace chain
// links back to the remote origin rather than starting fresh here.
func traceContinuous(paced *sim.Paced, sys *core.System, id uint64) bool {
	if id == 0 {
		return false
	}
	ok := false
	paced.Call(func() {
		for _, r := range sys.Obs.Records() {
			if r.ID == id && r.Stage == obs.StageRelayRx {
				ok = true
				return
			}
		}
	})
	return ok
}
