// canecd hosts one canec bus segment per process and federates it with
// other segments over TCP relay links (internal/relay). The segment is a
// scenario file (-config, internal/scenario); the flags add only what a
// scenario cannot say: where the segment listens, which subjects cross the
// relay, and when to exit. The kernel runs paced — virtual time throttled
// against the wall clock — so several daemons interoperate in real time
// with every simulation semantic intact.
//
// A two-daemon federation, subject 0x42 flowing left to right:
//
//	canecd -segment b -config testdata/segment-b.json -trace-base 2 \
//	       -listen 127.0.0.1:7443 -sub 0x42 -announce srt:0x42 \
//	       -expect 0x42:3 -expect-origin 1
//	canecd -segment a -config testdata/segment-a.json -trace-base 1 \
//	       -uplink 127.0.0.1:7443 -forward srt:0x42
//
// The first process exits 0 once three events published on segment a
// were delivered on segment b with their origin traces intact. Each
// daemon prints its scenario report when it stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"canec/internal/binding"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/relay"
	"canec/internal/scenario"
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

// run is the whole daemon: it parses args, hosts the segment until the
// scenario ends, its expectation is met, its -dur limit expires or ctx
// ends, prints the scenario report and returns the process exit code. It
// owns no package-level state, so tests run several daemons as goroutines
// of one process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	die := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "canecd: "+format+"\n", a...)
		return 1
	}
	fs := flag.NewFlagSet("canecd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		segment   = fs.String("segment", "", "segment name, unique across the federation (required)")
		config    = fs.String("config", "", "scenario JSON file describing the segment (required; the top stations host the relay bridges)")
		traceBase = fs.Uint64("trace-base", 0, "trace-ID base index; IDs are minted as base<<32|n, keep it disjoint per segment")
		pace      = fs.Float64("pace", 1.0, "virtual nanoseconds per wall nanosecond")
		listen    = fs.String("listen", "", "comma-separated addresses to accept relay peers on")
		uplink    = fs.String("uplink", "", "comma-separated relay server addresses to dial")
		forward   = fs.String("forward", "", "comma list class:subject shipped to peers (e.g. srt:0x42)")
		announce  = fs.String("announce", "", "comma list class:subject expected in from peers")
		subs      = fs.String("sub", "", "comma list of subjects requested from peers")
		expect    = fs.String("expect", "", "subject:count — stop once node 1 delivered count events; exit non-zero if the run ends short")
		expOrigin = fs.Uint64("expect-origin", 0, "require delivered trace IDs to originate from this trace base (0 disables)")
		dur       = fs.Duration("dur", 0, "wall-clock run limit (0: run to the scenario's end)")
		hb        = fs.Duration("hb", 500*time.Millisecond, "relay heartbeat period")
		verbose   = fs.Bool("v", false, "log relay link events to stderr")
		adminAddr = fs.String("admin", "", "serve the admin introspection plane ("+strings.Join(admin.Endpoints(), " ")+") on this address; empty disables")
		flightDir = fs.String("flight-dir", "", "directory for flight-recorder post-mortem dumps (overrides the scenario's flightDir)")
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
	if *config == "" {
		return die("-config is required")
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
	sc, err := scenario.LoadFile(*config)
	if err != nil {
		return die("-config: %v", err)
	}
	if sc.Nodes < nLinks+2 {
		return die("%s: %d nodes cannot host %d relay bridges plus app stations", *config, sc.Nodes, nLinks)
	}

	// Build merges the file's SLO, why and flight settings into this preset.
	sc.Observe = &obs.Config{Trace: true, Metrics: true, TraceIDBase: *traceBase << 32}
	if *flightDir != "" {
		sc.FlightDir = *flightDir
	}
	in, err := sc.Build()
	if err != nil {
		return die("-config: %v", err)
	}
	sys := in.Sys
	paced := sim.NewPaced(sys.K, *pace)

	var verboseTrace func(relay.Event)
	if *verbose {
		verboseTrace = func(e relay.Event) {
			fmt.Fprintf(stderr, "canecd[%s]: relay %s peer=%s %s\n", *segment, e.Kind, e.Peer, e.Detail)
		}
	}
	// Each link's trace stream feeds the observability plane from its
	// bridge station (top stations, one per link, assigned below).
	linkCfg := func(i int) relay.Config {
		return relay.Config{Segment: *segment, HeartbeatEvery: *hb, Seed: sc.Seed,
			Trace: relay.ObserveTrace(paced, sys.Obs, sc.Nodes-1-i, verboseTrace)}
	}

	var links []relay.Link
	var relayRows []func() admin.RelayRow
	var linkLines []string // printed once the bridges are wired
	for _, addr := range listens {
		srv, err := relay.Serve(addr, linkCfg(len(links)))
		if err != nil {
			return die("listen %s: %v", addr, err)
		}
		defer srv.Close()
		linkLines = append(linkLines, "listening on "+srv.Addr().String())
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
		linkLines = append(linkLines, "uplink to "+addr)
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
		station := sc.Nodes - 1 - i
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

	// A peer's frames reach the segment only once its link has a bridge:
	// print the link lines only now, so a peer started on them is never early.
	for _, l := range linkLines {
		fmt.Fprintf(stdout, "canecd[%s]: %s\n", *segment, l)
	}

	// Admin introspection plane: kernel-owned state is snapshotted via
	// paced.Call so HTTP handlers never race the simulation.
	var adm *admin.Server
	if *adminAddr != "" {
		host := admin.Host{Segment: *segment, Sys: sys, Loops: in.Loops, InKernel: paced.Call,
			Relay: func() []admin.RelayRow {
				rows := make([]admin.RelayRow, 0, len(relayRows))
				for _, fn := range relayRows {
					rows = append(rows, fn())
				}
				return rows
			}}
		if adm, err = admin.Serve(*adminAddr, host); err != nil {
			return die("admin: %v", err)
		}
		defer adm.Close()
		fmt.Fprintf(stdout, "canecd[%s]: admin on %s\n", *segment, adm.Addr())
	}

	// Expectation: node 1 subscribes and counts deliveries.
	var delivered, originBad, lastTraceID atomic.Uint64
	var expectSubj binding.Subject
	expectCount := uint64(0)
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

	// Settle bindings deterministically, then hand the kernel to the pacer
	// for the rest of the scenario.
	sys.K.Run(100 * sim.Millisecond)
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		paced.Run(in.End)
	}()

	// The run ends with the scenario, once the expectation is met, when
	// -dur expires, or when ctx is cancelled (a clean shutdown).
	if *dur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *dur)
		defer cancel()
	}
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
wait:
	for expectCount == 0 || delivered.Load() < expectCount {
		select {
		case <-pacerDone:
			break wait
		case <-ctx.Done():
			break wait
		case <-poll.C:
		}
	}
	if adm != nil {
		adm.Close() // before Finish: handlers read kernel state
	}
	paced.Stop()
	<-pacerDone

	rep := in.Finish()
	// A daemon usually stops before its scenario ends: report the virtual
	// time it simulated, not the scenario's length.
	rep.Elapsed = min(rep.Elapsed, sys.K.Now()-sys.Cfg.Epoch)
	fmt.Fprint(stdout, rep.String())
	if rep.Chaos != nil && len(rep.Chaos.Violations) > 0 {
		return die("%d trace invariants violated", len(rep.Chaos.Violations))
	}
	if expectCount == 0 || errors.Is(ctx.Err(), context.Canceled) {
		return 0
	}
	if got := delivered.Load(); got < expectCount {
		return die("expected %d deliveries on %#x, got %d", expectCount, expectSubj, got)
	}
	if originBad.Load() > 0 {
		return die("%d deliveries carried trace IDs outside origin base %d", originBad.Load(), *expOrigin)
	}
	// Continuity: the delivered trace carries a relay_rx record here, so the
	// local chain links back to the remote origin instead of starting fresh.
	id := lastTraceID.Load()
	if id == 0 || !slices.ContainsFunc(sys.Obs.Records(), func(r obs.Record) bool {
		return r.ID == id && r.Stage == obs.StageRelayRx
	}) {
		return die("delivered trace %#x has no relay_rx record: trace not continuous", id)
	}
	fmt.Fprintf(stdout, "canecd[%s]: expect met: %d deliveries on %#x, trace continuity ok (id=%#x)\n",
		*segment, delivered.Load(), expectSubj, id)
	return 0
}
