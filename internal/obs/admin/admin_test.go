package admin

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"canec/internal/binding"
	"canec/internal/chaos"
	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/relay"
	"canec/internal/sim"
)

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	code, body := getBody(t, url)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON (%v): %s", url, err, body)
	}
	return code
}

// TestAdminBareOptions: every endpoint must answer gracefully when the
// server is wired to nothing — a canecstat loop polls heterogeneous
// daemons and must not be derailed by a minimal one.
func TestAdminBareOptions(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{Segment: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	var h Health
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz code %d", code)
	}
	if h.Status != "ok" || h.Segment != "bare" {
		t.Fatalf("healthz = %+v", h)
	}
	var rows []ChannelRow
	getJSON(t, base+"/channels", &rows)
	if len(rows) != 0 {
		t.Fatalf("channels = %v", rows)
	}
	var sv SLOView
	getJSON(t, base+"/slo", &sv)
	if sv.Enabled || sv.Breached {
		t.Fatalf("slo = %+v", sv)
	}
	var rl []RelayRow
	getJSON(t, base+"/relay", &rl)
	if len(rl) != 0 {
		t.Fatalf("relay = %v", rl)
	}
	var fv flightView
	getJSON(t, base+"/flight", &fv)
	if fv.Enabled {
		t.Fatalf("flight = %+v", fv)
	}
	var cv ControlView
	getJSON(t, base+"/control", &cv)
	if cv.Enabled || len(cv.Loops) != 0 {
		t.Fatalf("control = %+v", cv)
	}
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics without registry: code %d", code)
	}
	if code, body := getBody(t, base+"/"); code != http.StatusOK || !strings.Contains(string(body), "/slo") {
		t.Fatalf("index: code %d body %s", code, body)
	}
	if code, _ := getBody(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code %d", code)
	}
}

// TestAdminSystemEndpoints wires a real (unpaced) system in and checks
// the kernel-owned views: metrics exposition, channel rows, and that
// every kernel read goes through InKernel.
func TestAdminSystemEndpoints(t *testing.T) {
	k := sim.NewKernel(7)
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 3, Kernel: k,
		Observe: &obs.Config{Metrics: true, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const subj binding.Subject = 0x21
	pub, err := sys.Node(0).MW.SRTEC(subj)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := sys.Node(1).MW.SRTEC(subj)
	if err != nil {
		t.Fatal(err)
	}
	sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil)
	k.Run(50 * sim.Millisecond)
	now := sys.Node(0).MW.LocalTime()
	pub.Publish(core.Event{Subject: subj, Payload: []byte{9},
		Attrs: core.EventAttrs{Deadline: now + 10*sim.Millisecond}})
	k.Run(100 * sim.Millisecond)

	var mu sync.Mutex
	inKernelCalls := 0
	s, err := Serve("127.0.0.1:0", Options{
		Segment:  "sys",
		Registry: sys.Obs.Registry(),
		Observer: sys.Obs,
		Now:      k.Now,
		Channels: SystemChannels(sys),
		InKernel: func(fn func()) {
			mu.Lock()
			inKernelCalls++
			mu.Unlock()
			fn()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics code %d", code)
	}
	for _, want := range []string{"# TYPE canec_events_published_total counter", `class="SRT"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	var rows []ChannelRow
	getJSON(t, base+"/channels", &rows)
	var pubRow, subRow *ChannelRow
	for i := range rows {
		r := &rows[i]
		if r.Node == 0 && r.Announced {
			pubRow = r
		}
		if r.Node == 1 && r.Subscribed {
			subRow = r
		}
	}
	if pubRow == nil || subRow == nil {
		t.Fatalf("channels missing pub/sub rows: %+v", rows)
	}
	if pubRow.Class != "SRT" || pubRow.TxNode != 0 || pubRow.Subject != "0x21" {
		t.Fatalf("pub row = %+v", *pubRow)
	}
	if subRow.TxNode != -1 {
		t.Fatalf("sub row TxNode = %d", subRow.TxNode)
	}

	var h Health
	getJSON(t, base+"/healthz", &h)
	if h.VirtualNow != int64(k.Now()) || h.Channels != len(rows) {
		t.Fatalf("healthz = %+v (kernel now %d)", h, k.Now())
	}
	mu.Lock()
	calls := inKernelCalls
	mu.Unlock()
	if calls < 3 {
		t.Fatalf("InKernel used %d times, want one per kernel-touching endpoint", calls)
	}
}

// TestAdminControlEndpoint wires a real closed loop over SRT channels
// and checks /control serves its live QoC snapshot through InKernel.
func TestAdminControlEndpoint(t *testing.T) {
	k := sim.NewKernel(9)
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 4, Kernel: k,
		Observe: &obs.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := control.NewLoop(control.LoopConfig{
		Name: "cart", Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
		Class: core.SRT, Sensor: 1, ControllerNode: 2, Actuator: 1,
		SensorSubject: 0x311, CommandSubject: 0x312, Period: 5 * sim.Millisecond,
		Setpoint: 0, Initial: 1,
	}, sys.Obs)
	if err != nil {
		t.Fatal(err)
	}
	end := sys.Cfg.Epoch + sim.Time(1200*sim.Millisecond)
	if err := l.Install(k, sys.Cfg.Epoch, end, func(n int) *core.Middleware {
		return sys.Node(n).MW
	}, nil); err != nil {
		t.Fatal(err)
	}
	sys.Run(end)

	inKernel := 0
	s, err := Serve("127.0.0.1:0", Options{
		Segment: "ctl", Now: k.Now,
		Control:  LoopRows([]*control.Loop{l}),
		InKernel: func(fn func()) { inKernel++; fn() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var cv ControlView
	getJSON(t, "http://"+s.Addr()+"/control", &cv)
	if !cv.Enabled || len(cv.Loops) != 1 {
		t.Fatalf("control view = %+v", cv)
	}
	row := cv.Loops[0]
	if row.Loop != "cart" || row.Class != "SRT" {
		t.Fatalf("row identity = %+v", row)
	}
	if !row.Settled || row.Cost <= 0 || row.Applied == 0 || row.LatP50Us <= 0 {
		t.Fatalf("row QoC = %+v", row)
	}
	if inKernel == 0 {
		t.Fatal("/control bypassed InKernel")
	}
	if code, body := getBody(t, "http://"+s.Addr()+"/"); code != http.StatusOK ||
		!strings.Contains(string(body), "/control") {
		t.Fatalf("index misses /control: %s", body)
	}
}

// TestAdminSLOBreachOverLinkLoss is the acceptance scenario for the
// introspection plane: two paced segments federate over TCP through a
// chaos proxy; an injected link-loss campaign (proxy killed, uplink
// egress shedding SRT) must drive the srt-miss-rate SLO into breach —
// observable live at /slo and /healthz, recorded as a slo_breach trace
// event, and dumped by the flight recorder as a post-mortem.
func TestAdminSLOBreachOverLinkLoss(t *testing.T) {
	const subj binding.Subject = 0x31
	flightDir := t.TempDir()

	kA := sim.NewKernel(11)
	sysA, err := core.NewSystem(core.SystemConfig{
		Nodes: 4, Kernel: kA,
		Observe: &obs.Config{
			Trace: true, Metrics: true, TraceIDBase: 1 << 32,
			FlightRecords: 256, FlightDir: flightDir,
			SLO: &obs.SLOConfig{
				Interval:      20 * sim.Millisecond,
				ShortWindow:   250 * sim.Millisecond,
				LongWindow:    sim.Second,
				SRTMissBudget: 0.05,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	kB := sim.NewKernel(12)
	sysB, err := core.NewSystem(core.SystemConfig{
		Nodes: 4, Kernel: kB,
		Observe: &obs.Config{Trace: true, Metrics: true, TraceIDBase: 2 << 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	pacedA := sim.NewPaced(kA, 1.0)
	pacedB := sim.NewPaced(kB, 1.0)

	retry := binding.RetryPolicy{
		Base: sim.Duration(5 * time.Millisecond), Cap: sim.Duration(20 * time.Millisecond),
		Attempts: 100000, JitterFrac: 0.1,
	}
	cfgB := relay.Config{Segment: "segB", HeartbeatEvery: 10 * time.Millisecond,
		HeartbeatTimeout: 50 * time.Millisecond, Retry: retry, Seed: 12,
		Trace: relay.ObserveTrace(pacedB, sysB.Obs, 3, nil)}
	srvB, err := relay.Serve("127.0.0.1:0", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	// The bridge installs srvB's frame callback, which a peer captures when
	// it is accepted: wire it before anything can dial in.
	bB, err := gateway.NewRemote(sysB.Node(3).MW, relay.NewPort(pacedB, srvB), "segB")
	if err != nil {
		t.Fatal(err)
	}

	proxy, err := chaos.NewLinkProxy(srvB.Addr().String(), chaos.LinkFaults{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Small SRT egress cap: once the link is down the queue sheds fast,
	// which is exactly the signal the SLO counts.
	cfgA := relay.Config{Segment: "segA", HeartbeatEvery: 10 * time.Millisecond,
		HeartbeatTimeout: 50 * time.Millisecond, Retry: retry, Seed: 11,
		SRTQueueCap: 4,
		Trace:       relay.ObserveTrace(pacedA, sysA.Obs, 3, nil)}
	upA := relay.Dial(proxy.Addr(), cfgA)
	defer upA.Close()

	bA, err := gateway.NewRemote(sysA.Node(3).MW, relay.NewPort(pacedA, upA), "segA")
	if err != nil {
		t.Fatal(err)
	}
	bA.Budget = 50 * sim.Millisecond
	if err := bA.Forward(core.SRT, subj, core.ChannelAttrs{}); err != nil {
		t.Fatal(err)
	}
	if err := bB.Announce(core.SRT, subj, core.ChannelAttrs{}); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Subscribe(subj, nil, nil); err != nil {
		t.Fatal(err)
	}

	pub, err := sysA.Node(0).MW.SRTEC(subj)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(core.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	var delivered int64
	var mu sync.Mutex
	subB, err := sysB.Node(1).MW.SRTEC(subj)
	if err != nil {
		t.Fatal(err)
	}
	subB.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}, nil)

	// Settle bindings deterministically before pacing starts.
	kA.Run(50 * sim.Millisecond)
	kB.Run(50 * sim.Millisecond)

	const horizon = sim.Time(time.Hour)
	var wg sync.WaitGroup
	for _, p := range []*sim.Paced{pacedA, pacedB} {
		wg.Add(1)
		go func(p *sim.Paced) { defer wg.Done(); p.Run(horizon) }(p)
	}
	stopped := false
	stopAll := func() {
		if !stopped {
			stopped = true
			pacedA.Stop()
			pacedB.Stop()
			wg.Wait()
		}
	}
	defer stopAll()

	// Admin planes on both segments (the two-daemon requirement).
	admA, err := Serve("127.0.0.1:0", Options{
		Segment: "segA", Registry: sysA.Obs.Registry(), Observer: sysA.Obs,
		SLO: sysA.SLO, Now: kA.Now, Channels: SystemChannels(sysA),
		InKernel: pacedA.Call,
		Relay: func() []RelayRow {
			row := LinkRow("uplink "+proxy.Addr(), "uplink", upA.Connected(), 0,
				upA.Counters(), upA.Depths)
			return []RelayRow{row}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admA.Close()
	admB, err := Serve("127.0.0.1:0", Options{
		Segment: "segB", Registry: sysB.Obs.Registry(), Observer: sysB.Obs,
		Now: kB.Now, Channels: SystemChannels(sysB), InKernel: pacedB.Call,
		Relay: func() []RelayRow {
			return []RelayRow{LinkRow("listen "+srvB.Addr().String(), "listen",
				srvB.Peers() > 0, srvB.Peers(), srvB.Counters(), srvB.Depths)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admB.Close()
	baseA := "http://" + admA.Addr()
	baseB := "http://" + admB.Addr()

	waitFor := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}

	waitFor("link up", 5*time.Second, func() bool {
		return upA.Connected() && srvB.Peers() == 1
	})

	// Start the publisher: one SRT event every 10 ms virtual.
	stopPub := false
	pacedA.Call(func() {
		var tick func()
		tick = func() {
			if stopPub {
				return
			}
			now := sysA.Node(0).MW.LocalTime()
			pub.Publish(core.Event{Subject: subj, Payload: []byte{0xAB},
				Attrs: core.EventAttrs{Deadline: now + 20*sim.Millisecond}})
			kA.After(10*sim.Millisecond, tick)
		}
		tick()
	})
	defer pacedA.Call(func() { stopPub = true })

	waitFor("cross-segment delivery", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered >= 20
	})

	// Healthy phase: wait until the miss-rate objective is warmed up
	// (both burn windows have baselines) and not breached.
	sloA := func() (SLOView, *obs.Objective) {
		var v SLOView
		getJSON(t, baseA+"/slo", &v)
		for i := range v.Objectives {
			if v.Objectives[i].Name == "srt-miss-rate" {
				return v, &v.Objectives[i]
			}
		}
		return v, nil
	}
	waitFor("SLO warm-up", 10*time.Second, func() bool {
		_, ob := sloA()
		return ob != nil && ob.Evaluable
	})
	if _, ob := sloA(); ob.Breached {
		t.Fatalf("objective breached while healthy: %+v", *ob)
	}
	var h Health
	if code := getJSON(t, baseA+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy /healthz: code %d %+v", code, h)
	}
	if code := getJSON(t, baseB+"/healthz", &h); code != http.StatusOK || h.LinksUp != 1 {
		t.Fatalf("segB /healthz: code %d %+v", code, h)
	}

	// Link-loss campaign: kill the proxy. The uplink's egress queue
	// sheds SRT frames (backpressure + budget expiry), each shed feeds
	// canec_relay_dropped_total, and the SLO burns through its budget.
	proxy.Close()

	waitFor("srt-miss-rate breach", 15*time.Second, func() bool {
		v, ob := sloA()
		return ob != nil && ob.Breached && v.Breached
	})
	v, ob := sloA()
	if ob.LongBurn < 1 || ob.ShortBurn < 1 {
		t.Fatalf("breached objective without burn: %+v", *ob)
	}

	// The breach must have produced a flight-recorder post-mortem.
	if len(v.LastDump) == 0 {
		t.Fatal("breach produced no post-mortem dump")
	}
	for _, p := range v.LastDump {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("post-mortem %s: %v", p, err)
		}
	}

	// /healthz flips to 503 while in breach.
	if code := getJSON(t, baseA+"/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "breached" {
		t.Fatalf("breached /healthz: code %d %+v", code, h)
	}

	// The exposition shows the breach and drop counters.
	_, metrics := getBody(t, baseA+"/metrics")
	for _, want := range []string{
		`canec_slo_breaches_total{objective="srt-miss-rate"}`,
		"canec_relay_dropped_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// /flight reflects the dump; /relay shows the dead uplink.
	var fv flightView
	getJSON(t, baseA+"/flight", &fv)
	if !fv.Enabled || len(fv.Dumps) == 0 {
		t.Fatalf("flight = %+v", fv)
	}
	var rl []RelayRow
	getJSON(t, baseA+"/relay", &rl)
	if len(rl) != 1 || rl[0].Kind != "uplink" || rl[0].Dropped == 0 {
		t.Fatalf("relay = %+v", rl)
	}

	// Stop pacing, then verify the breach left a trace record (Call
	// executes inline once the pacer has quit).
	stopAll()
	found := false
	pacedA.Call(func() {
		for _, r := range sysA.Obs.Records() {
			if r.Stage == obs.StageSLOBreach && strings.Contains(r.Detail, "srt-miss-rate") {
				found = true
			}
		}
	})
	if !found {
		t.Fatal("no slo_breach trace record on segment A")
	}
}
