// Package suite holds the recordable benchmark cases behind the
// BENCH_*.json trajectory: the same workloads as the root bench_test.go
// harness (experiment tables E1–E10, kernel/bus micro-benchmarks, full
// publish→deliver chains, relay loopback throughput), expressed as
// perf.Case functions so canecbench can run them outside `go test` and
// the regression gate can diff any two recorded points.
package suite

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/experiments"
	"canec/internal/gateway"
	"canec/internal/obs/perf"
	"canec/internal/relay"
	"canec/internal/sim"
	"canec/internal/stats"
)

// latHist builds the latency histogram all end-to-end cases share:
// virtual-time publish→deliver latency in nanoseconds, 1µs–10s range.
func latHist() *stats.LogHistogram {
	return stats.NewLogHistogram("latency_ns", 1e3, 1e10, 96)
}

// simKernel measures raw event throughput of the discrete-event kernel.
func simKernel(n int) perf.Sample {
	k := sim.NewKernel(1)
	done := 0
	var tick func()
	tick = func() {
		done++
		if done < n {
			k.After(100, tick)
		}
	}
	k.After(100, tick)
	k.Run(sim.MaxTime)
	if done < n {
		panic("kernel stalled")
	}
	return perf.Sample{}
}

// frameWireBits measures the stuffed wire-length computation.
func frameWireBits(n int) perf.Sample {
	f := can.Frame{ID: can.MakeID(42, 17, 9999), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	total := 0
	for i := 0; i < n; i++ {
		total += can.WireBits(f)
	}
	if total == 0 {
		panic("no bits")
	}
	return perf.Sample{}
}

// busSaturated measures simulated frames/s on a saturated 8-node bus.
func busSaturated(n int) perf.Sample {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	const nodes = 8
	for i := 0; i < nodes; i++ {
		bus.Attach(can.TxNode(i))
	}
	sent := 0
	var submit func(node int)
	submit = func(node int) {
		if sent >= n {
			return
		}
		sent++
		f := can.Frame{
			ID:   can.MakeID(can.Prio(10+node), can.TxNode(node), can.Etag(sent&0x3fff)),
			Data: []byte{byte(sent), 0, 0, 0, 0, 0, 0, 0},
		}
		bus.Controller(node).Submit(f, can.SubmitOpts{Done: func(bool, sim.Time) {
			submit(node)
		}})
	}
	for i := 0; i < nodes; i++ {
		submit(i)
	}
	k.Run(sim.MaxTime)
	if got := bus.Stats().FramesOK; got < uint64(n) {
		panic(fmt.Sprintf("only %d frames for n=%d", got, n))
	}
	return perf.Sample{FramesPerOp: 1}
}

// endToEndHRT measures full-stack cost per delivered HRT event.
func endToEndHRT(n int) perf.Sample {
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: 0x31, Publisher: 0, Payload: 8, Periodic: true})
	if err != nil {
		panic(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 2, Seed: 1, Calendar: cal, Epoch: sim.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	pub := must(sys.Node(0).MW.HRTEC(0x31))
	check(pub.Announce(core.ChannelAttrs{Payload: 7, Periodic: true}, nil))
	// Publish instants are deterministic (one per round), so the payload
	// carries the round index and the subscriber reconstructs the
	// publish time — per-event latency without observer overhead in the
	// measured workload.
	pubAt := func(r uint32) sim.Time {
		return sys.Cfg.Epoch + sim.Time(r)*cal.Round - 100*sim.Microsecond
	}
	hist := latHist()
	got := 0
	sub := must(sys.Node(1).MW.HRTEC(0x31))
	check(sub.Subscribe(core.ChannelAttrs{Payload: 7, Periodic: true}, core.SubscribeAttrs{},
		func(ev core.Event, di core.DeliveryInfo) {
			got++
			if at := pubAt(binary.LittleEndian.Uint32(ev.Payload)); di.DeliveredAt > at {
				hist.Observe(float64(di.DeliveredAt - at))
			}
		}, nil))
	for r := 0; r < n; r++ {
		payload := binary.LittleEndian.AppendUint32(nil, uint32(r))
		sys.K.At(pubAt(uint32(r)), func() {
			pub.Publish(core.Event{Subject: 0x31, Payload: payload})
		})
	}
	sys.Run(sys.Cfg.Epoch + sim.Time(n)*cal.Round - 1)
	if got != n {
		panic(fmt.Sprintf("delivered %d of %d", got, n))
	}
	return perf.Sample{FramesPerOp: 1, Hist: hist}
}

// endToEndSRT measures full-stack cost per delivered SRT event.
func endToEndSRT(n int) perf.Sample {
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	pub := must(sys.Node(0).MW.SRTEC(0x41))
	check(pub.Announce(core.ChannelAttrs{}, nil))
	// As in endToEndHRT: the payload carries the publish sequence, whose
	// publish instant is deterministic, so per-event latency needs no
	// observer in the measured workload.
	pubAt := func(r uint32) sim.Time { return sim.Time(r) * 200 * sim.Microsecond }
	hist := latHist()
	got := 0
	sub := must(sys.Node(1).MW.SRTEC(0x41))
	check(sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(ev core.Event, di core.DeliveryInfo) {
			got++
			if at := pubAt(binary.LittleEndian.Uint32(ev.Payload)); di.DeliveredAt > at {
				hist.Observe(float64(di.DeliveredAt - at))
			}
		}, nil))
	for r := 0; r < n; r++ {
		payload := binary.LittleEndian.AppendUint32(nil, uint32(r))
		sys.K.At(pubAt(uint32(r)), func() {
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(core.Event{Subject: 0x41, Payload: payload,
				Attrs: core.EventAttrs{Deadline: now + 5*sim.Millisecond}})
		})
	}
	sys.Run(sim.Time(n)*200*sim.Microsecond + sim.Second)
	if got != n {
		panic(fmt.Sprintf("delivered %d of %d", got, n))
	}
	return perf.Sample{FramesPerOp: 1, Hist: hist}
}

// relayThroughput measures end-to-end frames/s over a loopback TCP link:
// encode → queue → write → read → decode → deliver.
func relayThroughput(n int) perf.Sample {
	cfg := relay.Config{Segment: "bench", HeartbeatEvery: time.Second}
	srv, err := relay.Serve("127.0.0.1:0", cfg)
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	// Probes carry trace ID 0 and are counted apart from the measured
	// frames.
	var got, probes atomic.Uint64
	srv.OnFrame(func(re gateway.RemoteEvent) {
		if re.TraceID == 0 {
			probes.Add(1)
			return
		}
		got.Add(1)
	})
	srv.Subscribe(0xF7, nil, nil)
	up := relay.Dial(srv.Addr().String(), cfg)
	defer up.Close()
	// A connected uplink still refuses frames until the server's
	// subscription has reached it, so probe until one gets through.
	probe := gateway.RemoteEvent{Class: core.HRT, Subject: 0xF7, Origin: 3, OriginSeg: "bench-peer"}
	waitUntil(time.Now().Add(5*time.Second),
		func() bool {
			if probes.Load() > 0 {
				return true
			}
			if up.Connected() {
				_ = up.Send(probe, time.Time{})
			}
			return false
		},
		func() string {
			return fmt.Sprintf("link: got connected=%v peers=%d probes=%d, want a probe through",
				up.Connected(), srv.Peers(), probes.Load())
		})

	re := gateway.RemoteEvent{
		Class: core.HRT, Subject: 0xF7, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Origin: 3, OriginSeg: "bench-peer", TraceID: 1,
	}
	for i := 0; i < n; i++ {
		re.TraceID = uint64(i + 1)
		if err := up.Send(re, time.Time{}); err != nil {
			panic(err)
		}
	}
	// A millisecond per frame is far below any loopback rate, even
	// under -race: only a lost frame or a dead link reaches the deadline.
	waitUntil(time.Now().Add(10*time.Second+time.Duration(n)*time.Millisecond),
		func() bool { return got.Load() >= uint64(n) },
		func() string { return fmt.Sprintf("frames: got %d, want %d", got.Load(), n) })
	return perf.Sample{FramesPerOp: 1}
}

// waitUntil polls cond until it holds. Once deadline has passed it
// panics with status, which says what was awaited (got and want), so a
// stuck case fails instead of spinning for ever.
func waitUntil(deadline time.Time, cond func() bool, status func() string) {
	for !cond() {
		if time.Now().After(deadline) {
			panic("relay throughput timed out: " + status())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// experimentSeed is the one seed every experiment case runs at. With a
// seed per iteration, a calibrated iteration count n would average a
// different set of runs each time and move allocs/op with n.
const experimentSeed = 1

// experimentCase wraps one experiment table: each iteration regenerates
// the table end to end at experimentSeed, reporting the row count so a
// result-shape change shows in the trajectory as well.
func experimentCase(id string) perf.Case {
	return perf.Case{
		Name: id,
		Fn: func(n int) perf.Sample {
			e, ok := experiments.Find(id)
			if !ok {
				panic("unknown experiment " + id)
			}
			rows := 0
			for range n {
				res := e.Run(experimentSeed)
				rows = len(res.Table.Rows)
			}
			return perf.Sample{Extra: map[string]float64{"table_rows": float64(rows)}}
		},
	}
}

// Cases returns the full recordable suite in recording order.
func Cases() []perf.Case {
	cases := []perf.Case{
		{Name: "SimKernel", Fn: simKernel},
		{Name: "FrameWireBits", Fn: frameWireBits},
		{Name: "BusSaturated", Fn: busSaturated},
		{Name: "EndToEndHRT", Fn: endToEndHRT},
		{Name: "EndToEndSRT", Fn: endToEndSRT},
		{Name: "RelayThroughput", Fn: relayThroughput},
	}
	for i := 1; i <= 10; i++ {
		cases = append(cases, experimentCase(fmt.Sprintf("E%d", i)))
	}
	return cases
}

// ProfiledMixed runs a three-class workload — a periodic HRT slot, an
// SRT EDF stream, and NRT bulk messages — with a kernel profiler
// attached, and returns the profile snapshot. This is the workload
// behind `canecbench -profile` and the E15 per-class breakdown: n
// events of each class move publish→deliver while every stage is timed.
func ProfiledMixed(n int) perf.Snapshot {
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: 0x31, Publisher: 0, Payload: 8, Periodic: true})
	if err != nil {
		panic(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 2, Seed: 1, Calendar: cal, Epoch: sim.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	prof := &perf.Profiler{}
	prof.AttachKernel(sys.K)
	prof.SetBusySource(func() sim.Duration { return sys.Bus.Stats().BusyTime })

	hrtPub := must(sys.Node(0).MW.HRTEC(0x31))
	check(hrtPub.Announce(core.ChannelAttrs{Payload: 7, Periodic: true}, nil))
	hrtSub := must(sys.Node(1).MW.HRTEC(0x31))
	check(hrtSub.Subscribe(core.ChannelAttrs{Payload: 7, Periodic: true}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil))

	srtPub := must(sys.Node(0).MW.SRTEC(0x41))
	check(srtPub.Announce(core.ChannelAttrs{}, nil))
	srtSub := must(sys.Node(1).MW.SRTEC(0x41))
	check(srtSub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil))

	nrtPub := must(sys.Node(0).MW.NRTEC(0x51))
	check(nrtPub.Announce(core.ChannelAttrs{}, nil))
	nrtSub := must(sys.Node(1).MW.NRTEC(0x51))
	check(nrtSub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
		func(core.Event, core.DeliveryInfo) {}, nil))

	for r := 0; r < n; r++ {
		sys.K.At(sys.Cfg.Epoch+sim.Time(r)*cal.Round-100*sim.Microsecond, func() {
			hrtPub.Publish(core.Event{Subject: 0x31, Payload: []byte{1}})
		})
		sys.K.At(sim.Time(r)*200*sim.Microsecond, func() {
			now := sys.Node(0).MW.LocalTime()
			srtPub.Publish(core.Event{Subject: 0x41, Payload: []byte{1, 2, 3},
				Attrs: core.EventAttrs{Deadline: now + 5*sim.Millisecond}})
		})
		sys.K.At(sim.Time(r)*500*sim.Microsecond, func() {
			nrtPub.Publish(core.Event{Subject: 0x51, Payload: []byte{4, 5}})
		})
	}
	horizon := sys.Cfg.Epoch + sim.Time(n)*cal.Round + sim.Second
	sys.Run(horizon)
	return prof.Snapshot()
}

// Find returns the named case.
func Find(name string) (perf.Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return perf.Case{}, false
}

// must returns v, or panics with err: a case whose channel is not wired
// measures nothing.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics on a wiring error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}
