package relay

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/sim"
)

// fastCfg keeps wall-clock tests quick.
func fastCfg(segment string) Config {
	return Config{
		Segment:          segment,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 50 * time.Millisecond,
		Retry: binding.RetryPolicy{
			Base: sim.Duration(5 * time.Millisecond), Cap: sim.Duration(20 * time.Millisecond),
			Attempts: 1000, JitterFrac: 0.1,
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestLoopbackBothDirections(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fastCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var toHub, toLeaf atomic.Uint64
	var lastHub, lastLeaf atomic.Value
	srv.OnFrame(func(re gateway.RemoteEvent) { lastHub.Store(re); toHub.Add(1) })
	if err := srv.Subscribe(0xA1, nil, nil); err != nil {
		t.Fatal(err)
	}

	up := Dial(srv.Addr().String(), fastCfg("leaf"))
	defer up.Close()
	up.OnFrame(func(re gateway.RemoteEvent) { lastLeaf.Store(re); toLeaf.Add(1) })
	if err := up.Subscribe(0xB2, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link up", func() bool { return up.Connected() && srv.Peers() == 1 })

	// Leaf → hub on the hub's subscribed subject.
	send := gateway.RemoteEvent{
		Class: core.SRT, Subject: 0xA1, Payload: []byte{1, 2, 3},
		Origin: 4, OriginSeg: "leaf", TraceID: 77,
	}
	waitFor(t, "leaf→hub delivery", func() bool {
		up.Send(send, time.Time{})
		return toHub.Load() > 0
	})
	got := lastHub.Load().(gateway.RemoteEvent)
	if !bytes.Equal(got.Payload, send.Payload) || got.Origin != 4 || got.OriginSeg != "leaf" || got.TraceID != 77 {
		t.Fatalf("hub received %+v", got)
	}

	// Hub → leaf on the leaf's subscribed subject.
	waitFor(t, "hub→leaf delivery", func() bool {
		srv.Send(gateway.RemoteEvent{
			Class: core.SRT, Subject: 0xB2, Payload: []byte{9},
			Origin: 1, OriginSeg: "hub", TraceID: 78,
		}, time.Time{})
		return toLeaf.Load() > 0
	})

	// An unsubscribed subject never crosses.
	before := toHub.Load()
	up.Send(gateway.RemoteEvent{Class: core.SRT, Subject: 0xFF, OriginSeg: "leaf"}, time.Time{})
	time.Sleep(30 * time.Millisecond)
	if toHub.Load() != before {
		t.Fatal("unsubscribed subject delivered")
	}
}

// TestOnFrameAfterConnect installs both endpoints' callbacks only after
// the link is up and frames already cross it: the connections accepted
// and dialled without a callback must deliver from then on, without a
// reconnect.
func TestOnFrameAfterConnect(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fastCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Subscribe(0xA1, nil, nil); err != nil {
		t.Fatal(err)
	}
	up := Dial(srv.Addr().String(), fastCfg("leaf"))
	defer up.Close()
	if err := up.Subscribe(0xB2, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link up", func() bool { return up.Connected() && srv.Peers() == 1 })

	toHub := gateway.RemoteEvent{Class: core.SRT, Subject: 0xA1, Payload: []byte{1}, OriginSeg: "leaf"}
	toLeaf := gateway.RemoteEvent{Class: core.SRT, Subject: 0xB2, Payload: []byte{2}, OriginSeg: "hub"}
	// Frames decoded with no callback installed yet.
	waitFor(t, "frames before OnFrame", func() bool {
		up.Send(toHub, time.Time{})
		srv.Send(toLeaf, time.Time{})
		return srv.Counters().Received() > 0 && up.Counters().Received() > 0
	})

	var atHub, atLeaf atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { atHub.Add(1) })
	up.OnFrame(func(gateway.RemoteEvent) { atLeaf.Add(1) })
	waitFor(t, "delivery after OnFrame", func() bool {
		up.Send(toHub, time.Time{})
		srv.Send(toLeaf, time.Time{})
		return atHub.Load() > 0 && atLeaf.Load() > 0
	})
	if d := up.Counters().LinkDowns() + srv.Counters().LinkDowns(); d != 0 {
		t.Fatalf("link went down %d times: delivery came from a new connection", d)
	}
}

func TestOriginFilterAppliedRemotely(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fastCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var n atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { n.Add(1) })
	// The hub only wants subject 0xC3 from origins other than TxNode 9 —
	// the paper's origin filtering enforced before the wire is spent.
	if err := srv.Subscribe(0xC3, nil, []can.TxNode{9}); err != nil {
		t.Fatal(err)
	}
	up := Dial(srv.Addr().String(), fastCfg("leaf"))
	defer up.Close()
	waitFor(t, "link up", func() bool { return up.Connected() })

	waitFor(t, "accepted origin", func() bool {
		up.Send(gateway.RemoteEvent{Class: core.SRT, Subject: 0xC3, Origin: 2, OriginSeg: "leaf"}, time.Time{})
		return n.Load() > 0
	})
	// Let deliveries from the retry loop above finish before measuring.
	waitFor(t, "quiesce", func() bool {
		v := n.Load()
		time.Sleep(20 * time.Millisecond)
		return n.Load() == v
	})
	before := n.Load()
	refusedBefore := up.Counters().refuse.Load()
	up.Send(gateway.RemoteEvent{Class: core.SRT, Subject: 0xC3, Origin: 9, OriginSeg: "leaf"}, time.Time{})
	waitFor(t, "filtered origin refused locally", func() bool {
		return up.Counters().refuse.Load() > refusedBefore
	})
	time.Sleep(20 * time.Millisecond)
	if n.Load() != before {
		t.Fatal("filtered origin crossed the wire")
	}
	// Echo guard: an event whose OriginSeg matches the peer's segment is
	// never sent back to it.
	up.Send(gateway.RemoteEvent{Class: core.SRT, Subject: 0xC3, Origin: 2, OriginSeg: "hub"}, time.Time{})
	time.Sleep(20 * time.Millisecond)
	if n.Load() != before {
		t.Fatal("event echoed back to its origin segment")
	}
}

// TestHeartbeatTimeoutRedial connects the uplink to a silent TCP
// endpoint (accepts, never speaks). The heartbeat timeout must kill the
// link and the retry policy must drive re-dials.
func TestHeartbeatTimeoutRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow everything, say nothing.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	var mu sync.Mutex
	var downs []string
	cfg := fastCfg("impatient")
	cfg.Trace = func(e Event) {
		if e.Kind == "down" {
			mu.Lock()
			downs = append(downs, e.Detail)
			mu.Unlock()
		}
	}
	up := Dial(ln.Addr().String(), cfg)
	defer up.Close()
	waitFor(t, "heartbeat-timeout redial", func() bool {
		return up.Counters().Redials() >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, d := range downs {
		if len(d) >= 9 && d[:9] == "heartbeat" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no heartbeat-timeout down event; downs = %q", downs)
	}
}

// TestPeerDisconnectMidFrame feeds the uplink a valid Hello followed by
// a truncated frame message, then slams the connection. The reader must
// fail cleanly (no panic, no partial delivery) and re-dial; after the
// fake peer is replaced by a real server, traffic flows.
func TestPeerDisconnectMidFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		hello, _ := encodeHello("trickster")
		writeMsg(c, hello)
		// Announce a 64-byte message but deliver only a sliver of it.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		c.Write(hdr[:])
		c.Write([]byte{msgFrame, 1, 2, 3})
		time.Sleep(5 * time.Millisecond)
		c.Close()
		ln.Close()
		close(accepted)
	}()

	var delivered atomic.Uint64
	up := Dial(addr, fastCfg("victim"))
	defer up.Close()
	up.OnFrame(func(gateway.RemoteEvent) { delivered.Add(1) })
	<-accepted
	waitFor(t, "redial after mid-frame disconnect", func() bool {
		return up.Counters().Redials() >= 1
	})
	if delivered.Load() != 0 {
		t.Fatal("truncated frame was delivered")
	}

	// Stand up a real server on the same address; the uplink's retry
	// loop must find it and resume service.
	srv, err := Serve(addr, fastCfg("hub"))
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv.Close()
	var got atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { got.Add(1) })
	srv.Subscribe(0xD4, nil, nil)
	waitFor(t, "recovery delivery", func() bool {
		up.Send(gateway.RemoteEvent{Class: core.SRT, Subject: 0xD4, OriginSeg: "victim"}, time.Time{})
		return got.Load() > 0
	})
}

// TestSubscriptionRaceWithTraffic hammers subscription updates while
// frames are in flight; run under -race this proves the filter tables
// are safely shared between the control and data planes.
func TestSubscriptionRaceWithTraffic(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fastCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var got atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { got.Add(1) })
	srv.Subscribe(0xE5, nil, nil)
	up := Dial(srv.Addr().String(), fastCfg("leaf"))
	defer up.Close()
	up.OnFrame(func(gateway.RemoteEvent) {})
	waitFor(t, "link up", func() bool { return up.Connected() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // data plane: leaf → hub
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			up.Send(gateway.RemoteEvent{
				Class: core.SRT, Subject: 0xE5, Origin: can.TxNode(i % 8),
				OriginSeg: "leaf", TraceID: uint64(i + 1),
			}, time.Time{})
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // control plane: the hub flaps its origin filter
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.Subscribe(0xE5, nil, []can.TxNode{can.TxNode(i % 8)})
			time.Sleep(300 * time.Microsecond)
		}
	}()
	go func() { // control plane: the leaf churns an unrelated subject
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				up.Subscribe(0xE6, nil, nil)
			} else {
				up.Unsubscribe(0xE6)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got.Load() == 0 {
		t.Fatal("no frames crossed during the subscription churn")
	}
}

// BenchmarkRelayThroughput measures end-to-end frames/s over a loopback
// TCP link: encode → queue → write → read → decode → deliver. HRT class
// keeps the egress queue lossless so every sent frame is awaited.
func BenchmarkRelayThroughput(b *testing.B) {
	cfg := Config{Segment: "bench", HeartbeatEvery: time.Second}
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var got atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { got.Add(1) })
	srv.Subscribe(0xF7, nil, nil)
	up := Dial(srv.Addr().String(), cfg)
	defer up.Close()
	deadline := time.Now().Add(5 * time.Second)
	for (!up.Connected() || srv.Peers() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	re := gateway.RemoteEvent{
		Class: core.HRT, Subject: 0xF7, Payload: payload,
		Origin: 3, OriginSeg: "bench-peer", TraceID: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.TraceID = uint64(i + 1)
		if err := up.Send(re, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	for got.Load() < uint64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkRelayThroughputObserved is the same loopback pipeline with
// the live introspection plane attached (E14): relay trace events are
// bridged into an Observer on a paced kernel via ObserveTrace, and an
// admin server is scraped for /metrics concurrently with the frame
// stream. The delta against BenchmarkRelayThroughput is the cost of
// observing a federated link while it is under load.
func BenchmarkRelayThroughputObserved(b *testing.B) {
	k := sim.NewKernel(99)
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: 2, Kernel: k,
		Observe: &obs.Config{Metrics: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	paced := sim.NewPaced(k, 1.0)
	adm, err := admin.Serve("127.0.0.1:0", admin.Host{Segment: "bench", Sys: sys, InKernel: paced.Call})
	if err != nil {
		b.Fatal(err)
	}
	defer adm.Close()
	go paced.Run(sim.Time(time.Hour))
	defer paced.Stop()

	cfg := Config{Segment: "bench", HeartbeatEvery: time.Second,
		Trace: ObserveTrace(paced, sys.Obs, 0, nil)}
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var got atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { got.Add(1) })
	srv.Subscribe(0xF7, nil, nil)
	up := Dial(srv.Addr().String(), cfg)
	defer up.Close()
	deadline := time.Now().Add(5 * time.Second)
	for (!up.Connected() || srv.Peers() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	stopScrape := make(chan struct{})
	defer close(stopScrape)
	go func() { // a live Prometheus scraper, as a deployment would have
		client := &http.Client{Timeout: time.Second}
		url := "http://" + adm.Addr() + "/metrics"
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			if resp, err := client.Get(url); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	re := gateway.RemoteEvent{
		Class: core.HRT, Subject: 0xF7, Payload: payload,
		Origin: 3, OriginSeg: "bench-peer", TraceID: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.TraceID = uint64(i + 1)
		if err := up.Send(re, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	for got.Load() < uint64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}
