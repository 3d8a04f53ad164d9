package main

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/frag"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/relay"
	"canec/internal/sim"
)

// Isolated replays: what System.Run's self time contains — kernel, bus,
// receive-side middleware — cannot be split by bracketing from outside,
// so each such layer is run alone over the inputs captured from the same
// workload. The numbers are host times of the layer with nothing around
// it (warm caches, no interleaving), so they bound a layer's share from
// below; the remainder is printed as harness.unattributed_share.

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replaySim drives a bare kernel through the same number of steps, with
// the same share of cancellations, at the mean heap depth the workload
// showed, with no-op callbacks. It returns host ns per step, each step
// carrying its At and its share of Cancel.
func replaySim(steps, heapOps uint64, depth int) float64 {
	if steps == 0 {
		return 0
	}
	k := sim.NewKernel(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		k.At(sim.MaxTime-sim.Time(i), noop)
	}
	// heapOps = At + Cancel + Step pops and At = Step + Cancel over a run
	// that ends as deep as it began, so Cancel = (heapOps - 2*steps) / 2.
	var cancelEvery uint64
	if heapOps > 2*steps {
		cancelEvery = 2 * steps / (heapOps - 2*steps)
		if cancelEvery == 0 {
			cancelEvery = 1
		}
	}
	rng := sim.NewRNG(1)
	t := time.Now()
	for i := uint64(0); i < steps; i++ {
		k.After(sim.Duration(1+rng.Uint64()%1000)*sim.Microsecond, noop)
		if cancelEvery > 0 && i%cancelEvery == 0 {
			k.Cancel(k.After(sim.Second, noop))
		}
		k.Step()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(steps)
}

var sinkBits int

// replayWireBits runs can.WireBits over the captured wire-frame sequence.
func replayWireBits(c *capture) float64 {
	n := len(c.ids)
	if n == 0 {
		return 0
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		sinkBits += can.WireBits(c.frame(i))
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// senderReplay resubmits one controller's captured frames closed-loop:
// the next frame is submitted when the previous one completes.
type senderReplay struct {
	c      *capture
	ctrl   *can.Controller
	frames []int32
	pos    int
	doneFn func(bool, sim.Time)
}

func (r *senderReplay) next() {
	if r.pos == len(r.frames) {
		return
	}
	f := r.c.frame(int(r.frames[r.pos]))
	r.pos++
	// Controllers of several segments share the replay bus: the sender
	// index stands in for the TxNode so identifiers stay unique.
	f.ID = can.MakeID(f.ID.Prio(), r.ctrl.Node(), f.ID.Etag())
	r.ctrl.Submit(f, can.SubmitOpts{Done: r.doneFn})
}

func (r *senderReplay) done(bool, sim.Time) { r.next() }

// replayBus pushes the captured frames through a bare can.Bus with no
// middleware attached. It returns host ns and mallocs per frame and the
// kernel steps per frame the replay itself took.
func replayBus(c *capture) (nsPerFrame, allocsPerFrame, stepsPerFrame float64) {
	n := len(c.ids)
	if n == 0 {
		return 0, 0, 0
	}
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	bySender := map[uint8]*senderReplay{}
	var order []*senderReplay
	for i, s := range c.senders {
		r := bySender[s]
		if r == nil {
			r = &senderReplay{c: c, ctrl: bus.Attach(can.TxNode(s))}
			r.doneFn = r.done
			bySender[s] = r
			order = append(order, r)
		}
		r.frames = append(r.frames, int32(i))
	}
	runtime.GC()
	m0 := mallocs()
	t := time.Now()
	for _, r := range order {
		r.next()
	}
	k.Run(sim.MaxTime)
	ns := time.Since(t).Nanoseconds()
	m1 := mallocs()
	return float64(ns) / float64(n), float64(m1-m0) / float64(n), float64(k.Steps()) / float64(n)
}

var sinkPrio int

// replayEDF runs the deadline-to-priority mapping over the captured
// (now, deadline) pairs.
func replayEDF(c *capture) float64 {
	n := len(c.edfNow)
	if n == 0 {
		return 0
	}
	band := core.DefaultBands().SRT
	const rounds = 8
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			sinkPrio += int(band.PrioFor(c.edfNow[i], c.edfDeadline[i]))
			sinkPrio += int(band.NextChange(c.edfNow[i], c.edfDeadline[i]))
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(rounds*n)
}

// replayFrag fragments and reassembles messages of the workload's bulk
// size, returning host ns per KiB for each direction.
func replayFrag(size int) (fragNsPerKiB, reasmNsPerKiB float64) {
	if size == 0 {
		return 0, 0
	}
	msg := make([]byte, size)
	rng := sim.NewRNG(1)
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	rounds := 1 + (4<<20)/size
	kib := float64(rounds) * float64(size) / 1024
	var chain [][]byte
	t := time.Now()
	for i := 0; i < rounds; i++ {
		chain, _ = frag.Fragment(msg)
	}
	fragNsPerKiB = float64(time.Since(t).Nanoseconds()) / kib
	var r frag.Reassembler
	t = time.Now()
	for i := 0; i < rounds; i++ {
		for _, fr := range chain {
			r.Push(fr, 0)
		}
	}
	return fragNsPerKiB, float64(time.Since(t).Nanoseconds()) / kib
}

// replayCausal folds the tracer's records through a fresh analyzer.
func replayCausal(recs []obs.Record) (nsPerRecord float64, chains int) {
	if len(recs) == 0 {
		return 0, 0
	}
	t := time.Now()
	a := causal.Analyze(recs, causal.Config{})
	return float64(time.Since(t).Nanoseconds()) / float64(len(recs)), len(a.Chains())
}

// relayStats are the loopback numbers of the relay layer.
type relayStats struct {
	nsPerFrame, allocsPerFrame, bytesPerFrame float64
	dropped                                   uint64
}

// replayRelay sends the events captured on the first gateway hop through
// a loopback relay.Serve/Dial pair. This is the one measurement that
// uses sockets and goroutines other than the kernel's; its spread is
// large and it gates nothing. An environment without loopback TCP
// reports zeros.
func replayRelay(events []gateway.RemoteEvent, rec *recorder) (relayStats, error) {
	var st relayStats
	if len(events) == 0 {
		return st, nil
	}
	cfg := relay.Config{Segment: "bench-b", HeartbeatEvery: time.Second}
	srv, err := relay.Serve("127.0.0.1:0", cfg)
	if err != nil {
		return st, err
	}
	defer srv.Close()
	var got atomic.Uint64
	srv.OnFrame(func(gateway.RemoteEvent) { got.Add(1) })
	seen := map[binding.Subject]bool{}
	for _, e := range events {
		if !seen[e.Subject] {
			seen[e.Subject] = true
			if err := srv.Subscribe(e.Subject, nil, nil); err != nil {
				return st, err
			}
		}
	}
	cfg.Segment = "bench-a"
	up := relay.Dial(srv.Addr().String(), cfg)
	defer up.Close()
	for limit := time.Now().Add(5 * time.Second); !up.Connected() || srv.Peers() == 0; {
		if time.Now().After(limit) {
			return st, errRelayConnect
		}
		time.Sleep(time.Millisecond)
	}
	// The handshake replays subscriptions; let it settle before timing.
	time.Sleep(20 * time.Millisecond)

	// A window below the SRT egress cap keeps the replay loss-free.
	const window = 128
	m0 := mallocs()
	t := time.Now()
	var sent uint64
	limit := t.Add(10 * time.Second)
	for _, e := range events {
		for sent-got.Load() >= window {
			if time.Now().After(limit) {
				return st, errRelayStall
			}
			runtime.Gosched()
		}
		id := rec.begin("relay.send")
		err := up.Send(e, time.Time{})
		rec.end(id)
		if err == nil {
			sent++
		}
	}
	for got.Load()+up.Counters().Dropped() < sent {
		if time.Now().After(limit) {
			return st, errRelayStall
		}
		runtime.Gosched()
	}
	ns := time.Since(t).Nanoseconds()
	m1 := mallocs()
	n := float64(len(events))
	st.nsPerFrame = float64(ns) / n
	st.allocsPerFrame = float64(m1-m0) / n
	st.bytesPerFrame = float64(up.Counters().BytesOut()) / n
	st.dropped = up.Counters().Dropped() + uint64(len(events)) - sent
	return st, nil
}

var (
	errRelayConnect = errors.New("relay loopback did not connect")
	errRelayStall   = errors.New("relay loopback stalled")
)
