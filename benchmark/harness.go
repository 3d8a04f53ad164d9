package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"time"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/obs/perf"
	"canec/internal/prob"
	"canec/internal/sim"
)

// hrtLead is how long before its slot's latest-ready instant (publisher
// local time) an HRT event is published: comfortably more than the
// clock precision, far less than a round.
const hrtLead = 200 * sim.Microsecond

// traceCap bounds the tracer of the observed rungs.
const traceCap = 1 << 16

// outDir receives span files and, should an SLO ever breach, the
// flight recorder's post-mortems.
var outDir = "benchmark/out"

func calendarConfig(omission int) calendar.Config {
	cfg := calendar.DefaultConfig()
	cfg.OmissionDegree = omission
	return cfg
}

// boundedErrors corrupts a transmission attempt with probability rate, as
// can.RandomErrors does, but no more than max attempts of one frame. The
// omission degree is the fault hypothesis the calendar's slots are
// dimensioned for; independent errors break it every so often (at 2 % and
// degree 2, one missed slot in about every 150th seed), and a missed slot
// is a failed op. Bounded, no seed makes an op fail.
type boundedErrors struct {
	rate float64
	max  int
}

// Judge implements can.Injector; attempt counts from 1.
func (b boundedErrors) Judge(_ can.Frame, _ int, attempt int, _ sim.Time, rng *sim.RNG) can.Fault {
	if attempt <= b.max && rng.Bool(b.rate) {
		return can.Fault{Kind: can.FaultError}
	}
	return can.Fault{}
}

// publisher is the face the three channel classes share; the
// allocation test substitutes a stub.
type publisher interface {
	Publish(core.Event) error
}

// instance is one freshly built system under test together with the
// generators that drive it and the checker that watches its outputs.
type instance struct {
	p       *plan
	k       *sim.Kernel
	systems []*core.System
	streams []*stream
	bridges []*gateway.RemoteBridge
	chk     checker
	// t0 is the kernel time the timed region starts at (set-up has
	// simulated up to it); horizon is where System.Run stops.
	t0, horizon sim.Time

	rec      *recorder // spans; nil unless traced
	cap      *capture  // bus/edf/relay capture; nil unless traced
	clockTap *stageClock
	causal   *causal.Analyzer
	packNs   int64
	admitNs  []int64 // wall time of each announce that ran admission
	// Bus frames and kernel steps spent in set-up, taken out of the
	// timed region's counts.
	frames0, steps0 uint64
}

// build performs one complete set-up: calendar packing, NewSystem,
// announce/subscribe (with admission analysis), gateway and
// observability wiring, generator arming, and simulation up to the
// start of the timed region (clock-sync convergence). A non-nil
// recorder makes it the traced repetition's instance.
func build(p *plan, rec *recorder) (*instance, error) {
	in := &instance{p: p, k: sim.NewKernel(p.seed)}
	if rec != nil {
		in.rec = rec
		in.cap = newCapture()
		in.clockTap = &stageClock{}
	}
	for si := range p.segs {
		if err := in.addSegment(si); err != nil {
			return nil, err
		}
	}
	in.t0 = sim.Millisecond
	in.horizon = in.t0 + sim.Time(p.traffic)
	for si, sys := range in.systems {
		if round := p.segs[si].round; round > 0 {
			in.t0 = sys.Cfg.Epoch - round
			in.horizon = sys.Cfg.Epoch + sim.Time(p.hrtRounds(round))*round
		}
	}
	in.chk.init(p)
	for i := range p.streams {
		if err := in.addStream(i); err != nil {
			return nil, err
		}
	}
	for _, h := range p.hops {
		if err := in.addHop(h); err != nil {
			return nil, err
		}
	}
	if p.obsLevel >= obsProfiler {
		prof := &perf.Profiler{}
		prof.AttachKernel(in.k)
		bus := in.systems[0].Bus
		prof.SetBusySource(func() sim.Duration { return bus.Stats().BusyTime })
	}
	if in.clockTap != nil {
		in.clockTap.next = in.k.Probe()
		in.k.SetProbe(in.clockTap)
	}
	in.k.Run(in.t0)
	for _, sys := range in.systems {
		in.frames0 += sys.Bus.Stats().FramesOK
	}
	in.steps0 = in.k.Steps()
	for _, s := range in.streams {
		s.arm()
	}
	return in, nil
}

func (in *instance) addSegment(si int) error {
	sp := in.p.segs[si]
	cfg := core.SystemConfig{Nodes: sp.nodes, Kernel: in.k}
	if sp.round > 0 {
		var slots []calendar.Slot
		for i, s := range in.p.streams {
			if s.class == core.HRT && s.seg == si {
				slots = append(slots, calendar.Slot{Subject: uint64(subjectOf(i)),
					Publisher: can.TxNode(s.node), Payload: s.size + 1, Periodic: s.periodic})
			}
		}
		t := time.Now()
		cal, err := calendar.PackSequential(calendarConfig(sp.omission), sp.round, slots...)
		in.packNs += time.Since(t).Nanoseconds()
		if err != nil {
			return fmt.Errorf("segment %s: %w", sp.name, err)
		}
		if cal.Round != sp.round {
			return fmt.Errorf("segment %s: %d slots need a %v round, want %v", sp.name, len(slots), cal.Round, sp.round)
		}
		cfg.Calendar = cal
	}
	if sp.sync {
		cfg.Sync = clock.DefaultSyncConfig()
		cfg.MaxDriftPPM = sp.driftPPM
		cfg.MaxInitialOffset = sp.offset
	}
	if sp.errRate > 0 {
		cfg.Injector = boundedErrors{rate: sp.errRate, max: sp.omission}
	}
	if sp.admission {
		// The SRT deadlines are dimensioned so that the all-ahead worst
		// case of the analysis admits every stream. NRT stays uncontrolled.
		cfg.Admission = &prob.AdmissionConfig{
			Targets: prob.ClassTargets{SRT: 0.05},
			// Analysing 16 streams against each other is quadratic in
			// convolutions; truncating the error count and the response
			// range keeps one set-up in the tens of milliseconds.
			Analyzer: prob.Analyzer{Model: prob.ErrorModel{ErrorRate: sp.errRate},
				MaxErrors: 2, Horizon: 6 * sim.Millisecond},
		}
	}
	if lvl := in.p.obsLevel; lvl >= obsMetrics {
		oc := &obs.Config{Metrics: true, TraceIDBase: uint64(si+1) << 40}
		if lvl >= obsTrace {
			oc.Trace, oc.TraceCap = true, traceCap
		}
		if lvl >= obsFlightSLO {
			oc.FlightRecords, oc.FlightDir = 256, outDir
			slo := obs.DefaultSLOConfig()
			slo.SRTMissBudget = 0.5 // never breach: a dump would write files mid-run
			oc.SLO = &slo
		}
		cfg.Observe = oc
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return fmt.Errorf("segment %s: %w", sp.name, err)
	}
	if in.p.obsLevel >= obsCausal && in.causal == nil {
		in.causal = causal.New(causal.Config{Registry: sys.Obs.Registry()})
		sys.Obs.AttachCausal(in.causal)
	}
	if in.cap != nil {
		in.cap.tapBus(si, sys, in.p.streams)
	}
	in.systems = append(in.systems, sys)
	return nil
}

// subjectOf gives stream i its subject, identical on every segment.
func subjectOf(i int) binding.Subject { return binding.Subject(0x1000 + i) }

// bulkHeader is the in-band header of a bulk NRT message: stream id
// (2), sequence (4), publish instant (8), CRC-32 of everything else (4).
const bulkHeader = 18

// stream is the run-time side of a streamPlan: a self-rearming
// generator on the publisher station and one checker per subscriber.
type stream struct {
	id   int
	sp   *streamPlan
	in   *instance
	k    *sim.Kernel
	mw   *core.Middleware
	pub  publisher
	subj binding.Subject
	bulk bool // payload carries bulkHeader; else sequence-byte scheme
	// next is the next event's sequence number.
	next   int
	fireFn func()
	bufs   [4][]byte // small payloads rotate: HRT keeps queued events by reference
	msg    []byte    // bulk message scratch (Publish fragments it immediately)
	// traceBase, when non-zero, presets trace IDs so the gateways' transit
	// tables work without an observer.
	traceBase uint64
	spanName  string

	// HRT geometry (publisher-local time).
	clk        *clock.Clock
	firstReady sim.Time // local instant to publish for round 0
	round      sim.Duration
	rounds     int // periodic: rounds to feed
	// stopAt ends a backlogged source.
	stopAt sim.Time

	published, pubErrors      int
	expired, shed, txFailures int
	subs                      []*subState
}

func (in *instance) addStream(i int) error {
	sp := &in.p.streams[i]
	sys := in.systems[sp.seg]
	s := &stream{id: i, sp: sp, in: in, k: in.k, mw: sys.Node(sp.node).MW,
		subj: subjectOf(i), bulk: sp.size > can.MaxPayload}
	s.fireFn = s.fire
	if len(in.p.hops) > 0 {
		s.traceBase = uint64(i+1) << 32
	}
	attrs := core.ChannelAttrs{Payload: sp.size, Periodic: sp.periodic, Prio: sp.prio,
		Fragmentation: sp.frag, Period: sp.period, RelDeadline: sp.relDeadline}
	if sp.frag {
		attrs.Payload = 0
	}
	if s.bulk {
		s.msg = make([]byte, sp.size)
		body := sim.NewRNG(in.p.seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
		for j := bulkHeader; j < len(s.msg); j++ {
			s.msg[j] = byte(body.Uint64())
		}
		binary.LittleEndian.PutUint16(s.msg, uint16(i))
	} else {
		for j := range s.bufs {
			s.bufs[j] = make([]byte, sp.size)
		}
	}

	s.spanName = "core." + strings.ToLower(sp.class.String()) + ".publish"
	switch sp.class {
	case core.HRT:
		cal := sys.Cfg.Calendar
		for _, slot := range cal.SlotsForSubject(uint64(s.subj)) {
			s.firstReady = sys.Cfg.Epoch + slot.Ready - hrtLead
		}
		s.clk, s.round = sys.Node(sp.node).Clock, cal.Round
		s.rounds = in.p.hrtFedRounds(cal.Round)
	case core.NRT:
		s.stopAt = in.t0 + sim.Time(in.p.traffic-in.p.drain)
	}

	t := time.Now()
	ch, err := channelOn(s.mw, sp.class, s.subj)
	if err == nil {
		err = ch.Announce(attrs, s.onPubException)
	}
	if sys.Admission != nil && sp.class != core.HRT {
		in.admitNs = append(in.admitNs, time.Since(t).Nanoseconds())
	}
	if err != nil {
		// A refused announcement fails every op the stream would have made.
		in.chk.fail(failAdmission, len(sp.releases)+1)
		return nil
	}
	s.pub = ch

	subSys := in.systems[sp.subSeg]
	for idx, node := range sp.subs {
		ss := &subState{s: s, idx: idx, last: -1}
		if sp.class == core.HRT {
			cal := subSys.Cfg.Calendar
			ss.master = subSys.Clocks[subSys.Cfg.Master]
			for _, slot := range cal.SlotsForSubject(uint64(s.subj)) {
				ss.deadline = subSys.Cfg.Epoch + slot.Deadline(cal.Cfg)
			}
			ss.slack = cal.Cfg.Precision + sim.Microsecond
		}
		ch, err := channelOn(subSys.Node(node).MW, sp.class, s.subj)
		if err == nil {
			err = ch.Subscribe(attrs, core.SubscribeAttrs{}, ss.onEvent, in.onSubException)
		}
		if err != nil {
			return fmt.Errorf("stream %d subscribe on node %d: %w", i, node, err)
		}
		s.subs = append(s.subs, ss)
	}
	in.streams = append(in.streams, s)
	return nil
}

// channel is what the three event channel classes have in common.
type channel interface {
	publisher
	Announce(core.ChannelAttrs, core.ExceptionHandler) error
	Subscribe(core.ChannelAttrs, core.SubscribeAttrs, core.NotificationHandler, core.ExceptionHandler) error
}

// channelOn returns the station's channel of the given class for a
// subject. The channel is valid only when the error is nil.
func channelOn(mw *core.Middleware, class core.Class, subj binding.Subject) (channel, error) {
	switch class {
	case core.HRT:
		return mw.HRTEC(subj)
	case core.SRT:
		return mw.SRTEC(subj)
	}
	return mw.NRTEC(subj)
}

// arm schedules the stream's first publication.
func (s *stream) arm() {
	sp := s.sp
	switch {
	case sp.class == core.HRT:
		if r, ok := s.hrtRound(0); ok {
			s.k.At(s.clk.WhenLocal(s.k.Now(), s.firstReady+sim.Time(r)*s.round), s.fireFn)
		}
	case sp.backlog > 0:
		for i := 0; i < sp.backlog; i++ {
			s.k.At(s.in.t0, s.fireFn)
		}
	case len(sp.releases) > 0:
		s.k.At(s.in.t0+sp.releases[0], s.fireFn)
	}
}

// hrtRound returns the calendar round the i-th HRT event is fed in.
func (s *stream) hrtRound(i int) (int, bool) {
	if s.sp.periodic {
		return i, i < s.rounds
	}
	if i < len(s.sp.rounds) {
		return int(s.sp.rounds[i]), true
	}
	return 0, false
}

// fire publishes one event and re-arms the generator: one pending
// kernel event per stream, however long the run.
func (s *stream) fire() {
	s.publish()
	sp := s.sp
	switch {
	case sp.class == core.HRT:
		if r, ok := s.hrtRound(s.next); ok {
			s.k.At(s.clk.WhenLocal(s.k.Now(), s.firstReady+sim.Time(r)*s.round), s.fireFn)
		}
	case sp.backlog > 0:
		// Re-armed by the delivery of an earlier message (onEvent).
	case s.next < len(sp.releases):
		s.k.At(s.in.t0+sp.releases[s.next], s.fireFn)
	}
}

// fillSmall writes the payload of event seq of a small-payload stream:
// the sequence's low byte, then bytes derived from (seed, stream, seq),
// so a subscriber can recompute and compare every byte.
func fillSmall(buf []byte, seed uint64, stream, seq int) {
	x := (seed ^ uint64(stream)<<32 ^ uint64(seq)) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	for j := range buf {
		buf[j] = byte(x >> (8 * uint(j&7)))
	}
	buf[0] = byte(seq)
}

var crcTable = crc32.IEEETable

func bulkChecksum(msg []byte) uint32 {
	c := crc32.Update(0, crcTable, msg[:bulkHeader-4])
	return crc32.Update(c, crcTable, msg[bulkHeader:])
}

func (s *stream) publish() {
	seq := s.next
	s.next++
	ev := core.Event{Subject: s.subj}
	if s.bulk {
		binary.LittleEndian.PutUint32(s.msg[2:], uint32(seq))
		binary.LittleEndian.PutUint64(s.msg[6:], uint64(s.k.Now()))
		binary.LittleEndian.PutUint32(s.msg[bulkHeader-4:], bulkChecksum(s.msg))
		ev.Payload = s.msg
	} else {
		buf := s.bufs[seq&3]
		fillSmall(buf, s.in.p.seed, s.id, seq)
		ev.Payload = buf
	}
	if s.sp.class == core.SRT {
		now := s.mw.LocalTime()
		ev.Attrs.Deadline = now + s.sp.relDeadline
		ev.Attrs.Expiration = now + s.sp.relExpiration
		if c := s.in.cap; c != nil {
			c.edfNow = append(c.edfNow, now)
			c.edfDeadline = append(c.edfDeadline, ev.Attrs.Deadline)
		}
	}
	if s.traceBase != 0 {
		ev = core.WithTraceID(ev, s.traceBase+uint64(seq)+1)
	}
	var err error
	if rec := s.in.rec; rec != nil {
		s.in.cap.sampleHeap(s.k.Pending())
		id := rec.begin(s.spanName)
		err = s.pub.Publish(ev)
		rec.end(id)
	} else {
		err = s.pub.Publish(ev)
	}
	if err != nil {
		s.pubErrors++
		return
	}
	s.published++
}

func (s *stream) onPubException(e core.Exception) {
	// ExcDeadlineMissed is not counted: transmitted late, still delivered.
	switch e.Kind {
	case core.ExcValidityExpired:
		s.expired++
	case core.ExcLoadShed, core.ExcAdmissionShed:
		s.shed++
	case core.ExcTxFailure:
		s.txFailures++
	}
}

// onSubException counts subscriber-side exceptions: a missed periodic
// HRT slot or a failed reassembly is never a modelled outcome here.
func (in *instance) onSubException(e core.Exception) {
	switch e.Kind {
	case core.ExcSlotMissed:
		in.chk.fail(failHRTDeadline, 1)
	case core.ExcFragError:
		in.chk.fail(failIntegrity, 1)
	}
}

// subState checks one subscriber's view of one stream.
type subState struct {
	s         *stream
	idx       int
	last      int // last sequence delivered, -1 before the first
	delivered int
	lastAt    sim.Time
	// HRT: the segment's time master, the slot's delivery deadline in
	// round 0 (synchronized time) and the tolerated deviation.
	master   *clock.Clock
	deadline sim.Time
	slack    sim.Duration
}

// onEvent is the notification handler: integrity, order and duplicate
// checks, latency sampling, the HRT deadline check and the digest.
func (ss *subState) onEvent(ev core.Event, di core.DeliveryInfo) {
	s, c := ss.s, &ss.s.in.chk
	var seq int
	var pubAt sim.Time
	if s.bulk {
		if len(ev.Payload) != s.sp.size ||
			int(binary.LittleEndian.Uint16(ev.Payload)) != s.id ||
			binary.LittleEndian.Uint32(ev.Payload[bulkHeader-4:]) != bulkChecksum(ev.Payload) {
			c.fail(failIntegrity, 1)
			return
		}
		seq = int(binary.LittleEndian.Uint32(ev.Payload[2:]))
		pubAt = sim.Time(binary.LittleEndian.Uint64(ev.Payload[6:]))
	} else {
		if len(ev.Payload) != s.sp.size {
			c.fail(failIntegrity, 1)
			return
		}
		// The payload carries the sequence's low byte; events of one
		// stream arrive in order, so the gap to the expected one is small.
		want := ss.last + 1
		seq = want + int(ev.Payload[0]-byte(want))
		var ref [can.MaxPayload]byte
		fillSmall(ref[:s.sp.size], s.in.p.seed, s.id, seq)
		if seq >= s.next || !bytes.Equal(ref[:s.sp.size], ev.Payload) {
			c.fail(failIntegrity, 1)
			return
		}
		if s.sp.class != core.HRT {
			pubAt = s.in.t0 + s.sp.releases[seq]
		}
	}
	if seq <= ss.last {
		c.fail(failOrder, 1)
		return
	}
	ss.last = seq
	ss.delivered++
	c.mix(uint64(s.id)<<40 | uint64(ss.idx)<<32 | uint64(uint32(seq)))
	c.mix(uint64(di.DeliveredAt))

	switch s.sp.class {
	case core.HRT:
		ss.checkHRT(di)
	case core.SRT:
		if s.sp.forwarded() {
			c.hopLat = append(c.hopLat, int64(di.DeliveredAt-pubAt))
		} else {
			c.srtLat = append(c.srtLat, int64(di.DeliveredAt-pubAt))
		}
	case core.NRT:
		if ss.idx == 0 {
			c.nrtBytes += uint64(s.sp.size)
			if s.sp.backlog > 0 && s.k.Now() < s.stopAt {
				s.k.At(s.k.Now(), s.fireFn)
			}
		}
	}
	ss.lastAt = di.DeliveredAt
}

// checkHRT verifies that the notification happened at a slot delivery
// deadline of the calendar, within the clock precision, read on the
// segment's time master; and tracks the period jitter of periodic slots.
func (ss *subState) checkHRT(di core.DeliveryInfo) {
	s, c := ss.s, &ss.s.in.chk
	off := (ss.master.Read(di.DeliveredAt) - ss.deadline) % s.round
	if off < 0 {
		off += s.round
	}
	if off > s.round/2 {
		off = s.round - off
	}
	if di.Late || off > ss.slack {
		c.fail(failHRTDeadline, 1)
	}
	if s.sp.periodic && ss.delivered > 1 {
		j := di.DeliveredAt - ss.lastAt - s.round
		if j < 0 {
			j = -j
		}
		if j > c.hrtJitterMax {
			c.hrtJitterMax = j
		}
	}
}

// hopEnd is one end of the harness's gateway.Remote: it delivers to the
// peer's receiver in kernel context a fixed virtual delay after Send.
// The delay is constant, so a FIFO and one pre-bound callback suffice —
// no per-event closure.
type hopEnd struct {
	in        *instance
	delay     sim.Duration
	peer      *hopEnd
	recv      func(gateway.RemoteEvent)
	q         []gateway.RemoteEvent
	head      int
	deliverFn func()
	// capture marks the a->b direction, whose events the relay layer
	// replays.
	capture bool
}

func (h *hopEnd) SetReceiver(fn func(gateway.RemoteEvent)) { h.recv = fn }

func (h *hopEnd) Send(re gateway.RemoteEvent) error {
	if h.capture && h.in.cap != nil {
		h.in.cap.addRelay(re)
	}
	h.q = append(h.q, re)
	h.in.k.After(h.delay, h.deliverFn)
	return nil
}

func (h *hopEnd) deliver() {
	re := h.q[h.head]
	h.q[h.head] = gateway.RemoteEvent{}
	if h.head++; h.head == len(h.q) {
		h.q, h.head = h.q[:0], 0
	}
	if rec := h.in.rec; rec != nil {
		id := rec.begin("gateway.receive")
		h.peer.recv(re)
		rec.end(id)
		return
	}
	h.peer.recv(re)
}

// addHop joins two segments with a RemoteBridge pair and federates every
// forwarded stream across it, in the a -> c direction.
func (in *instance) addHop(hp hopPlan) error {
	a := &hopEnd{in: in, delay: hp.delay, q: make([]gateway.RemoteEvent, 0, 256), capture: len(in.bridges) == 0}
	b := &hopEnd{in: in, delay: hp.delay, q: make([]gateway.RemoteEvent, 0, 256)}
	a.peer, b.peer = b, a
	a.deliverFn, b.deliverFn = a.deliver, b.deliver
	ba, err := gateway.NewRemote(in.systems[hp.segA].Node(hp.nodeA).MW, a, in.p.segs[hp.segA].name)
	if err != nil {
		return err
	}
	bb, err := gateway.NewRemote(in.systems[hp.segB].Node(hp.nodeB).MW, b, in.p.segs[hp.segB].name)
	if err != nil {
		return err
	}
	if n := len(in.bridges); n > 0 {
		// The previous hop's far end sits on this hop's near segment.
		in.bridges[n-1].LinkSiblings(ba)
	}
	in.bridges = append(in.bridges, ba, bb)
	for i, sp := range in.p.streams {
		if !sp.forwarded() {
			continue
		}
		attrs := core.ChannelAttrs{Prio: sp.prio, Fragmentation: sp.frag}
		if err := ba.Forward(sp.class, subjectOf(i), attrs); err != nil {
			return err
		}
		if err := bb.Announce(sp.class, subjectOf(i), attrs); err != nil {
			return err
		}
	}
	return nil
}

// Failure kinds of the output checker.
const (
	failIntegrity   = iota // payload or reassembly checksum mismatch
	failOrder              // duplicate or out-of-order delivery
	failHRTDeadline        // HRT notification off its slot deadline, or a missed slot
	failUnaccounted        // neither delivered nor covered by a typed exception
	failAdmission          // announcement refused
	failPublish            // Publish returned an error
	failBand               // wire frame outside its class's priority band
	failDigest             // repetitions disagree on vt_digest
	numFailKinds
)

var failNames = [numFailKinds]string{"integrity", "order", "hrt_deadline", "unaccounted",
	"admission", "publish_error", "band", "digest"}

// checker accumulates the verdicts and the virtual-time results of one
// repetition. Its sample buffers are sized in set-up.
type checker struct {
	digest       uint64
	fails        [numFailKinds]int
	srtLat       []int64 // publish -> deliver, ns, local SRT streams
	hopLat       []int64 // publish on a -> deliver on c, ns
	hrtJitterMax sim.Duration
	nrtBytes     uint64
}

func (c *checker) init(p *plan) {
	c.digest = 14695981039346656037
	var local, hop int
	for _, s := range p.streams {
		n := len(s.releases) * len(s.subs)
		switch {
		case s.forwarded() && s.class == core.SRT:
			hop += n
		case s.class == core.SRT:
			local += n
		}
	}
	c.srtLat = make([]int64, 0, local)
	c.hopLat = make([]int64, 0, hop)
}

func (c *checker) mix(v uint64) { c.digest = (c.digest ^ v) * 1099511628211 }

func (c *checker) fail(kind, n int) { c.fails[kind] += n }

// outcome is what one repetition produced: op accounting, the virtual
// results and the digest that must repeat exactly.
type outcome struct {
	ops, failed    int
	fails          [numFailKinds]int
	deliveredRatio float64
	digest         uint64
	frames         uint64
	simSeconds     float64
	counters       core.Counters
	bus            can.Stats
	steps          uint64
	heapHigh       int
}

// finish closes the books at the horizon: every published event must be
// delivered to every subscriber or covered by the typed exception of
// its class.
func (in *instance) finish() outcome {
	c := &in.chk
	var o outcome
	var want, got int
	// Forwarded streams are accounted in aggregate: a copy can expire on
	// any segment it crosses, and the republishing gateway stations carry
	// nothing else.
	var fwdOwed int
	for _, s := range in.streams {
		o.ops += s.published + s.pubErrors
		c.fail(failPublish, s.pubErrors)
		resolved := s.expired + s.shed + s.txFailures
		for _, ss := range s.subs {
			owed := s.published - resolved - ss.delivered
			if s.sp.class == core.HRT && owed == 1 {
				// Published for a slot that lies beyond the horizon.
				owed = 0
				want--
			}
			want += s.published
			got += ss.delivered
			if s.sp.forwarded() {
				fwdOwed += owed
			} else if owed != 0 {
				c.fail(failUnaccounted, abs(owed))
			}
		}
	}
	for _, b := range in.bridges {
		fwdOwed -= int(b.Dropped())
	}
	for _, h := range in.p.hops {
		fwdOwed -= int(in.systems[h.segB].Node(h.nodeB).MW.Counters().Expired)
	}
	if fwdOwed != 0 {
		c.fail(failUnaccounted, abs(fwdOwed))
	}
	if in.cap != nil {
		c.fail(failBand, in.cap.bandViolations)
	}
	if want > 0 {
		o.deliveredRatio = float64(got) / float64(want)
	}
	for _, sys := range in.systems {
		sumFields(&o.bus, sys.Bus.Stats())
		sumFields(&o.counters, sys.TotalCounters())
	}
	for _, b := range []byte(fmt.Sprintf("%+v%+v", o.bus, o.counters)) {
		c.mix(uint64(b))
	}
	o.fails = c.fails
	for _, n := range c.fails {
		o.failed += n
	}
	if o.failed > o.ops {
		o.failed = o.ops
	}
	o.digest = c.digest
	o.simSeconds = float64(in.horizon-in.t0) / float64(sim.Second)
	kp := in.k.Profile()
	o.frames = o.bus.FramesOK - in.frames0
	o.steps, o.heapHigh = kp.Steps-in.steps0, kp.HeapHighWater
	return o
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// sumFields adds every integer field of src (a can.Stats or
// core.Counters value) into the struct dst points to, so that several
// segments report as one.
func sumFields(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		case reflect.Int64:
			f.SetInt(f.Int() + s.Field(i).Int())
		}
	}
}
