package main

import (
	"fmt"

	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
	"canec/internal/workload"
)

// A plan is a workload's generated input: the topology to build and, per
// stream, the pre-generated publish instants. It is pure data made from
// the seed before anything is timed; build (harness.go) turns it into a
// running system as often as the run needs one. The structure of a
// workload (nodes, streams, periods, deadlines, payload sizes) is fixed;
// the seed draws phases, Poisson arrivals, release jitter, sporadic-slot
// choices, payload bytes and — through the kernel seed — clock drifts,
// timestamp noise and injected bus errors.
type plan struct {
	name    string
	seed    uint64
	segs    []segPlan
	streams []streamPlan
	hops    []hopPlan
	// traffic is the virtual length of the timed region; SRT and NRT
	// streams fall silent drain before its end, so that every queued event
	// reaches its outcome and accounting at the horizon is exact. HRT
	// slots are fed up to the horizon (see hrtFedRounds).
	traffic, drain sim.Duration
	// obsLevel selects the observability rung (obsOff … obsProfiler).
	obsLevel int
	// setupBuilds is how many consecutive set-ups one setup_s sample
	// times (frozen per workload so a sample is long enough to repeat).
	setupBuilds int
}

// segPlan describes one CAN segment.
type segPlan struct {
	name      string
	nodes     int
	round     sim.Duration // 0 = no calendar
	omission  int
	sync      bool
	driftPPM  float64
	offset    sim.Duration
	errRate   float64
	admission bool
}

// streamPlan describes one event stream: one publisher, its subscribers
// and the instants it publishes at.
type streamPlan struct {
	class core.Class
	seg   int // publishing segment
	node  int
	// subSeg/subs are the subscribing segment and stations; subSeg
	// differs from seg only for streams forwarded through the gateways.
	subSeg int
	subs   []int
	// size is the event payload in bytes (NRT: message size).
	size int
	// period doubles as the rate declared for admission control.
	period, relDeadline, relExpiration sim.Duration
	prio                               can.Prio // NRT
	frag                               bool     // NRT
	// releases are the kernel instants of an open-loop SRT/NRT stream,
	// relative to the start of the timed region.
	releases []sim.Time
	// backlog > 0 makes an NRT stream a backlogged source instead: that
	// many fragment chains are kept queued until the traffic window ends.
	backlog int
	// HRT: periodic says the slot is fed every round; rounds lists the
	// rounds a sporadic slot is fed in.
	periodic bool
	rounds   []int32
}

// forwarded reports whether the stream crosses the gateways.
func (s streamPlan) forwarded() bool { return s.subSeg != s.seg }

// hopPlan is one gateway link: RemoteBridge endpoints on two segments
// joined by the harness's fixed-delay transport.
type hopPlan struct {
	segA, nodeA int
	segB, nodeB int
	delay       sim.Duration
}

// Observability rungs of the obs-tax ladder; each adds one sink.
const (
	obsOff = iota
	obsMetrics
	obsTrace
	obsCausal
	obsFlightSLO
	obsProfiler
)

// workloadDef names a workload and generates its plan. scale shrinks the
// frozen traffic window (tests use 1/100); everything else is fixed.
type workloadDef struct {
	Name string
	Why  string
	// Traffic is the frozen virtual length of the publishing window.
	Traffic sim.Duration
	gen     func(p *plan, rng *sim.RNG)
}

// The frozen sizes below were calibrated once so that one repetition
// takes about one second of host time on the reference machine; they
// are never adjusted at run time, so virtual results are exact.
var workloads = []workloadDef{
	{"mixed", "the paper's system: HRT calendar, EDF SRT streams and fragmented NRT bulk contend on one bus with errors and clock sync, so every layer does some work and none dominates",
		20 * sim.Second, genMixed},
	{"mixed-observed", "same traffic and seed as mixed with tracer, metrics, SLO, flight recorder, causal sink and profiler attached: the observed path, and with mixed the obs tax",
		20 * sim.Second, genMixedObserved},
	{"srt-overload", "32 Poisson SRT streams of 1-2 B frames at 115 % load: SRT enqueue, EDF mapping, promotion and expiry timers, deep controller queues; calendar, HRT, frag and clock idle",
		9 * sim.Second, genSRTOverload},
	{"hrt-calendar", "16 nodes, a packed 10 ms calendar at omission degree 2 with clock sync and 2 % bus errors: slot, de-jitter and sync timers dominate, most kernel events per frame",
		90 * sim.Second, genHRTCalendar},
	{"nrt-bulk", "fragmented 4 KiB NRT streams saturate the bus with full frames: wire codec, arbitration and reassembly dominate, fewest kernel events per frame, no SRT or HRT work",
		100 * sim.Second, genNRTBulk},
	{"federated", "three segments on one kernel chained by RemoteBridge pairs over a fixed-delay transport: gateway ship, transit table, budget debit and republish across two hops",
		15 * sim.Second, genFederated},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// makePlan generates the workload's inputs from the seed.
func (w workloadDef) makePlan(seed uint64, scale float64) *plan {
	p := &plan{name: w.Name, seed: seed, setupBuilds: 1}
	p.traffic = sim.Duration(float64(w.Traffic) * scale)
	w.gen(p, sim.NewRNG(seed))
	return p
}

// frameTime estimates the wire time of a frame with the given payload
// at 1 Mbit/s and typical stuffing; used only to dimension offered load.
func frameTime(payload int) sim.Duration {
	bits := can.MinFrameBits(payload) + (54+8*payload)/16
	return can.BitTime(bits, can.DefaultBitRate)
}

// minSeparation is the least distance between two releases of one SRT
// stream: more than a priority slot plus the clock precision.
const minSeparation = 250 * sim.Microsecond

// srtTemplate is one SRT stream before its period is scaled to the
// workload's target load.
type srtTemplate struct {
	weight   float64 // relative period
	payload  int
	sporadic bool
}

// srtSet describes a set of SRT streams on one segment.
type srtSet struct {
	seg  int
	pubs []int                   // publishing stations, used round-robin
	sub  func(i, node int) []int // subscribers of stream i published on node
	tmpl []srtTemplate
	// load is what the set offers (by frameTime); the template weights
	// are scaled to periods that add up to exactly that.
	load float64
	// Deadlines are dlShare of the period clamped to [dlMin, dlMax];
	// validity expires expFactor deadlines after release.
	dlShare      float64
	dlMin, dlMax sim.Duration
	expFactor    int
	// jitter is the release jitter of the periodic streams.
	jitter sim.Duration
}

// addSRT appends the set's streams with their release instants.
func (p *plan) addSRT(rng *sim.RNG, set srtSet) {
	var demand float64 // load at unit scale
	for _, t := range set.tmpl {
		demand += float64(frameTime(t.payload)) / t.weight
	}
	unit := demand / set.load
	streams := make([]workload.Stream, len(set.tmpl))
	for i, t := range set.tmpl {
		period := sim.Duration(t.weight * unit)
		dl := min(max(sim.Duration(set.dlShare*float64(period)), set.dlMin), set.dlMax)
		streams[i] = workload.Stream{
			Node: set.pubs[i%len(set.pubs)], Period: period, RelDeadline: dl,
			RelExpiration: sim.Duration(set.expFactor) * dl, Payload: t.payload,
			Sporadic: t.sporadic, Offset: sim.Duration(rng.Int63n(int64(period))),
		}
		if !t.sporadic {
			streams[i].ReleaseJitter = set.jitter
		}
	}
	perStream := make([][]sim.Time, len(streams))
	for _, j := range workload.GenJobs(rng, streams, sim.Time(p.traffic-p.drain)) {
		// Sporadic means a minimum separation. Without one, two Poisson
		// arrivals microseconds apart can straddle a clock correction, get
		// inverted deadlines and leave the station out of order — EDF doing
		// its job, but the checker demands per-stream order.
		rel := perStream[j.Stream]
		if n := len(rel); n > 0 && j.Release < rel[n-1]+minSeparation {
			j.Release = rel[n-1] + minSeparation
		}
		perStream[j.Stream] = append(rel, j.Release)
	}
	for i, s := range streams {
		p.streams = append(p.streams, streamPlan{
			class: core.SRT, seg: set.seg, node: s.Node, subSeg: set.seg, subs: set.sub(i, s.Node),
			size: s.Payload, period: s.Period, relDeadline: s.RelDeadline,
			relExpiration: s.RelExpiration, releases: perStream[i],
		})
	}
}

// periodicReleases returns instants every period from a random phase.
func periodicReleases(rng *sim.RNG, period, until sim.Duration) []sim.Time {
	var out []sim.Time
	for t := sim.Time(rng.Int63n(int64(period))); t < sim.Time(until); t += period {
		out = append(out, t)
	}
	return out
}

// addHRT appends n HRT streams, one calendar slot each: the first
// nPeriodic are fed every round, the rest in a share of rounds drawn
// from the seed.
func (p *plan) addHRT(rng *sim.RNG, seg, n, nPeriodic, subsEach int, sporadicShare float64) {
	sp := p.segs[seg]
	rounds := p.hrtFedRounds(sp.round)
	for i := 0; i < n; i++ {
		node := i % sp.nodes
		s := streamPlan{class: core.HRT, seg: seg, node: node, subSeg: seg,
			size: can.MaxPayload - 1, period: sp.round, periodic: i < nPeriodic}
		for j := 1; j <= subsEach; j++ {
			s.subs = append(s.subs, (node+j*3)%sp.nodes)
		}
		if !s.periodic {
			for r := 0; r < rounds; r++ {
				if rng.Bool(sporadicShare) {
					s.rounds = append(s.rounds, int32(r))
				}
			}
		}
		p.streams = append(p.streams, s)
	}
}

// hrtRounds is how many whole calendar rounds fit in the timed region,
// which starts one round before round 0.
func (p *plan) hrtRounds(round sim.Duration) int { return int(p.traffic/round) - 1 }

// hrtFedRounds is how many rounds the HRT generators are prepared to
// feed: a few more than fit, because rounds are counted on the time
// master's drifting clock and a slot left unfed before the kernel's
// horizon would be reported as missed. Generator events beyond the
// horizon never run.
func (p *plan) hrtFedRounds(round sim.Duration) int { return p.hrtRounds(round) + 3 }

// hrtSlotsThatFit returns how many slots of the given payload
// PackSequential admits in one round.
func hrtSlotsThatFit(round sim.Duration, omission, payload int) int {
	cfg := calendarConfig(omission)
	return int(round / (cfg.SlotSpan(payload) + cfg.GapMin))
}

func genMixed(p *plan, rng *sim.RNG) {
	p.drain = 200 * sim.Millisecond
	p.setupBuilds = 2
	p.segs = []segPlan{{name: "a", nodes: 8, round: 10 * sim.Millisecond, omission: 1,
		sync: true, driftPPM: 100, offset: 100 * sim.Microsecond, errRate: 1e-3, admission: true}}
	p.addHRT(rng, 0, 6, 4, 2, 0.5)
	tmpl := make([]srtTemplate, 16)
	weights := []float64{2, 2.5, 3, 4, 5, 6, 8, 10, 2, 3, 4, 6, 8, 12, 16, 20}
	for i := range tmpl {
		tmpl[i] = srtTemplate{weight: weights[i], payload: 1 + i%8, sporadic: i%3 == 2}
	}
	p.addSRT(rng, srtSet{pubs: []int{0, 1, 2, 3, 4, 5, 6, 7},
		sub:  func(i, node int) []int { return []int{(node + 3) % 8} },
		tmpl: tmpl, load: 0.45, dlShare: 1.5, dlMin: 4 * sim.Millisecond, dlMax: 20 * sim.Millisecond,
		expFactor: 3, jitter: 100 * sim.Microsecond})
	// One backlogged bulk channel soaks whatever the RT classes leave.
	p.streams = append(p.streams, streamPlan{class: core.NRT, seg: 0, node: 7, subSeg: 0,
		subs: []int{3}, size: 1024, period: 50 * sim.Millisecond, prio: 253, frag: true, backlog: 2})
}

func genMixedObserved(p *plan, rng *sim.RNG) {
	genMixed(p, rng)
	p.obsLevel = obsProfiler
}

func genSRTOverload(p *plan, rng *sim.RNG) {
	p.drain = 20 * sim.Millisecond
	p.setupBuilds = 600
	p.segs = []segPlan{{name: "a", nodes: 8}}
	tmpl := make([]srtTemplate, 32)
	weights := []float64{1, 1.5, 2, 2.5, 3, 4, 5}
	for i := range tmpl {
		tmpl[i] = srtTemplate{weight: weights[i%len(weights)], payload: 1 + i%2, sporadic: true}
	}
	// Periods land near 2-10 ms; deadlines of 1-5 ms are half of them, so
	// laxity crosses several 160 µs priority slots while an event queues.
	p.addSRT(rng, srtSet{pubs: []int{0, 1, 2, 3, 4, 5, 6, 7},
		sub:  func(i, node int) []int { return []int{(node + 1 + i/8) % 8} },
		tmpl: tmpl, load: 1.15, dlShare: 0.5, dlMin: sim.Millisecond, dlMax: 5 * sim.Millisecond,
		expFactor: 2})
}

func genHRTCalendar(p *plan, rng *sim.RNG) {
	p.setupBuilds = 600
	round := 10 * sim.Millisecond
	p.segs = []segPlan{{name: "a", nodes: 16, round: round, omission: 2,
		sync: true, driftPPM: 100, offset: 100 * sim.Microsecond, errRate: 0.02}}
	n := hrtSlotsThatFit(round, 2, can.MaxPayload)
	p.addHRT(rng, 0, n, n*3/4, 7, 0.3)
}

func genNRTBulk(p *plan, rng *sim.RNG) {
	p.drain = 400 * sim.Millisecond
	p.setupBuilds = 4000
	p.segs = []segPlan{{name: "a", nodes: 4}}
	bulk := func(node, sub int, prio can.Prio, period sim.Duration) streamPlan {
		s := streamPlan{class: core.NRT, seg: 0, node: node, subSeg: 0, subs: []int{sub},
			size: 4096, period: period, prio: prio, frag: true}
		if period > 0 {
			s.releases = periodicReleases(rng, period, p.traffic-p.drain)
		} else {
			s.backlog = 2
			s.period = 100 * sim.Millisecond
		}
		return s
	}
	// Fixed NRT priorities are strict: the two higher ones are paced so
	// that the lowest, backlogged, soaks the rest and the bus stays full.
	p.streams = append(p.streams,
		bulk(0, 3, 252, 200*sim.Millisecond),
		bulk(1, 3, 253, 250*sim.Millisecond),
		bulk(2, 0, 254, 0),
		streamPlan{class: core.NRT, seg: 0, node: 3, subSeg: 0, subs: []int{1}, size: 7,
			period: 5 * sim.Millisecond, prio: 251,
			releases: periodicReleases(rng, 5*sim.Millisecond, p.traffic-p.drain)})
}

func genFederated(p *plan, rng *sim.RNG) {
	p.drain = 100 * sim.Millisecond
	p.setupBuilds = 800
	for _, name := range []string{"a", "b", "c"} {
		p.segs = append(p.segs, segPlan{name: name, nodes: 4})
	}
	const hopDelay = 200 * sim.Microsecond
	// a.3 <-> b.0 and b.3 <-> c.0 are the gateway stations; they carry
	// forwarded traffic only.
	p.hops = []hopPlan{{0, 3, 1, 0, hopDelay}, {1, 3, 2, 0, hopDelay}}
	local := [][]int{{0, 1, 2}, {1, 2}, {1, 2, 3}}

	// Forwarded a -> c: 8 SRT streams and one small fragmented NRT stream.
	fwd := make([]srtTemplate, 8)
	for i := range fwd {
		fwd[i] = srtTemplate{weight: []float64{5, 8, 10, 20}[i%4], payload: 4 + i%5, sporadic: i%2 == 1}
	}
	p.addSRT(rng, srtSet{pubs: local[0],
		sub:  func(i, _ int) []int { return []int{local[2][i%3]} },
		tmpl: fwd, load: 0.12, dlShare: 1, dlMin: 10 * sim.Millisecond, dlMax: 10 * sim.Millisecond,
		expFactor: 3, jitter: 100 * sim.Microsecond})
	for i := range p.streams {
		p.streams[i].subSeg = 2
	}
	p.streams = append(p.streams, streamPlan{class: core.NRT, seg: 0, node: 0, subSeg: 2,
		subs: []int{1}, size: 64, period: 50 * sim.Millisecond, prio: 253, frag: true,
		releases: periodicReleases(rng, 50*sim.Millisecond, p.traffic-p.drain)})

	// About 40 % local SRT load on every segment.
	for seg := range p.segs {
		tmpl := make([]srtTemplate, 6)
		for i := range tmpl {
			tmpl[i] = srtTemplate{weight: []float64{2, 3, 5, 8, 10, 20}[i], payload: 2 + i, sporadic: i%3 == 2}
		}
		pubs := local[seg]
		p.addSRT(rng, srtSet{seg: seg, pubs: pubs,
			sub: func(i, node int) []int { // the next local station
				for _, n := range pubs {
					if n != node {
						return []int{n}
					}
				}
				panic("no local subscriber")
			},
			tmpl: tmpl, load: 0.40, dlShare: 1, dlMin: 2 * sim.Millisecond, dlMax: 20 * sim.Millisecond,
			expFactor: 3, jitter: 100 * sim.Microsecond})
	}
}

// describe renders the plan's shape for the report.
func (p *plan) describe() string {
	var nodes, hrt, srt, nrt int
	for _, s := range p.segs {
		nodes += s.nodes
	}
	for _, s := range p.streams {
		switch s.class {
		case core.HRT:
			hrt++
		case core.SRT:
			srt++
		case core.NRT:
			nrt++
		}
	}
	return fmt.Sprintf("%d segment(s), %d nodes, %d HRT + %d SRT + %d NRT streams, %v virtual",
		len(p.segs), nodes, hrt, srt, nrt, p.traffic)
}
