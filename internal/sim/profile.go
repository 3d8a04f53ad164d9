package sim

import "time"

// ProbeStage names one stage of the publish→deliver chain for wall-clock
// cost attribution. The stages are defined here — not in the profiler
// package — because the kernel, the bus model and the middleware all
// instrument themselves against this enum without depending on the
// observability layer.
type ProbeStage uint8

const (
	// ProbeEnqueue is the publisher-side Publish call: admission checks,
	// priority mapping, frame construction, controller submission.
	ProbeEnqueue ProbeStage = iota
	// ProbeHeap is the kernel's event-heap work. Its op count covers
	// scheduling pushes, cancellation removals and step pops; its time
	// covers the pops of timed steps only. A push or cancel reports
	// wallNs 0: timing one costs two clock reads, about as much as the
	// op itself, and nearly all of them run inside an enqueue, dispatch
	// or delivery window, which already holds their time.
	ProbeHeap
	// ProbeArbitration is one bus arbitration round: the controller scan
	// and winner resolution.
	ProbeArbitration
	// ProbeCodec is frame wire-geometry work: the exact stuffed length
	// of the frame that won arbitration (can.WireBits — table-driven
	// CRC-15 and stuff-bit count over the packed frame).
	ProbeCodec
	// ProbeDispatch is the receive-side middleware dispatch: etag
	// routing plus per-class receive processing (dedup, reassembly).
	ProbeDispatch
	// ProbeDelivery is the subscriber notification callback itself. HRT
	// deliveries run from de-jitter timers, so this stage is not always
	// nested inside ProbeDispatch.
	ProbeDelivery
	// NumProbeStages bounds the enum for array-indexed aggregation.
	NumProbeStages
)

// String returns the stage's exposition name.
func (s ProbeStage) String() string {
	switch s {
	case ProbeEnqueue:
		return "enqueue"
	case ProbeHeap:
		return "heap"
	case ProbeArbitration:
		return "arbitration"
	case ProbeCodec:
		return "codec"
	case ProbeDispatch:
		return "dispatch"
	case ProbeDelivery:
		return "delivery"
	}
	return "unknown"
}

// ProbeClass attributes a stage sample to a channel class where the
// instrumentation point knows it (middleware sites); kernel- and
// bus-level samples carry ProbeClassNone.
type ProbeClass uint8

const (
	ProbeClassNone ProbeClass = iota
	ProbeClassHRT
	ProbeClassSRT
	ProbeClassNRT
	NumProbeClasses
)

// String returns the class's exposition name.
func (c ProbeClass) String() string {
	switch c {
	case ProbeClassHRT:
		return "hrt"
	case ProbeClassSRT:
		return "srt"
	case ProbeClassNRT:
		return "nrt"
	}
	return "all"
}

// Probe receives stage attributions from the kernel, the bus and the
// middleware. Implementations must be cheap and must not allocate:
// probes run inside the hottest simulation paths. The obs/perf.Profiler
// is the stock implementation.
//
// Every stage op makes exactly one call, so op counts are exact. Wall
// time is sampled: while a probe is attached the kernel times about one
// step in probePeriod, on a jittered counter schedule of its own (it
// never draws from the kernel RNG), and an untimed step reads no clock.
// On a timed step each op reports its exclusive time — its window less
// the windows nested in it — multiplied by the number of steps the
// sample stands for; on any other step it reports 0. Sums of wallNs are
// therefore unbiased estimates of the stages' totals. Ops that run
// outside any step (a Publish from set-up code, a relay injection under
// Paced.Call) are timed at scale 1.
type Probe interface {
	// StageNs attributes wallNs nanoseconds of wall-clock work to one
	// stage (and class, when the caller knows it). One call also counts
	// one operation of that stage, so delivery-stage calls double as the
	// delivered-frame counter.
	StageNs(s ProbeStage, c ProbeClass, wallNs int64)
}

// probePeriod is the mean number of steps between two timed steps while
// a probe is attached. A power of two, and deliberately not a setting:
// one timed step in 64 takes the clock reads off the observed path's
// profile and still leaves about ten thousand samples in a 20 s run of
// the benchmark's mixed workload.
const probePeriod = 64

// probeTiming is the kernel's sampled stage clock (see Probe).
type probeTiming struct {
	// scale is what one measured nanosecond stands for right now: 0 in
	// an untimed step (no clock is read), the sample's gap in a timed
	// step, 1 outside any step.
	scale  int64
	inStep bool
	// left counts the steps until the next timed one; jitter is the
	// xorshift state the gaps are drawn from.
	left   int64
	jitter uint64
	// childNs is the wall time of the windows already closed inside
	// the innermost open one (the step itself at the bottom). Each
	// window saves its parent's value in its StageWindow, so the nesting
	// stack lives on the callers' stacks.
	childNs int64
	// clock reads the wall clock in ns; tests substitute a fake.
	clock  func() int64
	totals ProbeTotals
}

func newProbeTiming() *probeTiming {
	return &probeTiming{
		scale:  1,
		jitter: 0x9e3779b97f4a7c15,
		clock:  ProbeNow,
		left:   1, // the first probed step is timed, so samples cover every step
	}
}

// nextGap draws the number of steps from one timed step to the next:
// uniform on [probePeriod/2, 3*probePeriod/2], mean probePeriod. The
// jitter keeps a periodic event pattern (an HRT calendar runs a fixed
// number of steps per round) from aliasing with the schedule.
func (pt *probeTiming) nextGap() int64 {
	x := pt.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	pt.jitter = x
	return probePeriod/2 + int64(x%(probePeriod+1))
}

// ProbeTotals is what the kernel's sampled stage clock has measured
// since a probe was first attached. Every timed op's wallNs and the unattributed
// residual are scaled by the same gap, so the wallNs of all StageNs calls
// plus UnattributedNs equal WallNs exactly.
type ProbeTotals struct {
	// WallNs estimates the wall time of the steps run while a probe was
	// attached, plus the stage windows timed outside any step.
	WallNs int64
	// UnattributedNs is the part of WallNs no stage window covers: the
	// loop itself, event callbacks outside any stage and the probe's own
	// calls.
	UnattributedNs int64
	// TimedSteps counts the steps that read the clock.
	TimedSteps uint64
	// Samples counts the timed ops per stage and class.
	Samples [NumProbeStages][NumProbeClasses]uint64
}

// ProbeTotals returns the sampled stage clock's totals (zero before the
// first SetProbe).
func (k *Kernel) ProbeTotals() ProbeTotals {
	if k.pt == nil {
		return ProbeTotals{}
	}
	return k.pt.totals
}

// stepProbed is Step with a probe attached: every pop is counted, and a
// timed step reads the clock at its start, after its pop and at its end.
func (k *Kernel) stepProbed() {
	pt := k.pt
	at := k.queue[0].at
	pt.inStep = true
	if pt.left--; pt.left > 0 {
		fn := k.remove(0)
		k.probe.StageNs(ProbeHeap, ProbeClassNone, 0)
		k.advance(at)
		pt.scale = 0
		fn()
		pt.scale, pt.inStep = 1, false
		return
	}
	gap := pt.nextGap()
	pt.left = gap
	t0 := pt.clock()
	fn := k.remove(0)
	pop := pt.clock() - t0
	pt.totals.Samples[ProbeHeap][ProbeClassNone]++
	k.probe.StageNs(ProbeHeap, ProbeClassNone, pop*gap)
	k.advance(at)
	pt.scale, pt.childNs = gap, pop
	fn()
	el := pt.clock() - t0
	pt.totals.TimedSteps++
	pt.totals.WallNs += el * gap
	pt.totals.UnattributedNs += (el - pt.childNs) * gap
	pt.scale, pt.inStep, pt.childNs = 1, false, 0
}

// StageWindow is an open stage window (StageStart). The zero window is
// an untimed one.
type StageWindow struct {
	t0, parentChildNs, scale int64
}

// StageStart opens a stage window for the bus or the middleware. Call it
// only with a probe attached (Probe() != nil), and close the window with
// StageEnd. In an untimed step it reads no clock.
func (k *Kernel) StageStart() StageWindow {
	if k.pt.scale == 0 {
		return StageWindow{}
	}
	w := StageWindow{t0: k.pt.clock(), parentChildNs: k.pt.childNs, scale: k.pt.scale}
	k.pt.childNs = 0
	return w
}

// StageEnd closes w and reports it to the probe as one op of stage s and
// class c: its exclusive wall time, scaled, on a timed step; 0 otherwise.
func (k *Kernel) StageEnd(w StageWindow, s ProbeStage, c ProbeClass) {
	if w.scale == 0 {
		k.probe.StageNs(s, c, 0)
		return
	}
	k.closeWindow(w, s, c)
}

func (k *Kernel) closeWindow(w StageWindow, s ProbeStage, c ProbeClass) {
	pt := k.pt
	el := pt.clock() - w.t0
	excl := el - pt.childNs
	pt.childNs = w.parentChildNs + el
	pt.totals.Samples[s][c]++
	if !pt.inStep {
		pt.totals.WallNs += excl
	}
	k.probe.StageNs(s, c, excl*w.scale)
}

// probeEpoch anchors ProbeNow's monotonic readings.
var probeEpoch = time.Now()

// ProbeNow returns a monotonic wall-clock reading in nanoseconds. It is
// only meaningful as a difference between two readings in the same
// process.
func ProbeNow() int64 { return int64(time.Since(probeEpoch)) }

// KernelProfile is a snapshot of the kernel's always-on self-accounting.
// The counters are maintained unconditionally — they cost a compare and
// an add per event — so profilers can attach mid-run and still see
// lifetime high-water marks.
type KernelProfile struct {
	// Steps is the number of events executed so far.
	Steps uint64
	// Pending is the current event-heap depth.
	Pending int
	// HeapHighWater is the deepest the event heap has ever been.
	HeapHighWater int
	// IdleVirtual is the total virtual time the clock jumped forward
	// waiting for the next event (Step gaps and AdvanceTo), i.e. virtual
	// time during which no event was due.
	IdleVirtual Duration
	// Now is the current virtual time.
	Now Time
}

// SetProbe installs (or, with nil, removes) the kernel's stage probe.
// Callers must pass a genuinely nil interface to disable probing, not a
// typed nil pointer. The first probe makes the sampled stage clock; a
// kernel never probed carries none of it.
func (k *Kernel) SetProbe(p Probe) {
	if p != nil && k.pt == nil {
		k.pt = newProbeTiming()
	}
	k.probe = p
}

// Probe returns the installed stage probe (nil when profiling is off).
// Bus and middleware instrumentation points read it per operation so a
// probe attached to the kernel covers the whole chain with no extra
// wiring.
func (k *Kernel) Probe() Probe { return k.probe }

// Profile returns the kernel's self-accounting snapshot.
func (k *Kernel) Profile() KernelProfile {
	return KernelProfile{
		Steps:         k.steps,
		Pending:       len(k.queue),
		HeapHighWater: k.heapHigh,
		IdleVirtual:   k.idleVirtual,
		Now:           k.now,
	}
}
