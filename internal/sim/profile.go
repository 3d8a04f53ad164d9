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
	// covers step pops only. A push or cancel reports wallNs 0: timing
	// one costs two clock reads, about as much as the op itself, and
	// nearly all of them run inside an enqueue, dispatch or delivery
	// window, which already holds their time.
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

// Probe receives wall-clock stage attributions from the kernel, the bus
// and the middleware. Implementations must be cheap and must not
// allocate: probes run inside the hottest simulation paths. The
// obs/perf.Profiler is the stock implementation.
type Probe interface {
	// StageNs attributes wallNs nanoseconds of wall-clock work to one
	// stage (and class, when the caller knows it). One call also counts
	// one operation of that stage, so delivery-stage calls double as the
	// delivered-frame counter.
	StageNs(s ProbeStage, c ProbeClass, wallNs int64)
}

// probeEpoch anchors ProbeNow's monotonic readings.
var probeEpoch = time.Now()

// ProbeNow returns a monotonic wall-clock reading in nanoseconds, for
// bracketing instrumented regions. It is only meaningful as a
// difference between two readings in the same process.
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
// typed nil pointer.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

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
