// Package obs is the observability layer of the simulated CAN segment:
// a per-event life-cycle tracer, a metrics registry (counters, gauges,
// fixed-bucket histograms) and exporters for JSONL, Chrome trace_event
// JSON and the Prometheus text exposition format.
//
// The layer is strictly opt-in. Systems built without a Config carry a
// nil *Observer, and every emission helper is nil-safe, so instrumented
// hot paths cost one nil check when observability is off.
package obs

import (
	"fmt"

	"canec/internal/can"
	"canec/internal/sim"
)

// Config opts a system into observability.
type Config struct {
	// Trace records per-event life-cycle stage records.
	Trace bool
	// TraceCap bounds the number of retained records (0 = unlimited).
	// Records beyond the cap are counted in Tracer.Dropped.
	TraceCap int
	// Metrics maintains the metrics registry.
	Metrics bool
	// TraceIDBase offsets this observer's trace-ID sequence. Federated
	// segments use disjoint bases (e.g. segment index << 32) so that an
	// event relayed across segments can keep its origin trace ID without
	// colliding with IDs assigned locally — that is what makes one
	// continuous trace span several observers.
	TraceIDBase uint64
	// SLO, when set, starts the per-class objective engine (burn-rate
	// evaluation, breach trace records, /slo state) on the system kernel.
	SLO *SLOConfig
	// FlightRecords, when positive, attaches a flight recorder retaining
	// the last FlightRecords trace records per node, independent of Trace.
	FlightRecords int
	// FlightDir is where flight-recorder post-mortems are dumped
	// (default: the process working directory).
	FlightDir string
}

// Default returns a configuration with tracing and metrics both enabled.
func Default() *Config { return &Config{Trace: true, Metrics: true} }

// BandMap classifies frame priorities into the global band layout, so
// bus-level observations can be attributed per priority band without the
// observability layer depending on the middleware package.
type BandMap struct {
	HRT, Sync      can.Prio
	SRTMin, SRTMax can.Prio
	NRTMin, NRTMax can.Prio
}

// Band names the band of a priority: "hrt", "sync", "srt" or "nrt"
// ("other" outside every band).
func (m BandMap) Band(p can.Prio) string {
	switch {
	case p == m.HRT:
		return "hrt"
	case p == m.Sync:
		return "sync"
	case p >= m.SRTMin && p <= m.SRTMax:
		return "srt"
	case p >= m.NRTMin && p <= m.NRTMax:
		return "nrt"
	}
	return "other"
}

// bandNames is the exposition order of band-labelled metrics.
var bandNames = []string{"hrt", "sync", "srt", "nrt", "other"}

// Observer owns one system's tracer and registry and translates protocol
// activity into records and metrics. All methods are nil-safe: a nil
// Observer ignores every call, so instrumentation points need no
// conditionals.
type Observer struct {
	cfg    Config
	bm     BandMap
	tracer *Tracer
	reg    *Registry
	flight *FlightRecorder
	causal CausalSink

	// nextID and pubAt live on the observer (not the tracer) because the
	// e2e latency metric needs publish times even when tracing is off.
	nextID uint64
	pubAt  pubTimes

	// SubjectOf, if set, resolves wire etags back to subjects so
	// bus-level stage records carry the channel subject (the system wires
	// it to the shared binding table).
	SubjectOf func(can.Etag) (uint64, bool)

	// Metric families, all nil when metrics are off; declareFamilies names
	// them and their labels. The first group is the stage→family table of
	// middleware records (count), the second that of bus records
	// (busEvent); the rest belong to one domain call each.
	published, delivered, dropped, relayFwd, relayDrop, relayLate, relayLink,
	lifecycle, ctrlplane, ctrlStages, ctrlStale *CounterVec
	promotions *Counter

	bandBusy, guardian, frames, busoff *CounterVec
	retries, arbLosses                 *Counter

	slots, copies, exceptions, watchdog, admission, ctrlCost, sloBreach *CounterVec

	latencyHist, jitter, ctrlLat *HistogramVec
	latency                      map[uint64]*subjectLatency // by subject

	// Wire occupancy in progress: start time and the band counter it will
	// be charged to (nil while the wire is idle).
	txStartAt sim.Time
	txBusy    *Counter
}

// subjectLatency is one channel's end-to-end latency state: its histogram
// and the previous delivery's latency (µs, negative before the first),
// from which delivery jitter is derived.
type subjectLatency struct {
	h    *Histogram
	prev float64
}

// New builds an observer. now is the kernel clock (sim.Kernel.Now); bm is
// the system's priority band layout.
func New(cfg Config, now func() sim.Time, bm BandMap) *Observer {
	o := &Observer{cfg: cfg, bm: bm, nextID: cfg.TraceIDBase}
	if cfg.Trace {
		o.tracer = newTracer(cfg.TraceCap)
	}
	if cfg.FlightRecords > 0 {
		o.flight = NewFlightRecorder(cfg.FlightRecords, cfg.FlightDir)
	}
	if cfg.Metrics {
		o.reg = NewRegistry()
		o.declareFamilies(o.reg)
		for _, band := range bandNames {
			busy := o.bandBusy.With(band)
			o.reg.GaugeFunc("canec_band_utilization",
				"Fraction of elapsed virtual time the bus carried frames of each band.",
				Labels{"band": band}, func() float64 {
					if now() == 0 {
						return 0
					}
					return busy.Value() / float64(now())
				})
		}
	}
	return o
}

// declareFamilies names every metric family the observer maintains. Only
// the three unlabelled counters register here; a labelled family enters
// the registry with its first child, so exposition order is first-use
// order.
func (o *Observer) declareFamilies(r *Registry) {
	o.retries = r.Counter("canec_arb_retries_total",
		"Transmission attempts beyond the first (retransmissions after error frames).", nil)
	o.arbLosses = r.Counter("canec_arb_losses_total",
		"Arbitration rounds lost by a competing frame.", nil)
	o.promotions = r.Counter("canec_srt_promotions_total",
		"SRT identifier rewrites to a higher priority (dynamic promotion).", nil)
	o.bandBusy = r.CounterVec("canec_band_busy_ns_total",
		"Wire time consumed by frames of each priority band, in virtual nanoseconds.", "band")

	o.published = r.CounterVec("canec_events_published_total",
		"Events handed to Publish, by channel class.", "class")
	o.delivered = r.CounterVec("canec_events_delivered_total",
		"Events delivered to a subscriber's notification handler, by channel class.", "class")
	o.dropped = r.CounterVec("canec_events_dropped_total",
		"Events that ended without delivery, by reason.", "reason")
	o.relayFwd = r.CounterVec("canec_relay_forwarded_total",
		"Events handed to a relay link for forwarding, by channel class.", "class")
	o.relayDrop = r.CounterVec("canec_relay_dropped_total",
		"Events shed by relay backpressure or budget policy, by class and reason.", "class", "reason")
	o.relayLate = r.CounterVec("canec_relay_late_total",
		"Events forwarded after their relay-deadline budget expired, by class and reason.", "class", "reason")
	o.relayLink = r.CounterVec("canec_relay_link_total",
		"Relay link lifecycle transitions: relay_up, relay_down, relay_redial.", "event")
	o.lifecycle = r.CounterVec("canec_node_lifecycle_total",
		"Whole-node lifecycle transitions: node_down, node_restart, node_up.", "event")
	o.ctrlplane = r.CounterVec("canec_control_plane_total",
		"Control-plane failover transitions: agent_takeover, master_takeover, holdover_enter, holdover_exit.", "event")
	o.ctrlStages = r.CounterVec("canec_control_loop_stages_total",
		"Closed-loop control workload stages (ctrl_sample, ctrl_command, ctrl_apply), by loop.", "loop", "stage")
	o.ctrlStale = r.CounterVec("canec_control_stale_ticks_total",
		"Plant ticks executed under a stale held command (older than the loop's staleness bound), by loop.", "loop")

	o.guardian = r.CounterVec("canec_guardian_mutes_total",
		"Transmissions muted by the bus guardian, by priority band.", "band")
	o.frames = r.CounterVec("canec_frames_total",
		"Frame transmissions by outcome: ok, err (error frame), abort (single-shot).", "kind")
	o.busoff = r.CounterVec("canec_can_busoff_total",
		"Bus-off entries per node's CAN controller.", "node")

	o.slots = r.CounterVec("canec_hrt_slots_total",
		"Calendar slot occurrences by outcome: fired (occupied) or unused (reclaimed).", "outcome")
	o.copies = r.CounterVec("canec_hrt_copies_total",
		"Redundant HRT copy accounting: sent vs suppressed (reclaimed).", "kind")
	o.exceptions = r.CounterVec("canec_exceptions_total",
		"Middleware exceptions raised, by kind.", "kind")
	o.watchdog = r.CounterVec("canec_watchdog_transitions_total",
		"Publisher liveness transitions observed by watchdogs, by new state.", "state")
	o.admission = r.CounterVec("canec_admission_total",
		"Probabilistic admission-control decisions, by channel class, decision and typed reason.",
		"class", "decision", "reason")
	o.ctrlCost = r.CounterVec("canec_control_cost_total",
		"Accrued quadratic control cost (state + input, time-integrated), by loop.", "loop")
	o.sloBreach = r.CounterVec("canec_slo_breaches_total",
		"SLO breach-enter transitions, by objective.", "objective")

	o.latency = make(map[uint64]*subjectLatency)
	o.latencyHist = r.LogHistogramVec("canec_e2e_latency_microseconds",
		"Publish-to-delivery latency per channel, in virtual microseconds (log buckets).",
		latencyHistMin, latencyHistMax, latencyBuckets, "subject", "class")
	o.jitter = r.LogHistogramVec("canec_delivery_jitter_microseconds",
		"Absolute latency delta between consecutive deliveries on a channel, by class (log buckets).",
		jitterHistMin, latencyHistMax, latencyBuckets, "class")
	o.ctrlLat = r.LogHistogramVec("canec_control_loop_latency_microseconds",
		"Sensor-sample to actuator-apply latency of closed control loops, in microseconds.",
		1, 1e6, 60, "loop")
}

// latencyHistMin and latencyHistMax (50 ms) are the edges (µs) of the
// log-bucketed latency histograms, and latencyBuckets their bucket count;
// the jitter histograms share the upper edge and the count, with
// jitterHistMin as their lower edge (sub-µs, because perfectly regular HRT
// delivery produces near-zero deltas).
const (
	latencyHistMin = 1.0
	latencyHistMax = float64(50*sim.Millisecond) / 1e3
	jitterHistMin  = 0.1
	latencyBuckets = 50
)

// Enabled reports whether the observer exists (convenience for callers
// holding a possibly-nil pointer).
func (o *Observer) Enabled() bool { return o != nil }

// Tracer returns the life-cycle tracer (nil when tracing is off).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Registry returns the metrics registry (nil when metrics are off).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Records returns the recorded stage records (nil when tracing is off).
func (o *Observer) Records() []Record {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.Records()
}

// Flight returns the attached flight recorder (nil when none).
func (o *Observer) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.flight
}

// TraceBase returns the observer's trace-ID base (0 on a nil observer).
// Fleet tooling uses it to attribute trace IDs to segments.
func (o *Observer) TraceBase() uint64 {
	if o == nil {
		return 0
	}
	return o.cfg.TraceIDBase
}

// CausalSink consumes the full stage-record stream for root-cause
// attribution (internal/obs/causal implements it). The interface lives
// here so the observer can feed the engine without importing it; the
// SLO engine calls BreachSummary to stamp breach post-mortems with the
// current top causes.
type CausalSink interface {
	// Add ingests one stage record. Kernel context.
	Add(Record)
	// BreachSummary renders the top-n incident causes for a class (""
	// = all classes), or "" when nothing was attributed yet.
	BreachSummary(class string, n int) string
}

// AttachCausal installs (or, with nil, detaches) the causal analyzer.
// Like the flight recorder it works with tracing off: emitRecord feeds
// it independently. Detached, the hot path keeps its single nil check.
func (o *Observer) AttachCausal(s CausalSink) {
	if o == nil {
		return
	}
	o.causal = s
}

// Causal returns the attached causal sink (nil when detached).
func (o *Observer) Causal() CausalSink {
	if o == nil {
		return nil
	}
	return o.causal
}

// emit is the single path of a middleware-side stage record: the
// stage→counter table first, then the record sinks. Callers hold a
// non-nil observer.
func (o *Observer) emit(r Record) {
	if o.reg != nil {
		o.count(r)
	}
	o.emitRecord(r)
}

// count is the whole stage→counter table. Stages without a case are
// record-only. Records that belong to a loop or a link rather than an
// event carry its name or the drop reason in Detail.
func (o *Observer) count(r Record) {
	switch r.Stage {
	case StagePublished:
		o.published.With(r.Class).Inc()
	case StageDelivered:
		o.delivered.With(r.Class).Inc()
	case StagePromoted:
		o.promotions.Inc()
	case StageExpired:
		o.dropped.With("expired").Inc()
	case StageShed:
		o.dropped.With("shed").Inc()
	case StageDropped:
		reason := r.Detail
		if reason == "" {
			reason = "dropped"
		}
		o.dropped.With(reason).Inc()
	case StageRelayTx:
		o.relayFwd.With(r.Class).Inc()
	case StageRelayDrop:
		o.relayDrop.With(r.Class, r.Detail).Inc()
	case StageRelayLate:
		o.relayLate.With(r.Class, r.Detail).Inc()
	case StageRelayUp, StageRelayDown, StageRelayRedial:
		o.relayLink.With(string(r.Stage)).Inc()
	case StageNodeDown, StageNodeRestart, StageNodeUp:
		o.lifecycle.With(string(r.Stage)).Inc()
	case StageAgentTakeover, StageMasterTakeover, StageHoldoverEnter, StageHoldoverExit:
		o.ctrlplane.With(string(r.Stage)).Inc()
	case StageCtrlSample, StageCtrlCommand, StageCtrlApply:
		o.ctrlStages.With(r.Detail, string(r.Stage)).Inc()
	case StageCtrlStale:
		o.ctrlStale.With(r.Detail).Inc()
	}
}

// emitRecord fans one stage record out to the tracer (when tracing is
// on), the flight recorder and the causal analyzer (when attached).
// Callers already hold a non-nil observer; any sink may still be absent.
func (o *Observer) emitRecord(r Record) {
	if o.tracer != nil {
		o.tracer.add(r)
	}
	if o.flight != nil {
		o.flight.Add(r)
	}
	if o.causal != nil {
		o.causal.Add(r)
	}
}

// recording reports whether any record sink is attached, so call sites
// can skip assembling records that nobody would retain.
func (o *Observer) recording() bool {
	return o.tracer != nil || o.flight != nil || o.causal != nil
}

// Begin opens a trace for a freshly published event and returns its
// monotonically increasing ID. It returns 0 (an untraced event) on a nil
// observer.
func (o *Observer) Begin(class string, node int, subject uint64, at sim.Time) uint64 {
	if o == nil {
		return 0
	}
	o.nextID++
	id := o.nextID
	o.pubAt.put(id, at)
	o.emit(Record{ID: id, Stage: StagePublished, At: at, Node: node,
		Class: class, Subject: subject, Prio: -1})
	return id
}

// Adopt continues a trace opened on another segment's observer: the
// publish counter is maintained and the foreign trace ID is registered
// with the local publish time (feeding the per-segment slice of the
// end-to-end latency histogram), but no new ID is allocated — relayed
// events keep the ID of their origin segment, which is what stitches
// the per-segment traces into one continuous chain.
func (o *Observer) Adopt(id uint64, class string, node int, subject uint64, at sim.Time) {
	if o == nil || id == 0 {
		return
	}
	if _, ok := o.pubAt.get(id); !ok {
		o.pubAt.put(id, at)
	}
	o.emit(Record{ID: id, Stage: StagePublished, At: at, Node: node,
		Class: class, Subject: subject, Prio: -1, Detail: "relayed"})
}

// Emit records one middleware-side stage of an event, a loop, a link or a
// station and maintains the stage's counters (see count). Records that do
// not belong to one event — node lifecycle, control-plane failover, relay
// link transitions, control-loop stages — carry trace ID 0 and subject 0;
// detail is the drop reason, the peer/link annotation or the loop name.
func (o *Observer) Emit(id uint64, stage Stage, class string, node int, subject uint64, at sim.Time, detail string) {
	if o == nil {
		return
	}
	o.emit(Record{ID: id, Stage: stage, At: at, Node: node,
		Class: class, Subject: subject, Prio: -1, Detail: detail})
}

// Delivered closes a trace on a successful notification and feeds the
// per-channel end-to-end latency histogram.
func (o *Observer) Delivered(id uint64, class string, node int, subject uint64, at sim.Time, detail string) {
	if o == nil {
		return
	}
	o.emit(Record{ID: id, Stage: StageDelivered, At: at, Node: node,
		Class: class, Subject: subject, Prio: -1, Detail: detail})
	if o.reg == nil {
		return
	}
	pub, ok := o.pubAt.get(id)
	if !ok || at < pub {
		return
	}
	s, ok := o.latency[subject]
	if !ok {
		s = &subjectLatency{prev: -1,
			h: o.latencyHist.With(fmt.Sprintf("0x%x", subject), class)}
		o.latency[subject] = s
	}
	lat := float64(at-pub) / 1e3
	s.h.Observe(lat)
	// Delivery jitter: spread between consecutive deliveries' latency
	// on the same channel, aggregated per class. For HRT this is the
	// quantity the paper bounds by clock-sync precision.
	if s.prev >= 0 {
		d := lat - s.prev
		if d < 0 {
			d = -d
		}
		o.jitter.With(class).Observe(d)
	}
	s.prev = lat
}

// JitterHist exposes the per-class delivery jitter histogram backend
// (nil when metrics are off or no jitter sample was recorded yet). The
// SLO engine evaluates windowed quantiles over its bucket deltas.
func (o *Observer) JitterHist(class string) HistSource {
	if o == nil || o.reg == nil {
		return nil
	}
	h := o.jitter.Find(class)
	if h == nil {
		return nil
	}
	return h.Snapshot()
}

// PublishKernelTime exposes the trace-open time so the middleware can
// fill DeliveryInfo.PublishedAt. ok is false for untraced events.
func (o *Observer) PublishKernelTime(id uint64) (sim.Time, bool) {
	if o == nil || id == 0 {
		return 0, false
	}
	return o.pubAt.get(id)
}

// SlotOutcome counts a calendar slot occurrence: fired (an event rode it)
// or unused (its reserved bandwidth was reclaimed by arbitration).
func (o *Observer) SlotOutcome(fired bool) {
	if o == nil || o.reg == nil {
		return
	}
	outcome := "unused"
	if fired {
		outcome = "fired"
	}
	o.slots.With(outcome).Inc()
}

// Copies counts HRT redundancy bookkeeping: redundant copies actually
// sent and copies suppressed by bandwidth reclamation.
func (o *Observer) Copies(kind string, n uint64) {
	if o == nil || o.reg == nil || n == 0 {
		return
	}
	o.copies.With(kind).Add(float64(n))
}

// ExceptionRaised counts a middleware exception by kind.
func (o *Observer) ExceptionRaised(kind string) {
	if o == nil || o.reg == nil {
		return
	}
	o.exceptions.With(kind).Inc()
}

// AdmissionDecision counts one probabilistic admission-control decision:
// decision is "admitted", "rejected" or "shed"; reason is the typed
// rejection reason ("none" for admissions).
func (o *Observer) AdmissionDecision(class, decision, reason string) {
	if o == nil || o.reg == nil {
		return
	}
	o.admission.With(class, decision, reason).Inc()
}

// WatchdogChange counts a liveness state transition observed by a node's
// watchdog.
func (o *Observer) WatchdogChange(state string) {
	if o == nil || o.reg == nil {
		return
	}
	o.watchdog.With(state).Inc()
}

// ControlCost accrues quadratic control cost for one loop: delta is one
// plant tick's contribution (state and input error weighted by the loop's
// cost matrices, integrated over the tick). The SLO engine budgets
// against the sum across loops.
func (o *Observer) ControlCost(loop string, delta float64) {
	if o == nil || o.reg == nil {
		return
	}
	o.ctrlCost.With(loop).Add(delta)
}

// ControlLatency records one measured sensor-sample → actuator-apply loop
// latency in microseconds.
func (o *Observer) ControlLatency(loop string, us float64) {
	if o == nil || o.reg == nil {
		return
	}
	o.ctrlLat.With(loop).Observe(us)
}

// RegisterControlLoop installs a collection-time gauge exposing one loop's
// instantaneous absolute deviation from its setpoint.
func (o *Observer) RegisterControlLoop(loop string, deviation func() float64) {
	if o == nil || o.reg == nil {
		return
	}
	o.reg.GaugeFunc("canec_control_deviation",
		"Instantaneous absolute deviation of each control loop's plant output from its setpoint.",
		Labels{"loop": loop}, deviation)
}

// RegisterQueueDepth installs a collection-time gauge for one node-local
// queue (HRT slot queues, SRT send queue, NRT chain queue).
func (o *Observer) RegisterQueueDepth(node int, queue string, fn func() int) {
	if o == nil || o.reg == nil {
		return
	}
	o.reg.GaugeFunc("canec_queue_depth",
		"Current depth of each node-local send queue.",
		Labels{"node": fmt.Sprintf("%d", node), "queue": queue},
		func() float64 { return float64(fn()) })
}

// RegisterErrorState installs the fault-confinement gauges for one node's
// controller: TEC, REC and the numeric error state (0 error-active,
// 1 error-passive, 2 bus-off). With confinement off the gauges stay flat
// at zero, so they are registered unconditionally like the queue depths.
func (o *Observer) RegisterErrorState(node int, tec, rec, state func() int) {
	if o == nil || o.reg == nil {
		return
	}
	labels := Labels{"node": fmt.Sprintf("%d", node)}
	o.reg.GaugeFunc("canec_can_tec",
		"Transmit error counter of each node's CAN controller.",
		labels, func() float64 { return float64(tec()) })
	o.reg.GaugeFunc("canec_can_rec",
		"Receive error counter of each node's CAN controller.",
		labels, func() float64 { return float64(rec()) })
	o.reg.GaugeFunc("canec_can_error_state",
		"Fault-confinement state of each node's CAN controller: 0 error-active, 1 error-passive, 2 bus-off.",
		labels, func() float64 { return float64(state()) })
}

// InstallBus chains the observer into a bus's Trace hook (preserving any
// existing hook) and enables arbitration tracing. Bus-level stages are
// correlated to event traces through Frame.Tag.
func (o *Observer) InstallBus(b *can.Bus) {
	if o == nil {
		return
	}
	b.TraceArbitration = true
	prev := b.Trace
	b.Trace = func(e can.TraceEvent) {
		o.busEvent(e)
		if prev != nil {
			prev(e)
		}
	}
}

// busStage maps each bus trace kind to its stage.
var busStage = [...]Stage{
	can.TraceTxStart:       StageTxStart,
	can.TraceTxOK:          StageTxOK,
	can.TraceTxError:       StageTxErr,
	can.TraceTxAbort:       StageTxAbort,
	can.TraceRx:            StageRx,
	can.TraceArbWin:        StageArbWon,
	can.TraceArbLoss:       StageArbLost,
	can.TraceGuardMute:     StageGuardMuted,
	can.TraceGuardIsolate:  StageGuardIsolated,
	can.TraceErrorPassive:  StageErrorPassive,
	can.TraceErrorActive:   StageErrorActive,
	can.TraceBusOff:        StageBusOff,
	can.TraceBusOffRecover: StageBusOffRecovered,
}

// busEvent translates one bus trace event into a stage record and metrics.
// Bus records are most of the stream, so they keep their own short metric
// switch instead of paying the middleware table in count.
func (o *Observer) busEvent(e can.TraceEvent) {
	if uint(e.Kind) >= uint(len(busStage)) {
		return
	}
	prio := e.Frame.ID.Prio()
	band := o.bm.Band(prio)
	if o.reg != nil {
		switch e.Kind {
		case can.TraceArbLoss:
			o.arbLosses.Inc()
		case can.TraceTxStart:
			if e.Attempt > 1 {
				o.retries.Inc()
			}
			o.txStartAt, o.txBusy = e.At, o.bandBusy.With(band)
		case can.TraceTxOK:
			o.closeWire(e.At)
			o.frames.With("ok").Inc()
		case can.TraceTxError:
			o.closeWire(e.At)
			o.frames.With("err").Inc()
		case can.TraceTxAbort:
			o.frames.With("abort").Inc()
		case can.TraceGuardMute:
			o.guardian.With(band).Inc()
		case can.TraceBusOff:
			o.busoff.With(fmt.Sprintf("%d", e.Sender)).Inc()
		}
	}
	if !o.recording() {
		return
	}
	switch e.Kind {
	case can.TraceErrorPassive, can.TraceErrorActive, can.TraceBusOff, can.TraceBusOffRecover:
		// Fault-confinement transitions carry a zero frame (they belong to
		// the controller, not an event): Node is the controller, Detail
		// snapshots TEC/REC.
		o.emitRecord(Record{Stage: busStage[e.Kind], At: e.At, Node: e.Sender, Prio: -1,
			Detail: fmt.Sprintf("tec=%d rec=%d", e.TEC, e.REC)})
		return
	}
	node := e.Sender
	if e.Kind == can.TraceRx {
		node = e.Recv
	}
	etag := e.Frame.ID.Etag()
	var subject uint64
	if o.SubjectOf != nil {
		subject, _ = o.SubjectOf(etag)
	}
	o.emitRecord(Record{ID: e.Frame.Tag, Stage: busStage[e.Kind], At: e.At, Node: node,
		Subject: subject, Etag: uint16(etag), Prio: int(prio), Band: band,
		Attempt: e.Attempt})
}

// closeWire attributes the finished wire occupancy to its band.
func (o *Observer) closeWire(at sim.Time) {
	if o.txBusy != nil {
		o.txBusy.Add(float64(at - o.txStartAt))
		o.txBusy = nil
	}
}
