package obs

// Stage labels one step of an event's life cycle. The publish-side
// middleware opens a trace with StagePublished; the bus contributes the
// arbitration and wire stages; the subscribe-side middleware closes it
// with StageDelivered (or one of the terminal drop stages). A delivered
// event therefore leaves a chain
//
//	published → enqueued → [promoted]* → [arb_lost]* → arb_won →
//	tx_start → tx_ok → rx → delivered
//
// with non-decreasing timestamps, all carrying the same trace ID. A stage
// is a small integer, named only at export (String, MarshalText).
type Stage uint8

const (
	// StageUnknown is a stage name this build does not know, read back
	// from a dump of a newer build. Every consumer ignores it.
	StageUnknown Stage = iota
	// StagePublished opens a trace: the application called Publish.
	StagePublished
	// StageEnqueued marks the event entering a send queue (the HRT slot
	// queue, the controller's SRT mailbox set, or the NRT chain queue).
	StageEnqueued
	// StagePromoted marks an SRT identifier rewrite to a higher priority.
	StagePromoted
	// StageArbWon marks the event's frame winning an arbitration round.
	StageArbWon
	// StageArbLost marks the frame competing in and losing a round.
	StageArbLost
	// StageTxStart marks the frame starting to occupy the wire.
	StageTxStart
	// StageTxOK marks a successful (sender-observed) transmission.
	StageTxOK
	// StageTxErr marks an error frame; the controller will retry unless
	// the request was single-shot.
	StageTxErr
	// StageTxAbort marks a single-shot request abandoned after an error.
	StageTxAbort
	// StageRx marks delivery of the frame to one receiving controller.
	StageRx
	// StageDelivered closes a trace: the subscriber's notification ran.
	StageDelivered
	// StageDropped closes a trace without delivery (queue overflow,
	// abandoned transmission, duplicate copy).
	StageDropped
	// StageExpired closes a trace: temporal validity ended in the queue.
	StageExpired
	// StageShed closes a trace: value-based load shedding removed it.
	StageShed
	// StageMissed marks a subscriber detecting a missing message in a
	// periodic HRT slot (the SlotMissed local exception). It carries trace
	// ID 0 — the subscriber cannot know the ID of a frame it never
	// received — with the channel subject set, so checkers can match it to
	// the unterminated publish.
	StageMissed
	// StageGuardMuted marks the bus guardian muting a calendar-violating
	// transmission before it reached the wire (babbling-idiot containment).
	StageGuardMuted
	// StageGuardIsolated marks the guardian escalating to whole-station
	// isolation: every further transmission of the station is muted. Emitted
	// once per suppressed attempt; the first occurrence timestamps the
	// isolation for the chaos checkers.
	StageGuardIsolated

	// Fault-confinement stages carry trace ID 0 with Node set to the
	// controller whose error state changed (they belong to a station, not an
	// event); Detail snapshots the TEC/REC after the transition. Chaos
	// checkers pair bus_off with bus_off_recovered to bound recovery times.

	// StageErrorPassive marks a controller crossing into error-passive
	// (TEC or REC reached 128).
	StageErrorPassive
	// StageErrorActive marks a controller returning to error-active.
	StageErrorActive
	// StageBusOff marks a controller entering bus-off and detaching
	// (TEC reached 256).
	StageBusOff
	// StageBusOffRecovered marks a bus-off controller completing the
	// 128×11-recessive-bit observation (plus any supervisor backoff) and
	// re-joining error-active with cleared counters.
	StageBusOffRecovered

	// Node lifecycle stages carry trace ID 0 (they belong to a station, not
	// an event) with Node set to the affected station. Chaos invariant
	// checkers read crash windows from these records.

	// StageNodeDown marks a whole-node crash: the station's controller
	// detached from the bus.
	StageNodeDown
	// StageNodeRestart marks the start of a node's recovery (power-on).
	StageNodeRestart
	// StageNodeUp marks a completed recovery: re-joined, re-synced,
	// re-bound and back on the calendar.
	StageNodeUp

	// Control-plane failover stages also carry trace ID 0 with Node set to
	// the station whose role changed. Chaos invariant checkers use them to
	// verify takeover latency bounds.

	// StageAgentTakeover marks a standby binding agent assuming the agent
	// role after missed heartbeats.
	StageAgentTakeover
	// StageMasterTakeover marks a backup time master starting to emit SYNC
	// rounds after the acting master fell silent.
	StageMasterTakeover
	// StageHoldoverEnter marks a follower clock switching to holdover:
	// extrapolating on its last known rate with a growing uncertainty bound.
	StageHoldoverEnter
	// StageHoldoverExit marks a follower clock re-converging on a master.
	StageHoldoverExit

	// Relay stages tie the segments of a federated channel together: an
	// event published on segment A and delivered on segment C leaves
	// relay_tx/relay_rx pairs at every hop, all carrying the trace ID
	// opened on the origin segment (segments use disjoint trace-ID bases,
	// so the origin ID is preserved across republication).

	// StageRelayTx marks an event leaving the local segment through a
	// relay link (enqueued toward a peer).
	StageRelayTx
	// StageRelayRx marks an event arriving from a relay peer, before
	// republication on the local segment.
	StageRelayRx
	// StageRelayDrop closes a relayed event's local life: the relay shed
	// it (NRT under backpressure, SRT budget expired, loop/hop guard).
	// HRT events are never given this stage — they are forwarded late
	// and marked StageRelayLate instead.
	StageRelayDrop
	// StageRelayLate marks a relayed event forwarded after its per-hop
	// deadline budget was exhausted (counted, never silently dropped).
	StageRelayLate

	// Relay link lifecycle stages carry trace ID 0 with Node set to the
	// local gateway station; chaos liveness checkers read flap windows
	// and recovery from them.

	// StageRelayUp marks a relay link becoming usable (dial or accept
	// completed, Hello exchanged).
	StageRelayUp
	// StageRelayDown marks a relay link loss (peer disconnect, heartbeat
	// timeout, scripted flap).
	StageRelayDown
	// StageRelayRedial marks an uplink starting a re-dial attempt under
	// the retry policy's backoff.
	StageRelayRedial

	// Admission stages record the probabilistic admission controller's
	// decisions. They carry trace ID 0 (the decision concerns a channel,
	// not one event); Detail carries the predicted miss probability, the
	// class target and — for rejections — the typed reason.

	// StageAdmitted marks a channel passing admission analysis at
	// announce time.
	StageAdmitted
	// StageAdmitRejected marks a channel refused at announce time
	// (predicted miss probability over target, unschedulable set,
	// undeclared rate, or an armed re-admission backoff).
	StageAdmitRejected
	// StageAdmitShed marks a previously admitted channel withdrawn after
	// an error-state transition raised the measured error rate past what
	// its deadline tolerates.
	StageAdmitShed

	// StageSLOBreach marks a service-level objective entering breach:
	// both burn-rate windows exceeded the configured threshold. It
	// carries trace ID 0 and Node -1 (the objective belongs to the
	// segment, not a station); Detail names the objective and the burn
	// factors, and Class the guarded channel class when class-bound.
	StageSLOBreach

	// Control-loop stages record the closed-loop plant/controller
	// workload (internal/control). They carry trace ID 0 (the stage
	// concerns the loop, not one bus event — the underlying sensor and
	// command frames trace normally); Detail names the loop, Class its
	// sensor/command channel class, Node the station the stage ran on.

	// StageCtrlSample marks a sensor sampling the plant state and
	// publishing it on the loop's sensor channel.
	StageCtrlSample
	// StageCtrlCommand marks the controller computing a control input
	// from a delivered sample and publishing it on the command channel.
	StageCtrlCommand
	// StageCtrlApply marks the actuator receiving a command and latching
	// it into the zero-order hold.
	StageCtrlApply
	// StageCtrlStale marks a plant tick driven by a held command older
	// than the loop's staleness bound — the visible cost of late or lost
	// frames.
	StageCtrlStale

	// StageSchema marks the self-describing header line of a versioned
	// trace JSONL stream. The header is itself a valid Record (Detail
	// carries the schema tag), so consumers skip it like any stage they
	// do not follow.
	StageSchema
	// StageMeta is any other meta line ("_"-prefixed stage) of a dump;
	// ReadJSONLInfo drops it.
	StageMeta
)

const numStages = StageMeta + 1

// stageNames is the JSONL name of every stage, in declaration order
// (TestStageNames pins each one).
var stageNames = names[Stage]{
	"unknown", "published", "enqueued", "promoted", "arb_won", "arb_lost",
	"tx_start", "tx_ok", "tx_err", "tx_abort", "rx", "delivered",
	"dropped", "expired", "shed", "slot_missed", "guard_muted",
	"guard_isolated", "error_passive", "error_active", "bus_off",
	"bus_off_recovered", "node_down", "node_restart", "node_up",
	"agent_takeover", "master_takeover", "holdover_enter",
	"holdover_exit", "relay_tx", "relay_rx", "relay_drop", "relay_late",
	"relay_up", "relay_down", "relay_redial", "admitted",
	"admit_rejected", "admit_shed", "slo_breach", "ctrl_sample",
	"ctrl_command", "ctrl_apply", "ctrl_stale", "_schema", "_meta",
}

// Tracer stores life-cycle stage records, bounded by an optional
// capacity. It is driven from simulation-kernel context and therefore
// needs no locking; one Tracer belongs to exactly one kernel. Trace IDs
// and publish times are managed by the owning Observer, which also hands
// them to the metrics side when tracing is off.
type Tracer struct {
	cap     int
	recs    []Record
	dropped uint64
}

func newTracer(cap int) *Tracer {
	return &Tracer{cap: cap}
}

// add appends a record, honouring the capacity bound. The store doubles
// when full, clamped at the bound, so filling it to the bound copies each
// record at most once on average and never allocates past the bound.
func (t *Tracer) add(r Record) {
	if len(t.recs) == cap(t.recs) {
		if t.cap > 0 && len(t.recs) >= t.cap {
			t.dropped++
			return
		}
		n := max(2*len(t.recs), 64)
		if t.cap > 0 {
			n = min(n, t.cap)
		}
		recs := make([]Record, len(t.recs), n)
		copy(recs, t.recs)
		t.recs = recs
	}
	t.recs = append(t.recs, r)
}

// Records returns the recorded stages in emission order. The slice is the
// tracer's backing store; callers must not mutate it.
func (t *Tracer) Records() []Record { return t.recs }

// Dropped reports how many records the capacity bound discarded.
func (t *Tracer) Dropped() uint64 { return t.dropped }
