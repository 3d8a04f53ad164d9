package chaos

import (
	"fmt"
	"sort"

	"canec/internal/obs"
	"canec/internal/sim"
)

// Violation is one invariant breach found in a trace.
type Violation struct {
	// Check names the violated invariant.
	Check string
	// ID is the offending trace (0 for node-level violations).
	ID uint64
	// At is when the breach manifests.
	At sim.Time
	// Detail explains the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: id=%d at=%v: %s", v.Check, v.ID, v.At, v.Detail)
}

// CheckContext parameterises the invariant checkers.
type CheckContext struct {
	// Records is the obs lifecycle trace of the finished run.
	Records []obs.Record
	// Round is the calendar round length (0 disables round-based checks).
	Round sim.Duration
	// RecoveryRounds bounds how many rounds after node_up a slot-owning
	// node may need before its first HRT transmission (0 selects 5).
	RecoveryRounds int
	// AgentDownAt lists the times the acting binding agent's station was
	// crashed; AgentWindow bounds how long after each of them an
	// agent_takeover record must appear (0 disables the check).
	AgentDownAt []sim.Time
	AgentWindow sim.Duration
	// MasterDownAt / MasterWindow likewise bound master_takeover records,
	// and MasterWindow additionally gates the holdover-closure check:
	// follower holdover entered before a takeover must end once a new
	// master serves corrections.
	MasterDownAt []sim.Time
	MasterWindow sim.Duration
	// RestartWindow requires every node_restart that began at least this
	// long before the end of the trace to have reached node_up (0 disables
	// the check).
	RestartWindow sim.Duration
	// BusOffWindow bounds bus-off recovery: every bus_off record must be
	// answered by a bus_off_recovered for the same node within it (0
	// disables the check). Campaigns on confined buses derive it from the
	// 128×11-recessive-bit rule plus the supervisor's declared backoff.
	BusOffWindow sim.Duration
	// Attacks lists the scripted bus-off attack windows; they arm the
	// HRT-survival, victim-bus-off and attacker-isolation checks.
	Attacks []AttackWindow
	// GuardianArmed tells the attack checkers an isolating guardian was
	// installed, so the attacker must end up isolated.
	GuardianArmed bool
}

func (c CheckContext) recoveryRounds() int {
	if c.RecoveryRounds <= 0 {
		return 5
	}
	return c.RecoveryRounds
}

// outage is one [down, restart) interval of a station: the span in which
// it must be completely silent on the bus. up marks completed recovery.
type outage struct {
	down, restart, up sim.Time
	restarted         bool
	recovered         bool
}

// outages reconstructs each station's crash windows from the trace.
func outages(recs []obs.Record) map[int][]outage {
	m := make(map[int][]outage)
	for _, r := range recs {
		switch r.Stage {
		case obs.StageNodeDown:
			m[int(r.Node)] = append(m[int(r.Node)], outage{down: r.At, restart: -1, up: -1})
		case obs.StageNodeRestart:
			if w := last(m[int(r.Node)]); w != nil && !w.restarted {
				w.restart, w.restarted = r.At, true
			}
		case obs.StageNodeUp:
			if w := last(m[int(r.Node)]); w != nil && !w.recovered {
				w.up, w.recovered = r.At, true
			}
		}
	}
	return m
}

// stations returns m's station keys in ascending order, so that checks
// over stations emit in one order.
func stations[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	// order-free: collect, then sort below.
	for n := range m {
		keys = append(keys, n)
	}
	sort.Ints(keys)
	return keys
}

func last(ws []outage) *outage {
	if len(ws) == 0 {
		return nil
	}
	return &ws[len(ws)-1]
}

// silentIn reports whether node must be silent at t (strictly after a
// crash, before the matching restart began).
func silentIn(ws map[int][]outage, node int, t sim.Time) bool {
	for _, w := range ws[node] {
		end := w.restart
		if !w.restarted {
			return t > w.down
		}
		if t > w.down && t < end {
			return true
		}
	}
	return false
}

// checkAll runs every invariant checker and returns the union of
// violations in one order: by time, then by check in the order run below,
// then by station for the checks over stations, in trace order otherwise.
func checkAll(ctx CheckContext) []Violation {
	var out []Violation
	out = append(out, checkMonotonicTraces(ctx)...)
	out = append(out, checkHRTTermination(ctx)...)
	out = append(out, checkHRTOnTime(ctx)...)
	out = append(out, checkNoPhantoms(ctx)...)
	out = append(out, checkRecoveryBound(ctx)...)
	out = append(out, checkAgentFailover(ctx)...)
	out = append(out, checkMasterFailover(ctx)...)
	out = append(out, checkHoldoverClosed(ctx)...)
	out = append(out, checkRestartCompletes(ctx)...)
	out = append(out, checkBusOffRecovery(ctx)...)
	out = append(out, checkVictimBusOff(ctx)...)
	out = append(out, checkHRTSurvival(ctx)...)
	out = append(out, checkAttackerIsolated(ctx)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// checkMonotonicTraces asserts that every trace chain carries
// non-decreasing timestamps: an event cannot reach a later lifecycle stage
// at an earlier time.
func checkMonotonicTraces(ctx CheckContext) []Violation {
	var out []Violation
	lastAt := make(map[uint64]sim.Time)
	lastStage := make(map[uint64]obs.Stage)
	for _, r := range ctx.Records {
		if r.ID == 0 {
			continue
		}
		if prev, ok := lastAt[r.ID]; ok && r.At < prev {
			out = append(out, Violation{
				Check: "monotonic-trace", ID: r.ID, At: r.At,
				Detail: fmt.Sprintf("stage %s at %v precedes stage %s at %v", r.Stage, r.At, lastStage[r.ID], prev),
			})
		}
		lastAt[r.ID] = r.At
		lastStage[r.ID] = r.Stage
	}
	return out
}

// terminal reports whether a stage closes a trace.
func terminal(s obs.Stage) bool {
	switch s {
	case obs.StageDelivered, obs.StageDropped, obs.StageExpired, obs.StageShed, obs.StageTxAbort:
		return true
	}
	return false
}

// checkHRTTermination asserts that every published HRT event reaches a
// terminal stage: delivered at its deadline or closed by a clean local
// exception (dropped / tx_abort, including the node_crash drop emitted for
// events that die in a crashing node's queues). Events published within
// the last two rounds of the trace are excused as in flight at the end of
// the run, and an unterminated trace is excused when its publisher crashed
// within two rounds of the publish (the in-flight frame was truncated by
// the crash).
func checkHRTTermination(ctx CheckContext) []Violation {
	type trace struct {
		pubAt   sim.Time
		node    int
		done    bool
		subject uint64
	}
	traces := make(map[uint64]*trace)
	var order []uint64
	var end sim.Time
	for _, r := range ctx.Records {
		if r.At > end {
			end = r.At
		}
		if r.ID == 0 {
			continue
		}
		if r.Stage == obs.StagePublished && r.Class == obs.ClassHRT {
			traces[r.ID] = &trace{pubAt: r.At, node: int(r.Node), subject: r.Subject}
			order = append(order, r.ID)
			continue
		}
		if t, ok := traces[r.ID]; ok && terminal(r.Stage) {
			t.done = true
		}
	}
	// slot_missed records are the subscriber-side clean local exception: a
	// receiver detected the loss and raised SlotMissed. They carry trace ID
	// 0 (the receiver never saw the frame) but name the subject, so they
	// excuse an unterminated publish on that subject near the miss time.
	missed := make(map[uint64][]sim.Time)
	for _, r := range ctx.Records {
		if r.Stage == obs.StageMissed {
			missed[r.Subject] = append(missed[r.Subject], r.At)
		}
	}
	ws := outages(ctx.Records)
	grace := 2 * ctx.Round
	if grace == 0 {
		grace = 2 * sim.Millisecond
	}
	var out []Violation
	for _, id := range order {
		t := traces[id]
		if t.done || t.pubAt > end-grace {
			continue
		}
		if crashedWithin(ws, t.node, t.pubAt, t.pubAt+grace) {
			continue
		}
		if missedNear(missed[t.subject], t.pubAt, grace) {
			continue
		}
		out = append(out, Violation{
			Check: "hrt-terminates", ID: id, At: t.pubAt,
			Detail: fmt.Sprintf("HRT event on subject %#x published at %v by node %d never reached a terminal stage", t.subject, t.pubAt, t.node),
		})
	}
	return out
}

// missedNear reports whether a SlotMissed exception was raised for the
// subject within grace after the publish.
func missedNear(at []sim.Time, pubAt sim.Time, grace sim.Duration) bool {
	for _, t := range at {
		if t >= pubAt && t <= pubAt+grace {
			return true
		}
	}
	return false
}

// crashedWithin reports whether node went down inside [from, to].
func crashedWithin(ws map[int][]outage, node int, from, to sim.Time) bool {
	for _, w := range ws[node] {
		if w.down >= from && w.down <= to {
			return true
		}
	}
	return false
}

// checkHRTOnTime asserts that no HRT delivery was flagged late: the
// middleware marks a delivery "late" when it happens past the slot
// deadline by more than twice the clock precision, which breaks the
// paper's delivery-at-deadline guarantee. Late deliveries on subjects
// published by a scripted bus-off attack's victim inside the attack
// window are excused — retransmission storms delaying the victim's own
// traffic are the attack working, not a de-jittering bug.
func checkHRTOnTime(ctx CheckContext) []Violation {
	var publishers map[uint64]map[int]bool
	if len(ctx.Attacks) > 0 {
		publishers = hrtPublishers(ctx.Records)
	}
	var out []Violation
	for _, r := range ctx.Records {
		if r.Stage == obs.StageDelivered && r.Class == obs.ClassHRT && r.Detail == obs.DetailLate {
			if ctx.attackExcused(publishers, r.Subject, r.At) {
				continue
			}
			out = append(out, Violation{
				Check: "hrt-on-time", ID: r.ID, At: r.At,
				Detail: fmt.Sprintf("HRT delivery on subject %#x at %v flagged late", r.Subject, r.At),
			})
		}
	}
	return out
}

// checkNoPhantoms asserts crash silence: a station contributes no
// arbitration wins, transmission starts or successful transmissions
// strictly inside any of its [down, restart) windows (error frames are the
// legitimate artifact of a truncated in-flight frame), and no event is
// delivered off a transmission that happened while its sender was down.
func checkNoPhantoms(ctx CheckContext) []Violation {
	ws := outages(ctx.Records)
	var out []Violation
	phantomTxOK := make(map[uint64]bool)
	for _, r := range ctx.Records {
		switch r.Stage {
		case obs.StageArbWon, obs.StageTxStart, obs.StageTxOK, obs.StageRx:
			node := int(r.Node)
			if r.Stage == obs.StageRx {
				continue // receiver-side; sender silence is checked via tx stages
			}
			if silentIn(ws, node, r.At) {
				out = append(out, Violation{
					Check: "no-phantom", ID: r.ID, At: r.At,
					Detail: fmt.Sprintf("stage %s from node %d at %v inside its crash window", r.Stage, node, r.At),
				})
				if r.Stage == obs.StageTxOK {
					phantomTxOK[r.ID] = true
				}
			}
		case obs.StageDelivered:
			if r.ID != 0 && phantomTxOK[r.ID] {
				out = append(out, Violation{
					Check: "no-phantom", ID: r.ID, At: r.At,
					Detail: fmt.Sprintf("delivery at %v rides a transmission sent during the sender's crash window", r.At),
				})
			}
		}
	}
	return out
}

// takeoverWithin reports whether a record of the given stage appears in
// (after, after+window].
func takeoverWithin(recs []obs.Record, stage obs.Stage, after sim.Time, window sim.Duration) bool {
	for _, r := range recs {
		if r.Stage == stage && r.At > after && r.At <= after+window {
			return true
		}
	}
	return false
}

// checkAgentFailover asserts that each scripted crash of the acting binding
// agent is answered by a standby takeover within the heartbeat window.
func checkAgentFailover(ctx CheckContext) []Violation {
	if ctx.AgentWindow <= 0 {
		return nil
	}
	var out []Violation
	for _, down := range ctx.AgentDownAt {
		if !takeoverWithin(ctx.Records, obs.StageAgentTakeover, down, ctx.AgentWindow) {
			out = append(out, Violation{
				Check: "agent-failover", At: down,
				Detail: fmt.Sprintf("binding agent crashed at %v; no standby takeover within %v", down, ctx.AgentWindow),
			})
		}
	}
	return out
}

// checkMasterFailover asserts that each scripted crash of the acting time
// master is answered by a backup takeover within the failover window.
func checkMasterFailover(ctx CheckContext) []Violation {
	if ctx.MasterWindow <= 0 {
		return nil
	}
	var out []Violation
	for _, down := range ctx.MasterDownAt {
		if !takeoverWithin(ctx.Records, obs.StageMasterTakeover, down, ctx.MasterWindow) {
			out = append(out, Violation{
				Check: "master-failover", At: down,
				Detail: fmt.Sprintf("time master crashed at %v; no backup takeover within %v", down, ctx.MasterWindow),
			})
		}
	}
	return out
}

// checkHoldoverClosed asserts, on runs where master failover is exercised
// (MasterWindow set), that follower holdover is transient: every
// holdover_enter is followed by a holdover_exit, unless the node crashed
// after entering or entered too close to the end of the trace for a
// takeover plus sync round to have happened.
func checkHoldoverClosed(ctx CheckContext) []Violation {
	if ctx.MasterWindow <= 0 {
		return nil
	}
	openAt := make(map[int]sim.Time)
	var end sim.Time
	for _, r := range ctx.Records {
		if r.At > end {
			end = r.At
		}
		switch r.Stage {
		case obs.StageHoldoverEnter:
			openAt[int(r.Node)] = r.At
		case obs.StageHoldoverExit, obs.StageNodeDown:
			delete(openAt, int(r.Node))
		}
	}
	var out []Violation
	for _, node := range stations(openAt) {
		at := openAt[node]
		if at > end-2*ctx.MasterWindow {
			continue // entered too late in the run to demand re-convergence
		}
		out = append(out, Violation{
			Check: "holdover-closed", At: at,
			Detail: fmt.Sprintf("node %d entered holdover at %v and never re-converged on a master", node, at),
		})
	}
	return out
}

// checkRestartCompletes asserts that every restart reaches node_up: a
// station that began recovery at least RestartWindow before the end of the
// trace (and did not crash again mid-recovery) must have a node_up record.
func checkRestartCompletes(ctx CheckContext) []Violation {
	if ctx.RestartWindow <= 0 {
		return nil
	}
	var end sim.Time
	for _, r := range ctx.Records {
		if r.At > end {
			end = r.At
		}
	}
	var out []Violation
	ws := outages(ctx.Records)
	for _, node := range stations(ws) {
		for i, w := range ws[node] {
			if !w.restarted || w.recovered {
				continue
			}
			if i+1 < len(ws[node]) {
				continue // crashed again mid-recovery
			}
			if w.restart > end-ctx.RestartWindow {
				continue // still recovering at the end of the run
			}
			out = append(out, Violation{
				Check: "restart-completes", At: w.restart,
				Detail: fmt.Sprintf("node %d began recovery at %v but never reached node_up", node, w.restart),
			})
		}
	}
	return out
}

// checkRecoveryBound asserts that a recovered station that owned HRT slots
// before its crash resumes occupying them within RecoveryRounds rounds of
// node_up.
func checkRecoveryBound(ctx CheckContext) []Violation {
	if ctx.Round <= 0 {
		return nil
	}
	// Which nodes transmitted HRT before each of their outages, and when
	// did they first transmit HRT after recovery?
	hrtTxAt := make(map[int][]sim.Time)
	for _, r := range ctx.Records {
		if r.Stage == obs.StageTxOK && r.Band == obs.BandHRT {
			hrtTxAt[int(r.Node)] = append(hrtTxAt[int(r.Node)], r.At)
		}
	}
	bound := sim.Duration(ctx.recoveryRounds()) * ctx.Round
	ws := outages(ctx.Records)
	var out []Violation
	for _, node := range stations(ws) {
		for _, w := range ws[node] {
			if !w.recovered {
				continue
			}
			owned := false
			resumedBy := sim.Time(-1)
			for _, at := range hrtTxAt[node] {
				if at <= w.down {
					owned = true
				}
				if at >= w.up && (resumedBy < 0 || at < resumedBy) {
					resumedBy = at
				}
			}
			if !owned {
				continue
			}
			if resumedBy < 0 || resumedBy > w.up+bound {
				out = append(out, Violation{
					Check: "recovery-bound", At: w.up,
					Detail: fmt.Sprintf("node %d recovered at %v but did not resume HRT slot occupancy within %d rounds", node, w.up, ctx.recoveryRounds()),
				})
			}
		}
	}
	return out
}
