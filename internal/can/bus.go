package can

import (
	"canec/internal/sim"
)

// DefaultBitRate is the 1 Mbit/s rate assumed throughout the paper.
const DefaultBitRate = 1_000_000

// TraceKind labels bus trace events.
type TraceKind int

const (
	TraceTxStart      TraceKind = iota // a frame won arbitration and started
	TraceTxOK                          // transmitted without detected error
	TraceTxError                       // error frame signalled; will retransmit
	TraceTxAbort                       // abandoned (single-shot after error)
	TraceRx                            // delivered to one receiver
	TraceArbWin                        // this frame won the arbitration round
	TraceArbLoss                       // this frame competed and lost the round
	TraceGuardMute                     // the bus guardian muted a calendar-violating frame
	TraceGuardIsolate                  // the bus guardian isolated (muted) a whole controller

	// Fault-confinement transitions (emitted only with Bus.ConfineFaults).
	// They carry a zero Frame — the transition belongs to a controller, not
	// a transmission — with Sender set to the controller index and TEC/REC
	// snapshotting the counters after the transition.
	TraceErrorPassive  // controller crossed into error-passive
	TraceErrorActive   // controller returned to error-active
	TraceBusOff        // controller entered bus-off and detached
	TraceBusOffRecover // bus-off controller recovered and re-joined
)

// TraceEvent is emitted through Bus.Trace for observability and metrics.
// Frame.Tag carries the submitter's correlation tag, so hooks can stitch
// bus-level events into end-to-end event lifecycles. Frame is the
// transmission's shared frame, under the same contract as
// Controller.OnReceive: Frame.Data is read-only and valid during the
// hook only, since the bus reuses the request record that holds it, so a
// hook that keeps the bytes copies them (canecsim's -trace ring does).
type TraceEvent struct {
	Kind    TraceKind
	At      sim.Time
	Frame   Frame
	Sender  int // controller index
	Recv    int // controller index, TraceRx only
	Attempt int
	// TEC / REC snapshot the sender's error counters for the
	// fault-confinement trace kinds; zero otherwise.
	TEC, REC int
}

// Stats aggregates bus-level counters.
type Stats struct {
	FramesOK         uint64
	FramesError      uint64 // error-frame signalling events
	FramesAborted    uint64
	BusOffEvents     uint64       // controllers driven bus-off (fault confinement)
	Omissions        uint64       // inconsistent-omission deliveries suppressed
	BusyTime         sim.Duration // wire time consumed by frames + error frames
	ArbRounds        uint64
	IDRewrites       uint64 // priority promotions applied in controller buffers
	GuardianMuted    uint64 // transmissions muted by the bus guardian
	GuardianIsolated uint64 // controllers isolated (muted entirely) by the guardian
}

// GuardianVerdict is the bus guardian's decision about one pending frame.
type GuardianVerdict int

const (
	// GuardAllow lets the frame compete in arbitration.
	GuardAllow GuardianVerdict = iota
	// GuardMuteFrame drops this transmission request: the frame never
	// reaches the wire and its Done callback (if any) observes failure.
	GuardMuteFrame
	// GuardMuteNode drops the frame AND isolates the whole controller
	// (babbling-idiot containment, like a TTP bus guardian cutting the
	// transmit path). The controller stays muted until Reattach.
	GuardMuteNode
)

// Guardian vets pending frames before they may compete in arbitration. A
// guardian is the classic defense against the babbling-idiot failure mode
// of event-triggered buses: a node transmitting at the reserved top
// priority outside its calendar slots would starve every hard real-time
// channel, so an independent instance checks each transmission against
// the static schedule. Implementations must be deterministic.
type Guardian interface {
	Judge(f Frame, sender int, at sim.Time) GuardianVerdict
}

// Bus is the shared CAN medium connecting a set of Controllers.
//
// The bus is event-driven: whenever it is idle and at least one controller
// has a pending frame, an arbitration event resolves at the current instant
// and the winning frame occupies the bus for its exact stuffed wire length.
// Frames submitted while the bus is busy join the next arbitration, exactly
// as in CAN.
type Bus struct {
	K        *sim.Kernel
	BitRate  int
	Injector Injector
	Trace    func(TraceEvent)
	// TraceArbitration additionally emits TraceArbWin/TraceArbLoss events
	// for every arbitration round through Trace: one win per driving frame
	// (duplicate-ID partners included) and one loss per competing
	// controller whose best frame stayed behind. Off by default because it
	// scans all controllers on every round.
	TraceArbitration bool
	// ConfineFaults enables CAN 2.0 fault confinement: TEC/REC error
	// counters and bus-off with automatic recovery. Off by default — the
	// paper's experiments assume error-active controllers.
	ConfineFaults bool
	// Guardian, if non-nil, vets every pending frame before it may enter
	// arbitration (babbling-idiot defense). Off by default — the paper
	// assumes well-behaved middleware on every node.
	Guardian Guardian
	// OnErrorState, if non-nil, is invoked (in kernel context) whenever a
	// controller's fault-confinement state changes. The lifecycle's bus-off
	// recovery supervisor hooks it to schedule supervised re-joins.
	OnErrorState func(ctrl int, old, new ErrorState, at sim.Time)

	ctrls      []*Controller
	busy       bool
	arbPending bool
	stats      Stats

	// current transmission; curTied holds same-ID collision partners and
	// curDur is the frame's wire time.
	cur        *txReq
	curSender  int
	curTied    []*txReq
	curTiedIdx []int
	curDur     sim.Duration
	// curCrashed is set when the sender of the in-flight frame detached
	// (crashed) mid-transmission: the truncated frame ends in an error
	// frame at every receiver, exactly as on a real bus.
	curCrashed bool

	// The kernel callbacks, bound once: scheduling a round, a completion
	// or the end of an error frame allocates no method value per frame.
	arbitrateFn, completeFn, idleFn func()

	// free lists the request records no controller holds (txReq.next
	// links them); reqs counts the records ever made.
	free *txReq
	reqs int
}

// NewBus creates a bus on the given kernel. bitRate <= 0 selects the
// default 1 Mbit/s.
func NewBus(k *sim.Kernel, bitRate int) *Bus {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	b := &Bus{K: k, BitRate: bitRate, Injector: NoFaults{}}
	b.arbitrateFn, b.completeFn, b.idleFn = b.arbitrate, b.complete, b.idle
	return b
}

// Stats returns a copy of the accumulated counters.
func (b *Bus) Stats() Stats { return b.stats }

// Controllers returns the number of attached controllers.
func (b *Bus) Controllers() int { return len(b.ctrls) }

// Controller returns the i-th attached controller.
func (b *Bus) Controller(i int) *Controller { return b.ctrls[i] }

// BitDuration returns the duration of n bit times on this bus.
func (b *Bus) BitDuration(n int) sim.Duration { return BitTime(n, b.BitRate) }

// Attach creates and registers a controller with the given 7-bit node
// number. The returned controller index equals its position on the bus.
func (b *Bus) Attach(txnode TxNode) *Controller {
	c := &Controller{bus: b, index: len(b.ctrls), txnode: txnode, autoRecover: true}
	b.ctrls = append(b.ctrls, c)
	return c
}

// newReq takes a request record from the free list, or makes one.
func (b *Bus) newReq() *txReq {
	r := b.free
	if r == nil {
		b.reqs++
		return &txReq{}
	}
	b.free = r.next
	*r = txReq{gen: r.gen}
	return r
}

// release puts a request that left its controller back on the free list,
// after its Done returned. The records of the current transmission wait
// for the end of complete, which still reads them.
func (b *Bus) release(r *txReq) {
	if r.held {
		return
	}
	r.gen++
	r.done = nil
	b.free, r.next = r, b.free
}

// kick requests an arbitration round at the current instant if the bus is
// idle. Multiple kicks in the same instant coalesce into one round, and the
// round runs *after* all other events at this instant, so every frame
// submitted "now" participates — mirroring CAN, where all nodes that are
// ready when the bus turns idle join the same arbitration phase.
func (b *Bus) kick() {
	if b.busy || b.arbPending {
		return
	}
	b.arbPending = true
	b.K.After(0, b.arbitrateFn)
}

// arbitrate picks the smallest-ID pending frame across all controllers and
// starts its transmission.
func (b *Bus) arbitrate() {
	b.arbPending = false
	if b.busy {
		return
	}
	prof := b.K.Probe()
	var pt0 int64
	if prof != nil {
		pt0 = sim.ProbeNow()
	}
	var win *txReq
	winIdx := -1
	var tied []*txReq // duplicate-ID collision partners
	var tiedIdx []int
	for i, c := range b.ctrls {
		if c.muted {
			continue
		}
		if r := b.guardedBest(c, i); r != nil {
			switch {
			case win == nil || r.frame.ID < win.frame.ID:
				win, winIdx = r, i
				tied, tiedIdx = nil, nil
			case r.frame.ID == win.frame.ID:
				// CAN requires unique identifiers. Two nodes driving the
				// same ID pass arbitration together; the first differing
				// payload/CRC bit is a bit error, so the whole attempt ends
				// in an error frame for everyone. The dynamic configuration
				// protocol relies on this collision signal (single-shot
				// requests observe the failure and re-randomize).
				tied = append(tied, r)
				tiedIdx = append(tiedIdx, i)
			}
		}
	}
	if win == nil {
		if prof != nil {
			prof.StageNs(sim.ProbeArbitration, sim.ProbeClassNone, sim.ProbeNow()-pt0)
		}
		return
	}
	// The winner's wire length is pure in its frame, so it is computed
	// here: one clock read ends the arbitration window and starts the
	// codec window.
	if prof != nil {
		pt1 := sim.ProbeNow()
		prof.StageNs(sim.ProbeArbitration, sim.ProbeClassNone, pt1-pt0)
		pt0 = pt1
	}
	bits := WireBits(win.frame)
	if prof != nil {
		prof.StageNs(sim.ProbeCodec, sim.ProbeClassNone, sim.ProbeNow()-pt0)
	}
	b.stats.ArbRounds++
	b.busy = true
	b.cur = win
	b.curSender = winIdx
	b.curTied = tied
	b.curTiedIdx = tiedIdx
	win.inFlight, win.held = true, true
	win.attempt++
	for _, r := range tied {
		r.inFlight, r.held = true, true
		r.attempt++
	}
	if b.Trace != nil {
		if b.TraceArbitration {
			b.Trace(TraceEvent{Kind: TraceArbWin, At: b.K.Now(), Frame: win.frame, Sender: winIdx, Attempt: win.attempt})
			for i, r := range tied {
				b.Trace(TraceEvent{Kind: TraceArbWin, At: b.K.Now(), Frame: r.frame, Sender: tiedIdx[i], Attempt: r.attempt})
			}
			for i, c := range b.ctrls {
				if c.muted {
					continue
				}
				if r := c.best(); r != nil && !r.inFlight {
					b.Trace(TraceEvent{Kind: TraceArbLoss, At: b.K.Now(), Frame: r.frame, Sender: i, Attempt: r.attempt})
				}
			}
		}
		b.Trace(TraceEvent{Kind: TraceTxStart, At: b.K.Now(), Frame: win.frame, Sender: winIdx, Attempt: win.attempt})
	}
	b.curDur = b.BitDuration(bits)
	b.K.After(b.curDur, b.completeFn)
}

// guardedBest returns the controller's best pending frame after the bus
// guardian (if installed) vetted it. Muted frames are removed and their
// submitters observe failure; a GuardMuteNode verdict additionally
// isolates the controller for the rest of the run (until Reattach).
func (b *Bus) guardedBest(c *Controller, idx int) *txReq {
	for {
		r := c.best()
		if r == nil || b.Guardian == nil {
			return r
		}
		verdict := b.Guardian.Judge(r.frame, idx, b.K.Now())
		if verdict == GuardAllow {
			return r
		}
		c.remove(r)
		b.stats.GuardianMuted++
		if b.Trace != nil {
			b.Trace(TraceEvent{Kind: TraceGuardMute, At: b.K.Now(), Frame: r.frame, Sender: idx, Attempt: r.attempt})
		}
		if r.done != nil {
			r.done(false, b.K.Now())
		}
		if verdict == GuardMuteNode {
			c.muted = true
			b.stats.GuardianIsolated++
			if b.Trace != nil {
				b.Trace(TraceEvent{Kind: TraceGuardIsolate, At: b.K.Now(), Frame: r.frame, Sender: idx, Attempt: r.attempt})
			}
			b.release(r)
			return nil
		}
		b.release(r)
	}
}

// complete finishes the in-flight transmission, consulting the fault
// injector for its outcome. The transmission's records are released at
// its end, whichever callbacks removed them on the way.
func (b *Bus) complete() {
	req := b.cur
	sender := b.curSender
	tied, tiedIdx := b.curTied, b.curTiedIdx
	b.cur, b.curTied, b.curTiedIdx = nil, nil, nil
	req.inFlight = false
	for _, r := range tied {
		r.inFlight = false
	}
	b.stats.BusyTime += b.curDur

	fault := b.Injector.Judge(req.frame, sender, req.attempt, b.K.Now(), b.K.RNG())
	if len(tied) > 0 {
		// A duplicate-ID collision always corrupts the attempt.
		fault = Fault{Kind: FaultError}
	}
	if b.curCrashed {
		// The transmitter detached mid-frame: the wire saw a truncated
		// frame, which every receiver signals as an error. The request was
		// already flushed by Detach, so nothing is retransmitted.
		b.curCrashed = false
		fault = Fault{Kind: FaultError}
	}
	if b.ConfineFaults {
		if fault.Kind == FaultError {
			b.confineTxError(sender)
		} else {
			b.confineTxSuccess(sender, fault.Victims)
		}
	}
	switch fault.Kind {
	case FaultError:
		b.stats.FramesError++
		if b.Trace != nil {
			b.Trace(TraceEvent{Kind: TraceTxError, At: b.K.Now(), Frame: req.frame, Sender: sender, Attempt: req.attempt})
		}
		// The error frame occupies the bus; afterwards the frame is
		// retransmitted automatically unless the request is single-shot.
		errDur := b.BitDuration(ErrorOverheadBits)
		b.stats.BusyTime += errDur
		abortIfSingleShot := func(r *txReq, idx int) {
			if !r.singleShot || r.removed {
				// removed: fault confinement already flushed it (bus-off).
				return
			}
			b.ctrls[idx].remove(r)
			b.stats.FramesAborted++
			if b.Trace != nil {
				b.Trace(TraceEvent{Kind: TraceTxAbort, At: b.K.Now(), Frame: r.frame, Sender: idx, Attempt: r.attempt})
			}
			if r.done != nil {
				r.done(false, b.K.Now())
			}
		}
		abortIfSingleShot(req, sender)
		for i, r := range tied {
			abortIfSingleShot(r, tiedIdx[i])
		}
		b.unhold(req, tied)
		b.K.After(errDur, b.idleFn)
		return

	case FaultOmission:
		b.stats.FramesOK++ // the sender and the bus observe success
		if b.Trace != nil {
			b.Trace(TraceEvent{Kind: TraceTxOK, At: b.K.Now(), Frame: req.frame, Sender: sender, Attempt: req.attempt})
		}
		b.deliver(req, sender, fault.Victims)

	default:
		b.stats.FramesOK++
		if b.Trace != nil {
			b.Trace(TraceEvent{Kind: TraceTxOK, At: b.K.Now(), Frame: req.frame, Sender: sender, Attempt: req.attempt})
		}
		b.deliver(req, sender, nil)
	}

	b.ctrls[sender].remove(req)
	if req.done != nil {
		req.done(true, b.K.Now())
	}
	b.unhold(req, nil)
	b.idle()
}

// unhold ends the current transmission's claim on its records and
// releases those that left their controller meanwhile.
func (b *Bus) unhold(req *txReq, tied []*txReq) {
	req.held = false
	if req.removed {
		b.release(req)
	}
	for _, r := range tied {
		r.held = false
		if r.removed {
			b.release(r)
		}
	}
}

// idle returns the bus to idle — after a frame or at the end of an error
// frame — and starts the next arbitration if anything is pending.
func (b *Bus) idle() {
	b.busy = false
	b.kick()
}

// deliver hands the frame to every operational receiver except the sender
// and any inconsistent-omission victims. All of them get the request's
// one frame: CAN is a broadcast medium, every receiver observes the same
// transmitted value.
func (b *Bus) deliver(req *txReq, sender int, victims map[int]bool) {
	now := b.K.Now()
	for i, c := range b.ctrls {
		if i == sender || c.muted {
			continue
		}
		if victims[i] {
			b.stats.Omissions++
			continue
		}
		if !c.accepts(req.frame.ID) {
			continue
		}
		if b.Trace != nil {
			b.Trace(TraceEvent{Kind: TraceRx, At: now, Frame: req.frame, Sender: sender, Recv: i, Attempt: req.attempt})
		}
		if c.OnReceive != nil {
			c.OnReceive(req.frame, now)
		}
	}
}
