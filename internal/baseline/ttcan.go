package baseline

import (
	"errors"
	"fmt"

	"canec/internal/can"
	"canec/internal/sim"
)

// TTCAN models the time-triggered CAN profile the paper compares against
// (§3.2, §4): the basic cycle is divided into exclusive windows — each
// owned by one message of one node, transmitted single-shot exactly at
// the window start — and arbitration windows where event-driven traffic
// contends normally. The two properties the paper criticises are modelled
// faithfully:
//
//  1. no reclamation: an unused or partially used exclusive window stays
//     idle — no other node may start a transmission inside it;
//  2. single-shot: a corrupted transmission in an exclusive window is NOT
//     retransmitted (retransmission would slide into the next window), so
//     omissions must be tolerated by statically reserving extra windows.
type TTCAN struct {
	K   *sim.Kernel
	Bus *can.Bus
	// Cycle is the basic cycle length.
	Cycle sim.Duration
	// Windows, in start order, validated by Start.
	Windows []TTWindow

	arbQueue []ttArb
	sending  bool
	// Exclusive windows that carried, skipped or lost their message.
	exclUsed, exclIdle, misses uint64

	// pending exclusive messages: one slot per window index.
	pending map[int]*can.Frame
}

// TTWindow is one window of the basic cycle.
type TTWindow struct {
	// Start offset within the cycle; Len is the window length.
	Start, Len sim.Duration
	// Exclusive windows carry exactly one pre-planned frame of one owner.
	Exclusive bool
	// Owner is the controller index allowed to transmit (exclusive only).
	Owner int
}

type ttArb struct {
	sender int
	frame  can.Frame
	done   func(ok bool, at sim.Time)
}

// NewTTCAN builds the network on an existing kernel/bus.
func NewTTCAN(k *sim.Kernel, bus *can.Bus, cycle sim.Duration) *TTCAN {
	return &TTCAN{K: k, Bus: bus, Cycle: cycle, pending: make(map[int]*can.Frame)}
}

// AddExclusive appends an exclusive window for owner.
func (n *TTCAN) AddExclusive(start, length sim.Duration, owner int) {
	n.Windows = append(n.Windows, TTWindow{Start: start, Len: length, Exclusive: true, Owner: owner})
}

// AddArbitration appends an arbitration window.
func (n *TTCAN) AddArbitration(start, length sim.Duration) {
	n.Windows = append(n.Windows, TTWindow{Start: start, Len: length})
}

// SetExclusive stages the frame for the window with the given index; it
// is transmitted at the window's next occurrence. Staging again before
// that overwrites (freshest value semantics).
func (n *TTCAN) SetExclusive(window int, f can.Frame) {
	fc := f.Clone()
	n.pending[window] = &fc
}

// SubmitAsync queues a frame for the arbitration windows.
func (n *TTCAN) SubmitAsync(sender int, f can.Frame, done func(ok bool, at sim.Time)) {
	n.arbQueue = append(n.arbQueue, ttArb{sender: sender, frame: f.Clone(), done: done})
}

// Start validates the schedule and begins cycling.
func (n *TTCAN) Start() error {
	for i := 1; i < len(n.Windows); i++ {
		if n.Windows[i].Start < n.Windows[i-1].Start+n.Windows[i-1].Len {
			return fmt.Errorf("baseline: TTCAN windows %d and %d overlap", i-1, i)
		}
	}
	if len(n.Windows) > 0 {
		last := n.Windows[len(n.Windows)-1]
		if last.Start+last.Len > n.Cycle {
			return errors.New("baseline: TTCAN window beyond basic cycle")
		}
	}
	for wi := range n.Windows {
		n.runWindow(wi, 0)
	}
	return nil
}

// runWindow fires window wi in every cycle.
func (n *TTCAN) runWindow(wi int, cycle int64) {
	w := n.Windows[wi]
	at := sim.Time(cycle)*n.Cycle + w.Start
	n.K.At(at, func() {
		if w.Exclusive {
			n.fireExclusive(wi)
		} else {
			n.fireArbitration(w)
		}
		n.runWindow(wi, cycle+1)
	})
}

// fireExclusive transmits the staged frame, single-shot.
func (n *TTCAN) fireExclusive(wi int) {
	f := n.pending[wi]
	if f == nil {
		n.exclIdle++
		return
	}
	delete(n.pending, wi)
	n.exclUsed++
	n.Bus.Controller(n.Windows[wi].Owner).Submit(*f, can.SubmitOpts{
		SingleShot: true,
		Done: func(ok bool, _ sim.Time) {
			if !ok {
				n.misses++
			}
		},
	})
}

// fireArbitration releases queued event-driven frames into the window,
// one at a time, as long as a worst-case frame still fits before the
// window closes — TTCAN's rule for keeping arbitration traffic out of the
// following exclusive window.
func (n *TTCAN) fireArbitration(w TTWindow) {
	endAt := n.K.Now() + w.Len
	worst := n.Bus.BitDuration(can.WorstCaseBits(can.MaxPayload))
	var sendNext func()
	sendNext = func() {
		if n.sending || len(n.arbQueue) == 0 {
			return
		}
		if n.K.Now()+worst > endAt {
			return // would bleed into the next exclusive window
		}
		job := n.arbQueue[0]
		n.arbQueue = n.arbQueue[1:]
		n.sending = true
		n.Bus.Controller(job.sender).Submit(job.frame, can.SubmitOpts{Done: func(ok bool, at sim.Time) {
			n.sending = false
			if job.done != nil {
				job.done(ok, at)
			}
			sendNext()
		}})
	}
	sendNext()
}
