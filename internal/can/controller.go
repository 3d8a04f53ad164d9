package can

import (
	"fmt"

	"canec/internal/sim"
)

// txReq is a pending transmission request inside a controller.
// frame.Data slices data, the submitted payload's private copy, which
// nothing writes while the request is out: every receiver can share the
// frame.
//
// Records are recycled through the bus's free list (Bus.release): one
// goes back at exactly one point, once it has left its controller and
// its Done, if any, has returned. gen counts the reuses, so a TxHandle
// taken before the record went back no longer matches it.
type txReq struct {
	frame      Frame
	data       [MaxPayload]byte
	attempt    int
	gen        uint64
	inFlight   bool
	singleShot bool
	removed    bool
	// held marks the records of the bus's current transmission, from
	// arbitration to the end of Bus.complete: complete reads them after
	// callbacks that may remove them, so their release waits for it.
	held bool
	done func(ok bool, at sim.Time)
	next *txReq // next record on the bus's free list
}

// TxHandle identifies a pending transmission so the middleware can rewrite
// its identifier (soft real-time priority promotion) or abort it
// (validity expiration). A handle outlives its request harmlessly: once
// the request has left the controller, Update and Abort on it return
// false, even after its record carries another frame.
type TxHandle struct {
	r   *txReq
	gen uint64
}

// live returns the handle's request while it still names it.
func (h TxHandle) live() *txReq {
	if h.r == nil || h.r.gen != h.gen {
		return nil
	}
	return h.r
}

// Controller models a full-CAN controller with message filtering and a
// transmit buffer that supports identifier rewrite. The abstraction
// corresponds to a controller with sufficiently many transmit mailboxes;
// the cost of each identifier rewrite — which on real hardware requires
// the host CPU to cancel and re-enqueue the mailbox — is counted in
// Bus.Stats().IDRewrites so the promotion overhead the paper discusses
// (§3.4, evaluated in [16]) stays observable.
type Controller struct {
	bus    *Bus
	index  int
	txnode TxNode
	muted  bool

	// Fault confinement (active when Bus.ConfineFaults is set).
	tec, rec    int
	busOff      bool
	autoRecover bool

	pending []*txReq

	// OnReceive is invoked for every frame that passes the acceptance
	// filter. The callback runs in kernel context; it must not block.
	// f is the one frame of the transmission, shared with every other
	// receiver and with Bus.Trace: f.Data must not be mutated. It lives
	// in the sender's request record, which the bus reuses for a later
	// frame once the transmission has ended, so a receiver that keeps
	// the bytes past the callback copies them.
	OnReceive func(f Frame, at sim.Time)

	// filters is the acceptance filter set, one bit per etag: if nil, all
	// frames are accepted; otherwise a frame is accepted when its etag's
	// bit is set. This models the paper's "dynamic binding" optimisation:
	// subject filtering is done by the communication controller hardware,
	// not the node CPU (§2.1).
	filters *etagSet
}

// etagSet is a bitset over the 14-bit etag space (2 KiB).
type etagSet [(MaxEtag + 1) / 64]uint64

// Node returns the controller's 7-bit transmit node number.
func (c *Controller) Node() TxNode { return c.txnode }

// SetNode reconfigures the controller's transmit node number. The dynamic
// configuration protocol uses this once a node's final TxNode has been
// assigned; it panics while transmissions are pending because their
// identifiers embed the old number.
func (c *Controller) SetNode(n TxNode) {
	if len(c.pending) > 0 {
		panic("can: SetNode with pending transmissions")
	}
	c.txnode = n
}

// Mute silences the controller (models a crashed or disconnected node).
// Pending transmissions are kept but do not participate in arbitration.
func (c *Controller) Mute(m bool) {
	c.muted = m
	if !m {
		c.bus.kick()
	}
}

// Muted reports whether the controller is muted.
func (c *Controller) Muted() bool { return c.muted }

// Detach models a whole-node crash: the controller is muted, every queued
// transmission is silently discarded (the host CPU that would observe the
// Done callbacks is gone), and a frame currently on the wire is truncated
// so receivers see an error frame instead of a valid transmission. Filters
// are reset to the power-up default so a later Reattach starts from a
// clean controller, exactly like a cold boot.
func (c *Controller) Detach() {
	c.muted = true
	if c.bus.cur != nil && c.bus.curSender == c.index {
		c.bus.curCrashed = true
	}
	for _, r := range c.pending {
		r.removed = true
		c.bus.release(r)
	}
	c.pending = nil
	c.filters = nil
}

// Reattach reverses Detach (node restart): the controller re-joins the
// bus with empty buffers and open filters, and pending arbitration is
// kicked so waiting traffic proceeds. The middleware is expected to
// reconfigure filters and node number before submitting traffic.
func (c *Controller) Reattach() {
	c.muted = false
	c.bus.kick()
}

// AddFilter admits frames carrying the given etag. The first call switches
// the controller from promiscuous to selective reception.
func (c *Controller) AddFilter(e Etag) {
	if c.filters == nil {
		c.filters = new(etagSet)
	}
	if e <= MaxEtag { // a wider value matches no identifier
		c.filters[e/64] |= 1 << (e % 64)
	}
}

// RemoveFilter stops admitting the etag. Removing the last filter leaves
// the controller accepting nothing (Detach resets it to open).
func (c *Controller) RemoveFilter(e Etag) {
	if c.filters != nil && e <= MaxEtag {
		c.filters[e/64] &^= 1 << (e % 64)
	}
}

// accepts applies the acceptance filter.
func (c *Controller) accepts(id ID) bool {
	if c.filters == nil {
		return true
	}
	e := id.Etag()
	return c.filters[e/64]>>(e%64)&1 != 0
}

// SubmitOpts configures a transmission request.
type SubmitOpts struct {
	// SingleShot disables automatic retransmission after a detected error,
	// as TTCAN mandates for time-triggered windows.
	SingleShot bool
	// Done, if non-nil, is called once when the request leaves the
	// controller: ok=true after successful (sender-observed) transmission,
	// ok=false when aborted.
	Done func(ok bool, at sim.Time)
}

// Submit queues a frame for transmission and triggers arbitration if the
// bus is idle. It copies f.Data into a request record taken from the
// bus's free list, so the caller may reuse its buffer as soon as Submit
// returns. It panics on invalid frames: the middleware owns frame
// construction, so an invalid frame is a programming error, not a
// runtime condition.
func (c *Controller) Submit(f Frame, opts SubmitOpts) TxHandle {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	if f.ID.TxNode() != c.txnode {
		panic(fmt.Sprintf("can: node %d submitting frame with TxNode %d", c.txnode, f.ID.TxNode()))
	}
	r := c.bus.newReq()
	r.frame = Frame{ID: f.ID, Data: r.data[:copy(r.data[:], f.Data)], Tag: f.Tag,
		PublishedAt: f.PublishedAt, Origin: f.Origin}
	r.singleShot, r.done = opts.SingleShot, opts.Done
	c.pending = append(c.pending, r)
	c.bus.kick()
	return TxHandle{r: r, gen: r.gen}
}

// Update rewrites the identifier of a pending request (priority
// promotion). It fails while the frame is on the wire or after it left the
// controller. Each successful rewrite increments Bus.Stats().IDRewrites.
func (c *Controller) Update(h TxHandle, id ID) bool {
	r := h.live()
	if r == nil || r.removed || r.inFlight {
		return false
	}
	if id == r.frame.ID {
		return true
	}
	if id.TxNode() != c.txnode {
		panic(fmt.Sprintf("can: rewrite changes TxNode %d -> %d", c.txnode, id.TxNode()))
	}
	r.frame.ID = id
	c.bus.stats.IDRewrites++
	return true
}

// Abort removes a pending request (e.g. validity expired). It fails while
// the frame is on the wire or after it left the controller.
func (c *Controller) Abort(h TxHandle) bool {
	r := h.live()
	if r == nil || r.removed || r.inFlight {
		return false
	}
	c.remove(r)
	c.bus.release(r)
	return true
}

// Pending reports the number of queued (not yet completed) requests.
func (c *Controller) Pending() int { return len(c.pending) }

// best returns the pending request with the numerically smallest ID — the
// frame this controller would drive into arbitration.
func (c *Controller) best() *txReq {
	var best *txReq
	for _, r := range c.pending {
		if best == nil || r.frame.ID < best.frame.ID {
			best = r
		}
	}
	return best
}

// remove deletes a request from the pending set.
func (c *Controller) remove(r *txReq) {
	for i, p := range c.pending {
		if p == r {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			r.removed = true
			return
		}
	}
}
