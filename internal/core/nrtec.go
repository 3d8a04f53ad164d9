package core

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/frag"
	"canec/internal/obs"
	"canec/internal/sim"
)

// NRTEC is a non real-time event channel (§2.2.3): a fixed application-
// chosen priority inside the NRT band (the middleware only accepts
// priorities within the predefined range), no timeliness machinery, and
// optional fragmentation so configuration and maintenance data — memory
// images, electronic data sheets, test patterns — can be published as one
// large event spread over a chain of CAN frames.
type NRTEC struct {
	ch *channelState
}

// NRTEC returns the non real-time channel for a subject on this node.
func (mw *Middleware) NRTEC(subject binding.Subject) (*NRTEC, error) {
	ch, err := mw.channel(subject, NRT)
	if err != nil {
		return nil, err
	}
	return &NRTEC{ch: ch}, nil
}

// Announce prepares the channel for publication. The priority is fixed at
// announcement time and must lie inside the NRT band; fragmentation is an
// inherent channel attribute declared here (§2.2.3).
func (c *NRTEC) Announce(attrs ChannelAttrs, exc ExceptionHandler) error {
	ch := c.ch
	mw := ch.mw
	if mw.stopped {
		return errStopped
	}
	if attrs.Prio == 0 {
		attrs.Prio = mw.bands.NRTMax
	}
	if attrs.Prio < mw.bands.NRTMin || attrs.Prio > mw.bands.NRTMax {
		return fmt.Errorf("%w: %d not in [%d,%d]", errPrioOutOfBand,
			attrs.Prio, mw.bands.NRTMin, mw.bands.NRTMax)
	}
	if !attrs.Fragmentation && (attrs.Payload < 0 || attrs.Payload > can.MaxPayload) {
		return fmt.Errorf("%w: NRT payload %d (max %d without fragmentation)",
			errPayload, attrs.Payload, can.MaxPayload)
	}
	if !attrs.Fragmentation && attrs.Payload == 0 {
		attrs.Payload = can.MaxPayload
	}
	if err := mw.admissionRequest(ch, attrs); err != nil {
		return err
	}
	ch.attrs = attrs
	ch.pubExc = exc
	ch.announced = true
	if ch.nrtDone == nil {
		ch.nrtDone = ch.nrtSent
	}
	return nil
}

// CancelPublication withdraws the announcement; queued fragment chains
// are dropped.
func (c *NRTEC) CancelPublication() {
	c.ch.dropNRT()
	c.ch.announced = false
	c.ch.mw.admissionRelease(c.ch)
}

// Publish sends an event. On a fragmenting channel the payload may be
// arbitrarily long; it is split into a chain of frames transmitted
// back-to-back at the channel's fixed priority, so bulk transfers consume
// exactly the bandwidth that HRT/SRT traffic leaves over.
func (c *NRTEC) Publish(ev Event) error {
	prof := c.ch.mw.K.Probe()
	if prof == nil {
		return c.publish(ev)
	}
	pt0 := sim.ProbeNow()
	err := c.publish(ev)
	prof.StageNs(sim.ProbeEnqueue, sim.ProbeClassNRT, sim.ProbeNow()-pt0)
	return err
}

func (c *NRTEC) publish(ev Event) error {
	ch := c.ch
	mw := ch.mw
	if !ch.announced {
		return ErrNotAnnounced
	}
	if mw.stopped {
		return errStopped
	}
	ev.Attrs.Timestamp = mw.LocalTime()
	if !ch.attrs.Fragmentation && len(ev.Payload) > ch.attrs.Payload {
		return fmt.Errorf("%w: %d > %d (announce with Fragmentation for bulk)",
			errPayload, len(ev.Payload), ch.attrs.Payload)
	}
	// Unfragmented NRT payloads still travel as single-frame transport
	// messages so the receiver can tell them from fragment chains. The
	// chain runs over a private copy: the caller may reuse its buffer.
	// The copy goes into the spare buffer a finished message left in the
	// queue's next slot, when that one is large enough.
	var buf []byte
	if q := ch.nrtQueue; len(q) < cap(q) {
		buf = q[:len(q)+1][len(q)].buf
	}
	buf = append(buf[:0], ev.Payload...)
	chain, err := frag.NewChain(buf)
	if err != nil {
		return err
	}
	ev.publishedAt = mw.K.Now()
	if ev.traceID == 0 {
		ev.traceID = mw.Obs.Begin(NRT.Obs(), mw.node.Index, uint64(ch.subject), ev.publishedAt)
	} else {
		mw.Obs.Adopt(ev.traceID, NRT.Obs(), mw.node.Index, uint64(ch.subject), ev.publishedAt)
	}
	// Chains are sent strictly one frame at a time — each fragment is
	// submitted when its predecessor completes — so a bulk transfer never
	// floods the controller and interleaves fairly with other traffic at
	// every arbitration point.
	ch.nrtQueue = append(ch.nrtQueue, nrtMsg{chain: chain, buf: buf,
		frame: ev.frame(can.MakeID(ch.attrs.Prio, mw.node.Ctrl.Node(), ch.etag), nil)})
	if !ch.nrtBusy {
		ch.sendNext()
	}
	mw.counters.PublishedNRT++
	if mw.Obs.Enabled() {
		mw.Obs.Emit(ev.traceID, obs.StageEnqueued, NRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), obs.Fragments(frag.FrameCount(len(ev.Payload))))
	}
	return nil
}

// nrtMsg is one queued NRT message: the cursor over its fragments, the
// message's private copy the cursor reads, and the frame every fragment
// goes out as but for its data: the identifier at the channel's fixed
// priority and the event's metadata. The queue's tail slots, past its
// length, hold spare copy buffers: popNRT leaves the finished message's
// buffer in the slot it vacates, and the next publish copies into it.
// The controller copies every fragment it is given, so no frame refers
// to a buffer once its message is popped.
type nrtMsg struct {
	chain frag.Chain
	buf   []byte
	frame can.Frame
}

// sendNext submits the next fragment of the head message.
func (ch *channelState) sendNext() {
	mw := ch.mw
	if mw.stopped || len(ch.nrtQueue) == 0 {
		ch.nrtBusy = false
		return
	}
	// Error-passive degradation: a sender whose error counters crossed the
	// passive threshold is one error burst away from bus-off, so it stops
	// burning bus time on bulk transfers — queued NRT chains are shed until
	// the controller is error-active again, leaving the remaining error
	// budget to the HRT calendar and SRT band. With fault confinement off
	// the state is always error-active and this is a single comparison.
	if mw.node.Ctrl.State() == can.ErrorPassive {
		shed := ch.nrtQueue
		ch.nrtQueue = nil
		ch.nrtBusy = false
		for _, m := range shed {
			mw.counters.Shed++
			ch.raisePub(Exception{
				Kind: ExcLoadShed, Subject: ch.subject,
				At: mw.K.Now(), note: "error-passive: NRT shed to protect RT bands",
			})
			mw.Obs.Emit(m.frame.Tag, obs.StageShed, NRT.Obs(), mw.node.Index,
				uint64(ch.subject), mw.K.Now(), obs.DetailErrorPassive)
		}
		return
	}
	m := &ch.nrtQueue[0]
	var buf [8]byte // Submit copies the fragment
	f := m.frame
	f.Data = m.chain.Next(&buf)
	ch.nrtBusy = true
	ch.nrtTx = mw.node.Ctrl.Submit(f, can.SubmitOpts{Done: ch.nrtDone})
}

// nrtSent is the controller's completion callback for the fragment it
// held. The queue is settled before any handler runs, and the next
// fragment goes out unless a handler's own publish already started one.
func (ch *channelState) nrtSent(ok bool, _ sim.Time) {
	mw := ch.mw
	ch.nrtBusy = false
	switch {
	case ch.nrtOrphan:
		ch.nrtOrphan = false // its message was dropped while on the wire
	case !ok:
		// Drop the rest of the chain: the receiver cannot complete it.
		tag := ch.nrtQueue[0].frame.Tag
		ch.popNRT()
		ch.raisePub(Exception{
			Kind: ExcTxFailure, Subject: ch.subject,
			At: mw.K.Now(), note: "NRT fragment abandoned",
		})
		mw.Obs.Emit(tag, obs.StageDropped, NRT.Obs(), mw.node.Index,
			uint64(ch.subject), mw.K.Now(), obs.DetailTxAbandoned)
	case ch.nrtQueue[0].chain.Done():
		ch.popNRT()
	}
	if !ch.nrtBusy {
		ch.sendNext()
	}
}

// popNRT removes the head message from the send queue and keeps its
// copy buffer as the spare in the vacated tail slot.
func (ch *channelState) popNRT() {
	spare := ch.nrtQueue[0].buf
	n := copy(ch.nrtQueue, ch.nrtQueue[1:])
	ch.nrtQueue[n] = nrtMsg{buf: spare}
	ch.nrtQueue = ch.nrtQueue[:n]
}

// dropNRT empties the send queue. The fragment the controller holds is
// aborted; one on the wire cannot be, so it completes as an orphan that
// touches no message queued after the drop.
func (ch *channelState) dropNRT() {
	if ch.nrtBusy {
		if ch.mw.node.Ctrl.Abort(ch.nrtTx) {
			ch.nrtBusy = false
		} else {
			ch.nrtOrphan = true
		}
	}
	clear(ch.nrtQueue)
	ch.nrtQueue = ch.nrtQueue[:0]
}

// QueuedChains reports how many messages (fragment chains) await
// transmission, including the one in progress.
func (c *NRTEC) QueuedChains() int { return len(c.ch.nrtQueue) }

// Subscribe installs the handlers and acceptance filter. Completed
// messages are delivered on arrival of their last fragment; reassembly
// failures (sequence gaps after silent losses, stalled transfers) raise
// FragError.
func (c *NRTEC) Subscribe(attrs ChannelAttrs, sub SubscribeAttrs, notify NotificationHandler, exc ExceptionHandler) error {
	_, err := c.ch.subscribe(attrs, sub, notify, exc)
	return err
}

// CancelSubscription removes the subscription (strictly local).
func (c *NRTEC) CancelSubscription() {
	c.ch.unsubscribe()
	c.ch.pubs = nil
}

// nrtReceive feeds an arriving fragment into the per-publisher
// reassembler and notifies on completion.
func (ch *channelState) nrtReceive(f *can.Frame, at sim.Time) {
	pub := f.ID.TxNode()
	msg, err := ch.pub(pub).reasm.Push(f.Data, at)
	if err != nil {
		ch.raiseSub(Exception{
			Kind: ExcFragError, Subject: ch.subject, At: at,
			note: err.Error(),
		})
		return
	}
	if msg == nil {
		return
	}
	ev := Event{Subject: ch.subject, Payload: msg, traceID: f.Tag}
	if !ch.subAttrs.accepts(pub, ev) {
		return
	}
	mw := ch.mw
	mw.counters.DeliveredNRT++
	di := DeliveryInfo{Publisher: pub, PublishedAt: f.PublishedAt, Origin: f.Origin, ArrivedAt: at, DeliveredAt: at}
	ch.store(ev, di)
	mw.Obs.Delivered(ev.traceID, NRT.Obs(), mw.node.Index,
		uint64(ch.subject), di.PublishedAt, at, 0)
	ch.deliverNotify(ev, di)
}

// GetEvent retrieves the most recently delivered event from the
// middleware's memory area — the paper's getEvent() primitive (§2.2.1).
// The payload is the reassembled message, which the middleware does not
// reuse; the contract is still the mailbox's: valid until the channel's
// next delivery.
func (c *NRTEC) GetEvent() (ev Event, di DeliveryInfo, ok bool) { return c.ch.getEvent() }
