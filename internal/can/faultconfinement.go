package can

// CAN 2.0 fault confinement (§8 of the Bosch spec): every controller
// keeps a transmit error counter (TEC) and receive error counter (REC).
// Detected transmission errors add 8 to the sender's TEC and 1 to every
// receiver's REC; successes decrement. A controller whose TEC exceeds 255
// enters bus-off: it detaches from the bus, its pending transmissions are
// abandoned, and (if recovery is enabled) it rejoins after observing 128
// occurrences of 11 recessive bits.
//
// The model is opt-in (Bus.ConfineFaults): the paper's experiments assume
// error-active controllers throughout — adversarial injectors at 50%+
// error rates would otherwise drive senders bus-off, which real systems
// dimension their fault hypotheses to avoid. Enabling it reproduces the
// fault-confinement behaviour for experiments that want it.
const (
	// errorPassiveTEC is the error-passive threshold.
	errorPassiveTEC = 128
	// busOffTEC is the bus-off threshold.
	busOffTEC = 256
	// BusOffRecoveryBits is the recovery observation time: 128 sequences
	// of 11 recessive bits.
	BusOffRecoveryBits = 128 * 11
)

// ErrorState is a controller's fault-confinement state.
type ErrorState int

const (
	// ErrorActive controllers participate fully.
	ErrorActive ErrorState = iota
	// ErrorPassive controllers participate but signal errors passively
	// (tracked for observability; the timing model is unchanged).
	ErrorPassive
	// BusOff controllers are detached from the bus.
	BusOff
)

// String implements fmt.Stringer.
func (s ErrorState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	}
	return "?"
}

// TEC returns the controller's transmit error counter.
func (c *Controller) TEC() int { return c.tec }

// REC returns the controller's receive error counter.
func (c *Controller) REC() int { return c.rec }

// State returns the controller's fault-confinement state.
func (c *Controller) State() ErrorState {
	switch {
	case c.busOff:
		return BusOff
	case c.tec >= errorPassiveTEC || c.rec >= errorPassiveTEC:
		return ErrorPassive
	default:
		return ErrorActive
	}
}

// AutoRecover controls whether a bus-off controller rejoins automatically
// after the recovery time (default when fault confinement is enabled).
func (c *Controller) SetAutoRecover(v bool) { c.autoRecover = v }

// onTxSuccess applies the success bookkeeping.
func (c *Controller) onTxSuccess() {
	if c.tec > 0 {
		c.tec--
	}
}

// onTxError applies the error bookkeeping and triggers bus-off when the
// TEC crosses the threshold. Returns true if the controller went bus-off.
func (c *Controller) onTxError() bool {
	c.tec += 8
	if c.tec >= busOffTEC && !c.busOff {
		c.enterBusOff()
		return true
	}
	return false
}

// onRxSuccess / onRxError apply receiver-side bookkeeping. Bosch §8 rule 8:
// a successful reception decrements REC by 1, except that a REC above 127
// is set to a value between 119 and 127 — the error-passive receiver
// re-enters the 119–127 band on its first good frame instead of counting
// down one by one. The model picks 127, the most conservative value: the
// controller leaves error-passive yet a single further receive error puts
// it straight back.
func (c *Controller) onRxSuccess() {
	if c.rec > 127 {
		c.rec = 127
		return
	}
	if c.rec > 0 {
		c.rec--
	}
}

func (c *Controller) onRxError() {
	c.rec++
}

// enterBusOff detaches the controller: pending requests are abandoned
// with done(false), and recovery is scheduled if enabled. All of them
// leave the controller before the first Done runs, so a Done that aborts
// a sibling finds it gone instead of freeing it under the flush.
func (c *Controller) enterBusOff() {
	c.busOff = true
	c.muted = true
	pending := c.pending
	c.pending = nil
	for _, r := range pending {
		r.removed = true
	}
	for _, r := range pending {
		c.bus.stats.FramesAborted++
		if r.done != nil {
			r.done(false, c.bus.K.Now())
		}
		c.bus.release(r)
	}
	c.bus.stats.BusOffEvents++
	if c.autoRecover {
		c.bus.K.After(c.bus.BitDuration(BusOffRecoveryBits), func() {
			c.Recover()
		})
	}
}

// Recover returns a bus-off controller to error-active state with cleared
// counters, as after the 128×11 recessive-bit observation.
func (c *Controller) Recover() {
	if !c.busOff {
		return
	}
	old := c.State()
	c.busOff = false
	c.muted = false
	c.tec, c.rec = 0, 0
	c.bus.noteState(c, old)
	c.bus.kick()
}

// noteState emits the trace event and the OnErrorState hook for one
// controller's fault-confinement transition. old is the state captured
// before the counter bookkeeping ran; a no-op when the state is unchanged.
func (b *Bus) noteState(c *Controller, old ErrorState) {
	now := c.State()
	if now == old {
		return
	}
	if b.Trace != nil {
		var kind TraceKind
		switch {
		case now == BusOff:
			kind = TraceBusOff
		case now == ErrorPassive:
			kind = TraceErrorPassive
		case old == BusOff:
			kind = TraceBusOffRecover
		default:
			kind = TraceErrorActive
		}
		b.Trace(TraceEvent{Kind: kind, At: b.K.Now(), Sender: c.index, TEC: c.tec, REC: c.rec})
	}
	if b.OnErrorState != nil {
		b.OnErrorState(c.index, old, now, b.K.Now())
	}
}

// confinement hooks called from Bus.complete when enabled.
func (b *Bus) confineTxError(sender int) {
	c := b.ctrls[sender]
	old := c.State()
	c.onTxError()
	b.noteState(c, old)
	for i, r := range b.ctrls {
		if i != sender && !r.muted {
			rold := r.State()
			r.onRxError()
			b.noteState(r, rold)
		}
	}
}

func (b *Bus) confineTxSuccess(sender int, victims map[int]bool) {
	c := b.ctrls[sender]
	old := c.State()
	c.onTxSuccess()
	b.noteState(c, old)
	for i, r := range b.ctrls {
		if i != sender && !r.muted && !victims[i] {
			rold := r.State()
			r.onRxSuccess()
			b.noteState(r, rold)
		}
	}
}
