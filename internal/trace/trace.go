// Package trace records and renders bus activity in a candump-like text
// format, giving the simulated CAN segment the observability a real one
// would have from a bus monitor. A bounded Ring can be installed as (or
// chained into) a Bus's Trace hook; its contents render as one line per
// event with virtual timestamp, decoded identifier fields and payload.
package trace

import (
	"fmt"
	"io"
	"strings"

	"canec/internal/can"
)

// Ring is a bounded in-memory recorder of bus trace events.
type Ring struct {
	buf   []can.TraceEvent
	next  int
	full  bool
	total uint64
	// Filter, if non-nil, selects which events are recorded.
	Filter func(can.TraceEvent) bool
}

// NewRing returns a recorder keeping the most recent n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]can.TraceEvent, n)}
}

// Record stores one event (dropping the oldest when full). Every offer
// counts toward Total; only events passing the filter enter the buffer.
func (r *Ring) Record(e can.TraceEvent) {
	r.total++
	if r.Filter != nil && !r.Filter(e) {
		return
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Hook returns a Bus.Trace function that records into the ring and then
// calls prev (which may be nil), so rings compose with existing hooks.
func (r *Ring) Hook(prev func(can.TraceEvent)) func(can.TraceEvent) {
	return func(e can.TraceEvent) {
		r.Record(e)
		if prev != nil {
			prev(e)
		}
	}
}

// Total reports how many events were offered to the ring, whether or not
// they were kept: it counts filtered-out events and events that have since
// been evicted by newer ones.
func (r *Ring) Total() uint64 { return r.total }

// Entries returns the recorded events in arrival order.
func (r *Ring) Entries() []can.TraceEvent {
	if !r.full {
		out := make([]can.TraceEvent, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]can.TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// kindLabel renders the event kind.
func kindLabel(k can.TraceKind) string {
	switch k {
	case can.TraceTxStart:
		return "TX-START"
	case can.TraceTxOK:
		return "TX-OK"
	case can.TraceTxError:
		return "TX-ERR"
	case can.TraceTxAbort:
		return "TX-ABORT"
	case can.TraceRx:
		return "RX"
	case can.TraceArbWin:
		return "ARB-WIN"
	case can.TraceArbLoss:
		return "ARB-LOSS"
	}
	return "?"
}

// Format renders one event as a single line:
//
//	0.012345678  08123456  [3] 11 22 33  TX-OK    n5  (prio=8 node=9 etag=1110) try=1
func Format(e can.TraceEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d.%09d  %08X  [%d]",
		int64(e.At)/1e9, int64(e.At)%1e9, uint32(e.Frame.ID), len(e.Frame.Data))
	for _, d := range e.Frame.Data {
		fmt.Fprintf(&b, " %02X", d)
	}
	fmt.Fprintf(&b, "  %-8s n%d", kindLabel(e.Kind), e.Sender)
	if e.Kind == can.TraceRx {
		fmt.Fprintf(&b, "->n%d", e.Recv)
	}
	fmt.Fprintf(&b, "  (prio=%d node=%d etag=%d)",
		e.Frame.ID.Prio(), e.Frame.ID.TxNode(), e.Frame.ID.Etag())
	if e.Attempt > 1 {
		fmt.Fprintf(&b, " try=%d", e.Attempt)
	}
	return b.String()
}

// Dump writes all recorded events, one Format line each.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Entries() {
		if _, err := fmt.Fprintln(w, Format(e)); err != nil {
			return err
		}
	}
	return nil
}
