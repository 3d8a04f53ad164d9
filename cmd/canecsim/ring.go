package main

import (
	"fmt"
	"io"
	"strings"

	"canec/internal/can"
)

// traceRing is a bounded in-memory recorder of bus trace events, the
// -trace N bus monitor: installed as (or chained into) a Bus's Trace
// hook, it keeps the most recent events and renders them candump-style,
// one line per event with virtual timestamp, decoded identifier fields
// and payload.
type traceRing struct {
	buf []can.TraceEvent
	// data holds each kept event's payload bytes: a trace event's frame
	// is the bus's, valid only during the hook, so the ring copies it.
	data  [][can.MaxPayload]byte
	next  int
	full  bool
	count uint64
}

// newTraceRing returns a recorder keeping the most recent n events.
func newTraceRing(n int) *traceRing {
	if n < 1 {
		n = 1
	}
	return &traceRing{buf: make([]can.TraceEvent, n), data: make([][can.MaxPayload]byte, n)}
}

// record stores one event (dropping the oldest when full), with a copy of
// its payload, and counts it toward total.
func (r *traceRing) record(e can.TraceEvent) {
	r.count++
	d := &r.data[r.next]
	e.Frame.Data = d[:copy(d[:], e.Frame.Data)]
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// hook returns a Bus.Trace function that records into the ring and then
// calls prev (which may be nil), so rings compose with existing hooks.
func (r *traceRing) hook(prev func(can.TraceEvent)) func(can.TraceEvent) {
	return func(e can.TraceEvent) {
		r.record(e)
		if prev != nil {
			prev(e)
		}
	}
}

// total reports how many events the ring recorded, counting those that
// have since been evicted by newer ones.
func (r *traceRing) total() uint64 { return r.count }

// entries returns the recorded events in arrival order. They are the
// caller's: their payloads do not change as the ring records on.
func (r *traceRing) entries() []can.TraceEvent {
	out := make([]can.TraceEvent, 0, len(r.buf))
	if !r.full {
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	data := make([][can.MaxPayload]byte, len(out))
	for i := range out {
		out[i].Frame.Data = data[i][:copy(data[i][:], out[i].Frame.Data)]
	}
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

// formatEvent renders one event as a single line:
//
//	0.012345678  08123456  [3] 11 22 33  TX-OK    n5  (prio=8 node=9 etag=1110) try=1
func formatEvent(e can.TraceEvent) string {
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

// dump writes all recorded events, one formatEvent line each.
func (r *traceRing) dump(w io.Writer) error {
	for _, e := range r.entries() {
		if _, err := fmt.Fprintln(w, formatEvent(e)); err != nil {
			return err
		}
	}
	return nil
}
