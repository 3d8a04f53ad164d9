package main

import (
	"strings"
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

func ev(at sim.Time, kind can.TraceKind, prio can.Prio) can.TraceEvent {
	return can.TraceEvent{
		Kind: kind, At: at,
		Frame:   can.Frame{ID: can.MakeID(prio, 9, 1110), Data: []byte{0x11, 0x22, 0x33}},
		Sender:  5,
		Recv:    7,
		Attempt: 1,
	}
}

func TestRingBasic(t *testing.T) {
	r := newTraceRing(10)
	for i := 0; i < 5; i++ {
		r.record(ev(sim.Time(i), can.TraceTxOK, 8))
	}
	es := r.entries()
	if len(es) != 5 {
		t.Fatalf("entries = %d", len(es))
	}
	for i, e := range es {
		if e.At != sim.Time(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if r.total() != 5 {
		t.Fatalf("total = %d", r.total())
	}
}

func TestRingWrap(t *testing.T) {
	r := newTraceRing(4)
	for i := 0; i < 10; i++ {
		r.record(ev(sim.Time(i), can.TraceTxOK, 8))
	}
	es := r.entries()
	if len(es) != 4 {
		t.Fatalf("entries = %d", len(es))
	}
	for i, e := range es {
		if e.At != sim.Time(6+i) {
			t.Fatalf("wrap kept wrong events: %v", es)
		}
	}
	if r.total() != 10 {
		t.Fatalf("total = %d", r.total())
	}
}

// TestRingFilterEvictionAccounting pins down the Total/Entries
// relationship under eviction of mixed event kinds: Total counts every
// record, Entries holds the most recent capacity of them, each with its own
// kind. Filtering is the caller's: a hook that passes only some events to
// Record keeps them out of both.
func TestRingFilterEvictionAccounting(t *testing.T) {
	r := newTraceRing(3)
	kindAt := func(i int) can.TraceKind {
		if i%2 == 1 {
			return can.TraceRx
		}
		return can.TraceTxOK
	}
	for i := 0; i < 10; i++ {
		r.record(ev(sim.Time(i), kindAt(i), 8))
	}
	if r.total() != 10 {
		t.Fatalf("Total = %d, want 10", r.total())
	}
	es := r.entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d, want capacity 3", len(es))
	}
	for i, e := range es {
		if want := sim.Time(7 + i); e.At != want || e.Kind != kindAt(7+i) {
			t.Fatalf("entry %d = %v at %d, want %v at %d", i, e.Kind, e.At, kindAt(7+i), want)
		}
	}

	f := newTraceRing(3)
	rec := func(e can.TraceEvent) {
		if e.Kind == can.TraceTxOK {
			f.record(e)
		}
	}
	for i := 0; i < 10; i++ {
		rec(ev(sim.Time(i), kindAt(i), 8))
	}
	if f.total() != 5 {
		t.Fatalf("filtered Total = %d, want 5", f.total())
	}
	fs := f.entries()
	if len(fs) != 3 {
		t.Fatalf("filtered entries = %d, want capacity 3", len(fs))
	}
	for i, e := range fs {
		if want := sim.Time(4 + 2*i); e.At != want || e.Kind != can.TraceTxOK {
			t.Fatalf("filtered entry %d = %v at %d, want TxOK at %d", i, e.Kind, e.At, want)
		}
	}
}

func TestRingZeroCapacity(t *testing.T) {
	r := newTraceRing(0)
	r.record(ev(1, can.TraceTxOK, 8))
	if len(r.entries()) != 1 {
		t.Fatal("minimum capacity of 1 not enforced")
	}
}

func TestFormat(t *testing.T) {
	line := formatEvent(ev(1500*sim.Microsecond, can.TraceRx, 8))
	for _, want := range []string{"0.001500000", "[3] 11 22 33", "RX", "n5->n7", "prio=8", "node=9", "etag=1110"} {
		if !strings.Contains(line, want) {
			t.Fatalf("Format missing %q: %q", want, line)
		}
	}
	// Retries annotated.
	e := ev(0, can.TraceTxError, 8)
	e.Attempt = 3
	if !strings.Contains(formatEvent(e), "try=3") {
		t.Fatal("attempt annotation missing")
	}
	if !strings.Contains(formatEvent(e), "TX-ERR") {
		t.Fatal("kind label missing")
	}
}

// TestFormatEdgeCases covers the rendering corners: unknown kinds,
// empty payloads, retry annotation and whole-second timestamps.
func TestFormatEdgeCases(t *testing.T) {
	// Unknown kind renders as "?".
	e := ev(0, can.TraceKind(99), 8)
	if !strings.Contains(formatEvent(e), "?") {
		t.Fatalf("unknown kind not rendered as ?: %q", formatEvent(e))
	}

	// Zero-length payload: "[0]" with no data bytes before the kind.
	e = ev(0, can.TraceTxOK, 8)
	e.Frame.Data = nil
	if line := formatEvent(e); !strings.Contains(line, "[0]  TX-OK") {
		t.Fatalf("empty payload rendering: %q", line)
	}

	// Attempt > 1 gains a try= suffix; attempt 1 must not.
	e = ev(0, can.TraceTxOK, 8)
	e.Attempt = 2
	if line := formatEvent(e); !strings.HasSuffix(line, "try=2") {
		t.Fatalf("retry annotation: %q", line)
	}
	e.Attempt = 1
	if line := formatEvent(e); strings.Contains(line, "try=") {
		t.Fatalf("attempt 1 must not be annotated: %q", line)
	}

	// Timestamps at and past one second keep nanosecond alignment.
	e = ev(sim.Time(2*sim.Second+sim.Nanosecond*42), can.TraceTxOK, 8)
	if line := formatEvent(e); !strings.HasPrefix(line, "2.000000042") {
		t.Fatalf("second-scale timestamp: %q", line)
	}

	// Arbitration kinds have distinct labels.
	if !strings.Contains(formatEvent(ev(0, can.TraceArbWin, 8)), "ARB-WIN") {
		t.Fatal("ARB-WIN label missing")
	}
	if !strings.Contains(formatEvent(ev(0, can.TraceArbLoss, 8)), "ARB-LOSS") {
		t.Fatal("ARB-LOSS label missing")
	}
}

func TestHookChainsAndDump(t *testing.T) {
	r := newTraceRing(8)
	called := 0
	hook := r.hook(func(can.TraceEvent) { called++ })
	hook(ev(1, can.TraceTxStart, 8))
	hook(ev(2, can.TraceTxOK, 8))
	if called != 2 || len(r.entries()) != 2 {
		t.Fatalf("chain broken: called=%d entries=%d", called, len(r.entries()))
	}
	var sb strings.Builder
	if err := r.dump(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "\n") != 2 {
		t.Fatalf("dump = %q", sb.String())
	}
}

func TestRingOnLiveBus(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.Attach(0)
	bus.Attach(1)
	r := newTraceRing(16)
	bus.Trace = r.hook(nil)
	bus.Controller(0).Submit(can.Frame{ID: can.MakeID(5, 0, 7), Data: []byte{1}}, can.SubmitOpts{})
	k.RunUntilIdle()
	es := r.entries()
	// TX-START, TX-OK, RX.
	if len(es) != 3 {
		t.Fatalf("live trace entries = %d", len(es))
	}
	if es[0].Kind != can.TraceTxStart || es[2].Kind != can.TraceRx {
		t.Fatalf("unexpected sequence: %v %v %v", es[0].Kind, es[1].Kind, es[2].Kind)
	}
}

// The bus reuses a transmission's request record, and with it the bytes
// its trace events' frames point at, once the transmission has ended. The
// ring keeps its own copy: entries recorded earlier, and entries handed
// out earlier, still show the bytes that were on the wire.
func TestRingKeepsPayloadsAcrossRecordReuse(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.Attach(0)
	bus.Attach(1)
	r := newTraceRing(64)
	var want []string
	bus.Trace = r.hook(func(e can.TraceEvent) { want = append(want, formatEvent(e)) })
	var early []can.TraceEvent
	for i := 0; i < 6; i++ {
		d := []byte{byte(i), byte(i), byte(i)}
		bus.Controller(0).Submit(can.Frame{ID: can.MakeID(5, 0, 7), Data: d}, can.SubmitOpts{})
		k.RunUntilIdle()
		if i == 0 {
			early = r.entries()
		}
	}
	es := r.entries()
	if len(es) != len(want) {
		t.Fatalf("%d entries, %d traced", len(es), len(want))
	}
	for i, e := range es {
		if got := formatEvent(e); got != want[i] {
			t.Fatalf("entry %d = %q, traced as %q", i, got, want[i])
		}
	}
	for i, e := range early {
		if got := formatEvent(e); got != want[i] {
			t.Fatalf("early entry %d = %q, traced as %q", i, got, want[i])
		}
	}
}
