package trace

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
	r := NewRing(10)
	for i := 0; i < 5; i++ {
		r.Record(ev(sim.Time(i), can.TraceTxOK, 8))
	}
	es := r.Entries()
	if len(es) != 5 {
		t.Fatalf("entries = %d", len(es))
	}
	for i, e := range es {
		if e.At != sim.Time(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(ev(sim.Time(i), can.TraceTxOK, 8))
	}
	es := r.Entries()
	if len(es) != 4 {
		t.Fatalf("entries = %d", len(es))
	}
	for i, e := range es {
		if e.At != sim.Time(6+i) {
			t.Fatalf("wrap kept wrong events: %v", es)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRing(10)
	r.Filter = func(e can.TraceEvent) bool { return e.Kind == can.TraceTxError }
	r.Record(ev(1, can.TraceTxOK, 8))
	r.Record(ev(2, can.TraceTxError, 8))
	r.Record(ev(3, can.TraceRx, 8))
	if got := r.Entries(); len(got) != 1 || got[0].Kind != can.TraceTxError {
		t.Fatalf("filtered entries = %v", got)
	}
	if r.Total() != 3 {
		t.Fatalf("total should count offered events: %d", r.Total())
	}
}

// TestRingFilterEvictionAccounting pins down the Total/Entries
// relationship when a filter and evictions are both active: Total counts
// every offer, Entries holds the most recent filter survivors.
func TestRingFilterEvictionAccounting(t *testing.T) {
	r := NewRing(3)
	r.Filter = func(e can.TraceEvent) bool { return e.Kind == can.TraceTxOK }
	for i := 0; i < 10; i++ {
		kind := can.TraceTxOK
		if i%2 == 1 {
			kind = can.TraceRx
		}
		r.Record(ev(sim.Time(i), kind, 8))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	es := r.Entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d, want capacity 3", len(es))
	}
	// The survivors kept are the most recent ones that passed the filter.
	for i, e := range es {
		if want := sim.Time(4 + 2*i); e.At != want {
			t.Fatalf("entry %d at %d, want %d", i, e.At, want)
		}
	}
}

func TestRingZeroCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(ev(1, can.TraceTxOK, 8))
	if len(r.Entries()) != 1 {
		t.Fatal("minimum capacity of 1 not enforced")
	}
}

func TestFormat(t *testing.T) {
	line := Format(ev(1500*sim.Microsecond, can.TraceRx, 8))
	for _, want := range []string{"0.001500000", "[3] 11 22 33", "RX", "n5->n7", "prio=8", "node=9", "etag=1110"} {
		if !strings.Contains(line, want) {
			t.Fatalf("Format missing %q: %q", want, line)
		}
	}
	// Retries annotated.
	e := ev(0, can.TraceTxError, 8)
	e.Attempt = 3
	if !strings.Contains(Format(e), "try=3") {
		t.Fatal("attempt annotation missing")
	}
	if !strings.Contains(Format(e), "TX-ERR") {
		t.Fatal("kind label missing")
	}
}

// TestFormatEdgeCases covers the rendering corners: unknown kinds,
// empty payloads, retry annotation and whole-second timestamps.
func TestFormatEdgeCases(t *testing.T) {
	// Unknown kind renders as "?".
	e := ev(0, can.TraceKind(99), 8)
	if !strings.Contains(Format(e), "?") {
		t.Fatalf("unknown kind not rendered as ?: %q", Format(e))
	}

	// Zero-length payload: "[0]" with no data bytes before the kind.
	e = ev(0, can.TraceTxOK, 8)
	e.Frame.Data = nil
	if line := Format(e); !strings.Contains(line, "[0]  TX-OK") {
		t.Fatalf("empty payload rendering: %q", line)
	}

	// Attempt > 1 gains a try= suffix; attempt 1 must not.
	e = ev(0, can.TraceTxOK, 8)
	e.Attempt = 2
	if line := Format(e); !strings.HasSuffix(line, "try=2") {
		t.Fatalf("retry annotation: %q", line)
	}
	e.Attempt = 1
	if line := Format(e); strings.Contains(line, "try=") {
		t.Fatalf("attempt 1 must not be annotated: %q", line)
	}

	// Timestamps at and past one second keep nanosecond alignment.
	e = ev(sim.Time(2*sim.Second+sim.Nanosecond*42), can.TraceTxOK, 8)
	if line := Format(e); !strings.HasPrefix(line, "2.000000042") {
		t.Fatalf("second-scale timestamp: %q", line)
	}

	// Arbitration kinds have distinct labels.
	if !strings.Contains(Format(ev(0, can.TraceArbWin, 8)), "ARB-WIN") {
		t.Fatal("ARB-WIN label missing")
	}
	if !strings.Contains(Format(ev(0, can.TraceArbLoss, 8)), "ARB-LOSS") {
		t.Fatal("ARB-LOSS label missing")
	}
}

func TestHookChainsAndDump(t *testing.T) {
	r := NewRing(8)
	called := 0
	hook := r.Hook(func(can.TraceEvent) { called++ })
	hook(ev(1, can.TraceTxStart, 8))
	hook(ev(2, can.TraceTxOK, 8))
	if called != 2 || len(r.Entries()) != 2 {
		t.Fatalf("chain broken: called=%d entries=%d", called, len(r.Entries()))
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
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
	r := NewRing(16)
	bus.Trace = r.Hook(nil)
	bus.Controller(0).Submit(can.Frame{ID: can.MakeID(5, 0, 7), Data: []byte{1}}, can.SubmitOpts{})
	k.RunUntilIdle()
	es := r.Entries()
	// TX-START, TX-OK, RX.
	if len(es) != 3 {
		t.Fatalf("live trace entries = %d", len(es))
	}
	if es[0].Kind != can.TraceTxStart || es[2].Kind != can.TraceRx {
		t.Fatalf("unexpected sequence: %v %v %v", es[0].Kind, es[1].Kind, es[2].Kind)
	}
}
