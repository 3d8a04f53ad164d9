package calendar

import (
	"strings"
	"testing"
	"testing/quick"

	"canec/internal/can"
	"canec/internal/sim"
)

// Add appends a slot (unvalidated; call Admit before use).
func (c *Calendar) Add(s Slot) { c.Slots = append(c.Slots, s) }

func TestWaitTimeDefault(t *testing.T) {
	cfg := DefaultConfig()
	// Worst-case 8-byte extended frame: 160 bit times at 1 Mbit/s.
	if got := cfg.WaitTime(); got != 160*sim.Microsecond {
		t.Fatalf("WaitTime = %v, want 160µs", got)
	}
	cfg.Wait = 154 * sim.Microsecond // the paper's figure
	if got := cfg.WaitTime(); got != 154*sim.Microsecond {
		t.Fatalf("WaitTime override = %v", got)
	}
}

func TestWCTTStructure(t *testing.T) {
	cfg := DefaultConfig()
	frame := can.BitTime(can.WorstCaseBits(8), can.DefaultBitRate)
	errf := can.BitTime(can.ErrorOverheadBits, can.DefaultBitRate)

	cfg.OmissionDegree = 0
	if got := cfg.WCTT(8); got != frame {
		t.Fatalf("WCTT(k=0) = %v, want %v", got, frame)
	}
	cfg.OmissionDegree = 2
	if got := cfg.WCTT(8); got != 3*frame+2*errf {
		t.Fatalf("WCTT(k=2) = %v, want %v", got, 3*frame+2*errf)
	}
}

func TestWCTTMonotone(t *testing.T) {
	f := func(k uint8, s uint8) bool {
		cfg := DefaultConfig()
		cfg.OmissionDegree = int(k % 5)
		size := int(s % 9)
		a := cfg.WCTT(size)
		cfg.OmissionDegree++
		b := cfg.WCTT(size)
		return b > a // more tolerated faults always cost more reserved time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotGeometry(t *testing.T) {
	cfg := DefaultConfig()
	s := Slot{Ready: 1000 * sim.Microsecond, Payload: 8}
	if s.LST(cfg) != s.Ready+cfg.WaitTime() {
		t.Fatal("LST != Ready + ΔT_wait")
	}
	if s.Deadline(cfg) != s.LST(cfg)+cfg.WCTT(8) {
		t.Fatal("Deadline != LST + WCTT")
	}
	if s.End(cfg) != s.Deadline(cfg) {
		t.Fatal("End != Deadline")
	}
}

func TestAdmitAcceptsValid(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(10*sim.Millisecond, cfg)
	span := cfg.SlotSpan(8)
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	cal.Add(Slot{Subject: 2, Publisher: 2, Ready: span + cfg.GapMin, Payload: 8})
	if err := cal.Admit(); err != nil {
		t.Fatalf("valid calendar rejected: %v", err)
	}
}

func TestAdmitRejectsOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(10*sim.Millisecond, cfg)
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	cal.Add(Slot{Subject: 2, Publisher: 2, Ready: 100 * sim.Microsecond, Payload: 8})
	err := cal.Admit()
	if err == nil {
		t.Fatal("overlapping slots admitted")
	}
	if !strings.Contains(err.Error(), "share rounds") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAdmitRejectsMissingGap(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(10*sim.Millisecond, cfg)
	span := cfg.SlotSpan(8)
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	// Exactly adjacent but with gap one nanosecond short of ΔG_min.
	cal.Add(Slot{Subject: 2, Publisher: 2, Ready: span + cfg.GapMin - 1, Payload: 8})
	if cal.Admit() == nil {
		t.Fatal("sub-gap spacing admitted")
	}
}

func TestAdmitRejectsBeyondRound(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(100*sim.Microsecond, cfg) // far too short
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	if cal.Admit() == nil {
		t.Fatal("slot beyond round admitted")
	}
}

func TestAdmitRejectsWrapViolation(t *testing.T) {
	cfg := DefaultConfig()
	span := cfg.SlotSpan(8)
	// The second slot ends exactly at lastEnd = 2·span + gap; choosing the
	// round only gap/2 beyond that leaves too little room before the first
	// slot of the next round (which starts at offset 0).
	lastEnd := 2*span + cfg.GapMin
	round := lastEnd + cfg.GapMin/2
	cal := New(round, cfg)
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	cal.Add(Slot{Subject: 2, Publisher: 2, Ready: span + cfg.GapMin, Payload: 8})
	err := cal.Admit()
	if err == nil {
		t.Fatal("wrap-around violation admitted")
	}
	if !strings.Contains(err.Error(), "wrap") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAdmitRejectsGapBelowPrecision(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GapMin = cfg.Precision - 1
	cal := New(10*sim.Millisecond, cfg)
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	err := cal.Admit()
	if err == nil {
		t.Fatal("gap below precision admitted")
	}
	if !strings.Contains(err.Error(), "precision") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAdmitRejectsBadPayload(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(10*sim.Millisecond, cfg)
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 9})
	if cal.Admit() == nil {
		t.Fatal("9-byte payload admitted")
	}
	cal.Slots[0].Payload = -1
	if cal.Admit() == nil {
		t.Fatal("negative payload admitted")
	}
	cal.Slots[0] = Slot{Subject: 1, Publisher: 1, Ready: -1, Payload: 8}
	if cal.Admit() == nil {
		t.Fatal("negative ready offset admitted")
	}
}

func TestAdmitSortsSlots(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(20*sim.Millisecond, cfg)
	span := cfg.SlotSpan(8)
	cal.Add(Slot{Subject: 2, Publisher: 2, Ready: span + cfg.GapMin, Payload: 8})
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	if err := cal.Admit(); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if cal.Slots[0].Subject != 1 || cal.Slots[1].Subject != 2 {
		t.Fatal("Admit did not sort slots by ready offset")
	}
}

func TestPackSequential(t *testing.T) {
	cfg := DefaultConfig()
	cal, err := PackSequential(cfg, sim.Millisecond,
		Slot{Subject: 1, Publisher: 1, Payload: 8},
		Slot{Subject: 2, Publisher: 2, Payload: 4},
		Slot{Subject: 3, Publisher: 3, Payload: 8},
	)
	if err != nil {
		t.Fatalf("PackSequential: %v", err)
	}
	if len(cal.Slots) != 3 {
		t.Fatalf("slots = %d", len(cal.Slots))
	}
	if cal.Round%sim.Millisecond != 0 {
		t.Fatalf("round %v not quantized", cal.Round)
	}
	if err := cal.Admit(); err != nil {
		t.Fatalf("packed calendar not admissible: %v", err)
	}
}

func TestPackSequentialProperty(t *testing.T) {
	// Any number of packed slots with any payloads must be admissible.
	f := func(payloads []uint8) bool {
		if len(payloads) > 12 {
			payloads = payloads[:12]
		}
		cfg := DefaultConfig()
		reqs := make([]Slot, len(payloads))
		for i, p := range payloads {
			reqs[i] = Slot{Subject: uint64(i), Publisher: can.TxNode(i), Payload: int(p % 9)}
		}
		cal, err := PackSequential(cfg, 0, reqs...)
		if err != nil {
			return false
		}
		return cal.Admit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	cfg := DefaultConfig()
	cal := New(10*sim.Millisecond, cfg)
	if cal.Utilization() != 0 {
		t.Fatal("empty calendar utilization != 0")
	}
	cal.Add(Slot{Subject: 1, Publisher: 1, Ready: 0, Payload: 8})
	want := float64(cfg.SlotSpan(8)) / float64(10*sim.Millisecond)
	if got := cal.Utilization(); got != want {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
	cal.Round = 0
	if cal.Utilization() != 0 {
		t.Fatal("zero-round utilization != 0")
	}
}

func TestSlotLookups(t *testing.T) {
	cfg := DefaultConfig()
	cal, err := PackSequential(cfg, 0,
		Slot{Subject: 10, Publisher: 1, Payload: 8},
		Slot{Subject: 10, Publisher: 2, Payload: 8}, // second publisher, own slot
		Slot{Subject: 20, Publisher: 1, Payload: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := cal.SlotsForSubject(10); len(got) != 2 {
		t.Fatalf("SlotsForSubject(10) = %d slots", len(got))
	}
	if got := cal.SlotsForSubject(99); len(got) != 0 {
		t.Fatalf("SlotsForSubject(99) = %d slots", len(got))
	}
}
