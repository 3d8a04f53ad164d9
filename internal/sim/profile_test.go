package sim

import "testing"

// countProbe records probe calls per (stage, class) bucket.
type countProbe struct {
	ops    [NumProbeStages][NumProbeClasses]uint64
	wallNs [NumProbeStages][NumProbeClasses]int64
}

func (p *countProbe) StageNs(s ProbeStage, c ProbeClass, wallNs int64) {
	p.ops[s][c]++
	p.wallNs[s][c] += wallNs
}

func TestProbeStageStrings(t *testing.T) {
	want := map[ProbeStage]string{
		ProbeEnqueue:     "enqueue",
		ProbeHeap:        "heap",
		ProbeArbitration: "arbitration",
		ProbeCodec:       "codec",
		ProbeDispatch:    "dispatch",
		ProbeDelivery:    "delivery",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("stage %d: got %q want %q", s, got, name)
		}
	}
	classes := map[ProbeClass]string{
		ProbeClassNone: "all", ProbeClassHRT: "hrt",
		ProbeClassSRT: "srt", ProbeClassNRT: "nrt",
	}
	for c, name := range classes {
		if got := c.String(); got != name {
			t.Errorf("class %d: got %q want %q", c, got, name)
		}
	}
}

func TestKernelProbeHeapOps(t *testing.T) {
	k := NewKernel(1)
	p := &countProbe{}
	k.SetProbe(p)
	if k.Probe() == nil {
		t.Fatal("probe not installed")
	}

	tm := k.At(100, func() {})
	k.At(200, func() {})
	if got := p.ops[ProbeHeap][ProbeClassNone]; got != 2 {
		t.Fatalf("heap ops after 2 schedules: %d", got)
	}
	k.Cancel(tm)
	if got := p.ops[ProbeHeap][ProbeClassNone]; got != 3 {
		t.Fatalf("heap ops after cancel: %d", got)
	}
	k.Run(MaxTime)
	// One pop for the surviving event.
	if got := p.ops[ProbeHeap][ProbeClassNone]; got != 4 {
		t.Fatalf("heap ops after run: %d", got)
	}

	k.SetProbe(nil)
	if k.Probe() != nil {
		t.Fatal("probe not cleared")
	}
}

func TestKernelProfileCounters(t *testing.T) {
	k := NewKernel(1)
	// Three pending events push the high-water mark to 3; gaps between
	// them are pure idle virtual time (nothing else runs).
	k.At(1000, func() {})
	k.At(2000, func() {})
	k.At(5000, func() {})
	kp := k.Profile()
	if kp.HeapHighWater != 3 || kp.Pending != 3 {
		t.Fatalf("before run: high-water %d pending %d", kp.HeapHighWater, kp.Pending)
	}
	k.Run(5000)
	kp = k.Profile()
	if kp.Steps != 3 {
		t.Fatalf("steps: %d", kp.Steps)
	}
	if kp.Pending != 0 {
		t.Fatalf("pending after run: %d", kp.Pending)
	}
	// All 5000ns of virtual time were idle: the clock only moved by
	// jumping to due events.
	if kp.IdleVirtual != 5000 {
		t.Fatalf("idle virtual: %d", kp.IdleVirtual)
	}
	if kp.Now != 5000 {
		t.Fatalf("now: %d", kp.Now)
	}
	// High-water sticks after the queue drains.
	if kp.HeapHighWater != 3 {
		t.Fatalf("high-water after drain: %d", kp.HeapHighWater)
	}
}

func TestKernelProfileIdleRunPastLastEvent(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func() {})
	k.Run(1000)
	if kp := k.Profile(); kp.IdleVirtual != 1000 {
		t.Fatalf("idle virtual with horizon tail: %d", kp.IdleVirtual)
	}
}

func TestProbeNowMonotonic(t *testing.T) {
	a := ProbeNow()
	b := ProbeNow()
	if b < a {
		t.Fatalf("ProbeNow went backwards: %d then %d", a, b)
	}
}

// TestNilProbeZeroAllocs pins the zero-cost-when-nil discipline for the
// kernel's probe hooks: with no probe attached, scheduling and stepping
// must not allocate at all (the event lives in a recycled slab slot).
func TestNilProbeZeroAllocs(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	per := testing.AllocsPerRun(200, func() {
		k.At(k.Now()+1, fn)
		k.Step()
	})
	if per != 0 {
		t.Fatalf("schedule+step with nil probe: %.2f allocs, want 0", per)
	}
}

// probeCall is one StageNs call as a recordingProbe saw it.
type probeCall struct {
	s      ProbeStage
	wallNs int64
}

// recordingProbe keeps every StageNs call in order.
type recordingProbe struct{ calls []probeCall }

func (p *recordingProbe) StageNs(s ProbeStage, _ ProbeClass, wallNs int64) {
	p.calls = append(p.calls, probeCall{s, wallNs})
}

// take returns the calls recorded since the last take.
func (p *recordingProbe) take() []probeCall {
	c := p.calls
	p.calls = nil
	return c
}

// TestKernelProbeTimesOnlyPops pins the heap stage's contract: a push or
// a cancel counts one untimed op (wallNs 0, no clock read), and a step
// counts one op per pop plus whatever its event reports from inside.
func TestKernelProbeTimesOnlyPops(t *testing.T) {
	k := NewKernel(1)
	p := &recordingProbe{}
	k.SetProbe(p)

	tm := k.At(100, func() {})
	if got := p.take(); len(got) != 1 || got[0] != (probeCall{ProbeHeap, 0}) {
		t.Fatalf("At reported %+v, want one untimed heap op", got)
	}
	k.At(200, func() {
		k.After(50, func() {}) // a push nested in a step
	})
	p.take()
	if !k.Cancel(tm) {
		t.Fatal("cancel of a pending event failed")
	}
	if got := p.take(); len(got) != 1 || got[0] != (probeCall{ProbeHeap, 0}) {
		t.Fatalf("Cancel reported %+v, want one untimed heap op", got)
	}
	if k.Cancel(tm) {
		t.Fatal("second cancel of the same timer succeeded")
	}
	if got := p.take(); len(got) != 0 {
		t.Fatalf("a failed Cancel reported %+v, want nothing", got)
	}

	// The step pops the event at 200 (timed) and its callback pushes one
	// (untimed); the next step pops that one.
	k.Step()
	got := p.take()
	if len(got) != 2 || got[0].s != ProbeHeap || got[1] != (probeCall{ProbeHeap, 0}) {
		t.Fatalf("step with a nested push reported %+v, want a pop then an untimed push", got)
	}
	if got[0].wallNs < 0 {
		t.Fatalf("pop reported %d ns", got[0].wallNs)
	}
	k.Step()
	if got := p.take(); len(got) != 1 || got[0].s != ProbeHeap {
		t.Fatalf("step reported %+v, want one pop", got)
	}
	if k.Step() {
		t.Fatal("step on an empty queue ran an event")
	}
	if got := p.take(); len(got) != 0 {
		t.Fatalf("empty step reported %+v, want nothing", got)
	}
}
