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

// fakeClock stands in for the wall clock: each read returns the current
// reading and costs 1 ns, and the test moves it by known amounts.
type fakeClock struct{ now int64 }

func (c *fakeClock) read() int64 {
	c.now++
	return c.now - 1
}

// withFakeClock returns a kernel probed by p whose stage clock is c.
func withFakeClock(c *fakeClock, p Probe) *Kernel {
	k := NewKernel(1)
	k.SetProbe(p)
	k.pt.clock = c.read
	return k
}

// gapSchedule replays the sampling schedule for steps steps: it returns
// how many of them are timed and the sum of the gaps those stand for.
func gapSchedule(steps int) (timed int, gaps int64) {
	ref := newProbeTiming()
	for i := 0; i < steps; i++ {
		if ref.left--; ref.left == 0 {
			g := ref.nextGap()
			ref.left = g
			timed++
			gaps += g
		}
	}
	return timed, gaps
}

// TestKernelProbeTimesOnlyPops pins the heap stage's contract: a push or
// a cancel counts one untimed op (wallNs 0, no clock read), a step
// counts exactly one op per pop plus whatever its event reports from
// inside, and the pop's wallNs is > 0 on a timed step and 0 on any other.
// A failed cancel and an empty step report nothing.
func TestKernelProbeTimesOnlyPops(t *testing.T) {
	clk := &fakeClock{}
	p := &recordingProbe{}
	k := withFakeClock(clk, p)

	tm := k.At(100, func() {})
	if got := p.take(); len(got) != 1 || got[0] != (probeCall{ProbeHeap, 0}) {
		t.Fatalf("At reported %+v, want one untimed heap op", got)
	}
	reads := clk.now
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
	if clk.now != reads {
		t.Fatalf("pushes and cancels read the clock %d times", clk.now-reads)
	}

	// Each step pops one event whose callback pushes the next (untimed):
	// a pop then a push, the pop timed only on a timed step.
	var tick func()
	tick = func() { k.After(50, tick) }
	k.At(200, tick)
	p.take()
	var timedSeen, untimedSeen int
	for i := 0; i < 4*probePeriod; i++ {
		before, reads := k.ProbeTotals().TimedSteps, clk.now
		k.Step()
		timed := k.ProbeTotals().TimedSteps != before
		got := p.take()
		if len(got) != 2 || got[0].s != ProbeHeap || got[1] != (probeCall{ProbeHeap, 0}) {
			t.Fatalf("step %d with a nested push reported %+v, want a pop then an untimed push", i, got)
		}
		switch {
		case timed && got[0].wallNs <= 0:
			t.Fatalf("timed step %d: pop reported %d ns", i, got[0].wallNs)
		case !timed && got[0].wallNs != 0:
			t.Fatalf("untimed step %d: pop reported %d ns", i, got[0].wallNs)
		case !timed && clk.now != reads:
			t.Fatalf("untimed step %d read the clock %d times", i, clk.now-reads)
		}
		if timed {
			timedSeen++
		} else {
			untimedSeen++
		}
	}
	if timedSeen == 0 || untimedSeen == 0 {
		t.Fatalf("%d timed and %d untimed steps, want both", timedSeen, untimedSeen)
	}

	// With the real clock, a pop never reports negative time.
	k = NewKernel(1)
	k.SetProbe(p)
	tick = func() { k.After(50, tick) }
	k.At(0, tick)
	for i := 0; i < 4*probePeriod; i++ {
		k.Step()
	}
	for _, c := range p.take() {
		if c.wallNs < 0 {
			t.Fatalf("real clock: %+v", c)
		}
	}

	k = NewKernel(1)
	k.SetProbe(p)
	if k.Step() {
		t.Fatal("step on an empty queue ran an event")
	}
	if got := p.take(); len(got) != 0 {
		t.Fatalf("empty step reported %+v, want nothing", got)
	}
}

// nestedEvent is one step's callback in the estimator tests: 5 ns of
// its own, a dispatch window of 30 ns holding a delivery window of 20 ns,
// then 7 ns of its own. With the fake clock's 1 ns reads, a timed step
// measures pop 1, delivery 21, dispatch 32 (53 less the delivery's 21),
// and 14 unattributed, 68 in all.
func nestedEvent(k *Kernel, clk *fakeClock) {
	clk.now += 5
	outer := k.StageStart()
	clk.now += 30
	inner := k.StageStart()
	clk.now += 20
	k.StageEnd(inner, ProbeDelivery, ProbeClassSRT)
	k.StageEnd(outer, ProbeDispatch, ProbeClassSRT)
	clk.now += 7
}

// TestSampledStageArithmetic pins the estimator with known per-stage
// costs: every op is counted, every timed op reports its exclusive time
// times its sample's gap, and the stages plus the unattributed residual
// add up to the step wall estimate exactly.
func TestSampledStageArithmetic(t *testing.T) {
	clk := &fakeClock{}
	p := &countProbe{}
	k := withFakeClock(clk, p)

	// An op outside any step is timed at scale 1: 10 ns plus a read.
	w := k.StageStart()
	clk.now += 10
	k.StageEnd(w, ProbeEnqueue, ProbeClassHRT)
	if got := p.wallNs[ProbeEnqueue][ProbeClassHRT]; got != 11 {
		t.Fatalf("enqueue outside a step: %d ns, want 11", got)
	}

	const steps = 1000 * probePeriod
	var ev func()
	ev = func() {
		nestedEvent(k, clk)
		k.After(1, ev)
	}
	k.At(0, ev)
	for i := 0; i < steps; i++ {
		k.Step()
	}

	timed, gaps := gapSchedule(steps)
	tot := k.ProbeTotals()
	if tot.TimedSteps != uint64(timed) {
		t.Fatalf("timed steps %d, want %d", tot.TimedSteps, timed)
	}
	for _, c := range []struct {
		s      ProbeStage
		cl     ProbeClass
		perOp  int64
		ops    uint64 // every op, timed or not
		timed  uint64 // samples
		scaled int64
	}{
		{ProbeHeap, ProbeClassNone, 1, 2*steps + 1, uint64(timed), gaps},
		{ProbeDispatch, ProbeClassSRT, 32, steps, uint64(timed), 32 * gaps},
		{ProbeDelivery, ProbeClassSRT, 21, steps, uint64(timed), 21 * gaps},
		{ProbeEnqueue, ProbeClassHRT, 11, 1, 1, 11},
	} {
		if got := p.ops[c.s][c.cl]; got != c.ops {
			t.Errorf("%v/%v: %d ops, want %d", c.s, c.cl, got, c.ops)
		}
		if got := tot.Samples[c.s][c.cl]; got != c.timed {
			t.Errorf("%v/%v: %d samples, want %d", c.s, c.cl, got, c.timed)
		}
		if got := p.wallNs[c.s][c.cl]; got != c.scaled {
			t.Errorf("%v/%v: %d ns, want %d", c.s, c.cl, got, c.scaled)
		}
	}
	if tot.UnattributedNs != 14*gaps {
		t.Errorf("unattributed %d ns, want %d", tot.UnattributedNs, 14*gaps)
	}
	if tot.WallNs != 68*gaps+11 {
		t.Errorf("step wall %d ns, want %d", tot.WallNs, 68*gaps+11)
	}
	var sum int64
	for s := range p.wallNs {
		for c := range p.wallNs[s] {
			sum += p.wallNs[s][c]
		}
	}
	if sum+tot.UnattributedNs != tot.WallNs {
		t.Errorf("stages %d + unattributed %d != wall %d", sum, tot.UnattributedNs, tot.WallNs)
	}
	// The gaps the samples stand for cover the steps run, and at most
	// the rest of the last one.
	if d := gaps - steps; d < 0 || d >= 3*probePeriod/2 {
		t.Errorf("samples stand for %d steps of %d", gaps, steps)
	}
}

// TestSampledStagePeriodicPatternUnbiased runs events whose cost repeats
// with a period of 14 steps (an HRT calendar round) or 64 (the mean
// gap): one step in each period costs 100x the others. A fixed gap of 64
// would see the expensive step always or never; the jittered schedule
// must estimate the total within 8 % (about three standard deviations
// of its sampling error over this many samples).
func TestSampledStagePeriodicPatternUnbiased(t *testing.T) {
	for _, period := range []int{14, probePeriod} {
		clk := &fakeClock{}
		p := &countProbe{}
		k := withFakeClock(clk, p)
		var n int
		var truth int64
		var ev func()
		ev = func() {
			cost := int64(100)
			if n%period == 0 {
				cost = 100 * 100
			}
			n++
			truth += cost + 2 // the window's own two reads
			w := k.StageStart()
			clk.now += cost
			k.StageEnd(w, ProbeDispatch, ProbeClassNone)
			k.After(1, ev)
		}
		k.At(0, ev)
		const steps = 20000 * probePeriod
		for i := 0; i < steps; i++ {
			k.Step()
		}
		est := p.wallNs[ProbeDispatch][ProbeClassNone]
		r := float64(est) / float64(truth)
		t.Logf("period %d: estimate/truth %.4f over %d samples", period, r, k.ProbeTotals().TimedSteps)
		if r < 0.92 || r > 1.08 {
			t.Errorf("period %d: estimate %d ns, truth %d ns (%.3fx)", period, est, truth, r)
		}
	}
}

// TestProbeLeavesRNGAlone runs one random workload with and without a
// probe: the sampling schedule has its own state, so the kernel RNG, the
// clock and the step count end where they would without it.
func TestProbeLeavesRNGAlone(t *testing.T) {
	run := func(p Probe) (uint64, Time, uint64) {
		k := NewKernel(7)
		k.SetProbe(p)
		var ev func()
		ev = func() {
			w := StageWindow{}
			if k.Probe() != nil {
				w = k.StageStart()
			}
			k.After(Duration(1+k.RNG().Uint64()%1000), ev)
			if k.Probe() != nil {
				k.StageEnd(w, ProbeEnqueue, ProbeClassSRT)
			}
		}
		k.At(0, ev)
		for i := 0; i < 10*probePeriod; i++ {
			k.Step()
		}
		return k.RNG().Uint64(), k.Now(), k.Steps()
	}
	r0, now0, steps0 := run(nil)
	r1, now1, steps1 := run(&countProbe{})
	if r0 != r1 || now0 != now1 || steps0 != steps1 {
		t.Fatalf("with a probe: rng %x now %v steps %d; without: %x %v %d", r1, now1, steps1, r0, now0, steps0)
	}
}

// TestTimedStepZeroAllocs pins a timed step with a stage window inside
// at zero allocations: the window nesting lives on the callers' stacks.
func TestTimedStepZeroAllocs(t *testing.T) {
	clk := &fakeClock{}
	k := withFakeClock(clk, &countProbe{})
	fn := func() { nestedEvent(k, clk) }
	per := testing.AllocsPerRun(200, func() {
		k.pt.left = 1 // the next step is timed
		k.At(k.Now()+1, fn)
		k.Step()
	})
	if per != 0 {
		t.Fatalf("timed step: %.2f allocs, want 0", per)
	}
	if got := k.ProbeTotals().TimedSteps; got < 200 {
		t.Fatalf("%d timed steps, want every step timed", got)
	}
}
