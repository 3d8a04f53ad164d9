package perf_test

import (
	"runtime"
	"strings"
	"testing"

	"canec"
	"canec/internal/obs"
	"canec/internal/obs/perf"
	"canec/internal/sim"
)

// newSRTSystem builds a 2-node system with one announced SRT channel and
// a subscriber counting deliveries.
func newSRTSystem(t testing.TB) (*canec.System, *canec.SRTEC, *int) {
	t.Helper()
	sys, err := canec.NewSystem(canec.SystemConfig{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := sys.Node(0).MW.SRTEC(0x41)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(canec.ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	got := new(int)
	sub, err := sys.Node(1).MW.SRTEC(0x41)
	if err != nil {
		t.Fatal(err)
	}
	err = sub.Subscribe(canec.ChannelAttrs{}, canec.SubscribeAttrs{},
		func(canec.Event, canec.DeliveryInfo) { *got++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, pub, got
}

func runSRTTraffic(sys *canec.System, pub *canec.SRTEC, n int) {
	for r := 0; r < n; r++ {
		sys.K.At(canec.Time(r)*200*canec.Microsecond, func() {
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(canec.Event{Subject: 0x41, Payload: []byte{1, 2, 3},
				Attrs: canec.EventAttrs{Deadline: now + 5*canec.Millisecond}})
		})
	}
	sys.Run(canec.Time(n)*200*canec.Microsecond + canec.Second)
}

func stageOps(snap perf.Snapshot, stage string) uint64 {
	var total uint64
	for _, s := range snap.Stages {
		if s.Stage == stage {
			total += s.Ops
		}
	}
	return total
}

func TestProfilerEndToEnd(t *testing.T) {
	sys, pub, got := newSRTSystem(t)
	prof := &perf.Profiler{}
	prof.AttachKernel(sys.K)
	prof.SetBusySource(func() sim.Duration { return sys.Bus.Stats().BusyTime })

	const n = 50
	runSRTTraffic(sys, pub, n)
	if *got != n {
		t.Fatalf("delivered %d of %d", *got, n)
	}

	snap := prof.Snapshot()
	if snap.Steps == 0 {
		t.Fatal("no kernel steps recorded")
	}
	if snap.EventsPerSec <= 0 {
		t.Fatalf("events/s: %v", snap.EventsPerSec)
	}
	if snap.HeapHighWater < 1 {
		t.Fatalf("heap high-water: %d", snap.HeapHighWater)
	}
	if snap.Delivered != n {
		t.Fatalf("delivered frames: %d want %d", snap.Delivered, n)
	}
	if snap.AllocsPerDelivered <= 0 {
		t.Fatalf("allocs per delivered: %v", snap.AllocsPerDelivered)
	}
	if snap.BusyVirtualNs <= 0 {
		t.Fatalf("busy virtual ns: %d", snap.BusyVirtualNs)
	}
	for _, stage := range []string{"enqueue", "heap", "dispatch", "delivery"} {
		if stageOps(snap, stage) == 0 {
			t.Errorf("stage %q recorded no ops", stage)
		}
	}
	// Arbitration and codec run per wire frame.
	if stageOps(snap, "arbitration") < n || stageOps(snap, "codec") < n {
		t.Errorf("bus stages under-counted: arb=%d codec=%d",
			stageOps(snap, "arbitration"), stageOps(snap, "codec"))
	}
	// Enqueue and delivery carry the SRT class tag.
	var srtTagged bool
	for _, s := range snap.Stages {
		if s.Class == "srt" && (s.Stage == "enqueue" || s.Stage == "delivery") {
			srtTagged = true
		}
	}
	if !srtTagged {
		t.Error("no SRT-classed enqueue/delivery buckets")
	}
}

// TestProfilerStagesAddUpToStepWall holds the snapshot to one
// denominator: the sampled stage times and the unattributed row sum to
// the step wall estimate, and the samples behind each are counted.
func TestProfilerStagesAddUpToStepWall(t *testing.T) {
	sys, pub, _ := newSRTSystem(t)
	// Steps timed for an earlier probe stay out of the profiler's window.
	early := &perf.Profiler{}
	early.AttachKernel(sys.K)
	for i := 0; i < 500; i++ {
		sys.K.At(canec.Time(i)*canec.Microsecond, func() {})
	}
	sys.Run(canec.Millisecond)
	prof := &perf.Profiler{}
	prof.AttachKernel(sys.K)
	const n = 2000
	for r := 1; r <= n; r++ {
		sys.K.At(canec.Time(r)*200*canec.Microsecond+canec.Millisecond, func() {
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(canec.Event{Subject: 0x41, Payload: []byte{1, 2, 3},
				Attrs: canec.EventAttrs{Deadline: now + 5*canec.Millisecond}})
		})
	}
	sys.Run(canec.Time(n)*200*canec.Microsecond + canec.Second)

	snap := prof.Snapshot()
	if snap.TimedSteps == 0 || snap.TimedSteps >= snap.Steps {
		t.Fatalf("%d timed steps of %d", snap.TimedSteps, snap.Steps)
	}
	sum := snap.UnattributedNs
	for _, s := range snap.Stages {
		if s.Samples > s.Ops {
			t.Errorf("%s/%s: %d samples of %d ops", s.Stage, s.Class, s.Samples, s.Ops)
		}
		if s.Stage == "heap" && s.Samples != snap.TimedSteps {
			t.Errorf("heap: %d samples, %d timed steps", s.Samples, snap.TimedSteps)
		}
		sum += s.WallNs
	}
	if snap.StepWallNs <= 0 || sum != snap.StepWallNs {
		t.Fatalf("stages + unattributed = %d, step wall %d", sum, snap.StepWallNs)
	}
	if snap.UnattributedNs < 0 {
		t.Fatalf("unattributed %d ns", snap.UnattributedNs)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *perf.Profiler
	p.StageNs(sim.ProbeHeap, sim.ProbeClassNone, 1)
	p.AttachKernel(sim.NewKernel(1))
	p.SetBusySource(nil)
	p.Register(obs.NewRegistry())
	if snap := p.Snapshot(); len(snap.Stages) != 0 || snap.Steps != 0 {
		t.Fatal("nil profiler snapshot not zero")
	}
}

func TestProfilerRegister(t *testing.T) {
	sys, pub, _ := newSRTSystem(t)
	prof := &perf.Profiler{}
	prof.AttachKernel(sys.K)
	reg := obs.NewRegistry()
	prof.Register(reg)
	runSRTTraffic(sys, pub, 10)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"canec_profile_stage_busy_nanoseconds",
		"canec_profile_stage_ops",
		`stage="delivery"`,
		"canec_profile_events_per_second",
		"canec_profile_heap_high_water",
		"canec_profile_idle_virtual_nanoseconds",
		"canec_profile_allocs_per_frame",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// chainMallocs runs n SRT publish→deliver round trips and returns the
// heap allocations observed during the kernel run (publishes are
// scheduled beforehand, so only the chain itself is measured).
func chainMallocs(t *testing.T, n int, attach bool) uint64 {
	t.Helper()
	sys, pub, got := newSRTSystem(t)
	if attach {
		prof := &perf.Profiler{}
		prof.AttachKernel(sys.K)
	}
	for r := 0; r < n; r++ {
		sys.K.At(canec.Time(r)*200*canec.Microsecond, func() {
			now := sys.Node(0).MW.LocalTime()
			pub.Publish(canec.Event{Subject: 0x41, Payload: []byte{1, 2, 3},
				Attrs: canec.EventAttrs{Deadline: now + 5*canec.Millisecond}})
		})
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys.Run(canec.Time(n)*200*canec.Microsecond + canec.Second)
	runtime.ReadMemStats(&m1)
	if *got != n {
		t.Fatalf("delivered %d of %d", *got, n)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestProfilerAddsNoPerFrameAllocs is the overhead bound for the whole
// instrumentation layer: running the full publish→deliver chain with the
// profiler attached must allocate no more per frame than running it with
// the profiler off. The stage table is flat arrays and the kernel's
// stage windows live on the callers' stacks, so the two runs should
// differ only by fixed setup noise, not by anything proportional to
// traffic.
func TestProfilerAddsNoPerFrameAllocs(t *testing.T) {
	const n = 1000
	off := chainMallocs(t, n, false)
	on := chainMallocs(t, n, true)
	// Allow a small fixed slack (GC bookkeeping, ReadMemStats itself);
	// anything O(n) would blow way past it.
	slack := uint64(n / 20)
	if on > off+slack {
		t.Fatalf("profiler-on chain allocated %d vs %d off (+%d > slack %d)",
			on, off, on-off, slack)
	}
	t.Logf("chain allocs over %d frames: off=%d (%.2f/frame) on=%d (%.2f/frame)",
		n, off, float64(off)/n, on, float64(on)/n)
}

// TestChainAllocsPerFramePinned pins the absolute per-frame allocation
// budget of the profiler-off SRT publish→deliver chain so regressions in
// the hot path show up in `go test`, not just in benchmark trend lines.
func TestChainAllocsPerFramePinned(t *testing.T) {
	const n = 1000
	off := chainMallocs(t, n, false)
	per := float64(off) / n
	// Measured 3.02 allocs/frame (logged by TestProfilerAddsNoPerFrameAllocs):
	// the test's own payload literal, the controller's request record and
	// the subscriber's payload copy. The ceiling leaves less than one
	// allocation of headroom, so any new per-frame allocation fails it.
	const ceiling = 4.0
	if per > ceiling {
		t.Fatalf("profiler-off chain: %.2f allocs/frame, budget %.1f", per, ceiling)
	}
}

// TestProfilerStageNsZeroAllocs pins the cost of the probe fast path: a
// StageNs call must not allocate, so a profiled kernel pays only a call
// per op and, on a timed step, the clock reads around each window.
func TestProfilerStageNsZeroAllocs(t *testing.T) {
	prof := &perf.Profiler{}
	per := testing.AllocsPerRun(500, func() {
		t0 := sim.ProbeNow()
		prof.StageNs(sim.ProbeDispatch, sim.ProbeClassSRT, sim.ProbeNow()-t0)
	})
	if per != 0 {
		t.Fatalf("StageNs allocated %.2f per call, want 0", per)
	}
}
