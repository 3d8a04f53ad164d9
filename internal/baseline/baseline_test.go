package baseline

import (
	"testing"

	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
	"canec/internal/workload"
)

func TestDeadlineMonotonic(t *testing.T) {
	ds := []sim.Duration{30, 10, 20}
	p, err := DeadlineMonotonic(ds, 2, 250)
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 2 || p[2] != 3 || p[0] != 4 {
		t.Fatalf("priorities = %v", p)
	}
	if _, err := DeadlineMonotonic(make([]sim.Duration, 10), 1, 5); err == nil {
		t.Fatal("overfull band accepted")
	}
}

func TestWCRTSingleStream(t *testing.T) {
	m := MsgSpec{Prio: 5, Period: 10 * sim.Millisecond, Payload: 8}
	r, err := WCRT([]MsgSpec{m}, m, can.DefaultBitRate)
	if err != nil {
		t.Fatal(err)
	}
	// Alone on the bus: R = C (160 µs).
	if r != 160*sim.Microsecond {
		t.Fatalf("WCRT = %v, want 160µs", r)
	}
}

func TestWCRTBlockingAndInterference(t *testing.T) {
	hi := MsgSpec{Prio: 1, Period: 1 * sim.Millisecond, Payload: 8}
	mid := MsgSpec{Prio: 2, Period: 5 * sim.Millisecond, Payload: 4}
	lo := MsgSpec{Prio: 3, Period: 10 * sim.Millisecond, Payload: 8}
	set := []MsgSpec{hi, mid, lo}
	rHi, err := WCRT(set, hi, can.DefaultBitRate)
	if err != nil {
		t.Fatal(err)
	}
	// Highest priority still suffers blocking from a lower frame.
	if rHi <= 160*sim.Microsecond {
		t.Fatalf("high-prio WCRT %v must include blocking", rHi)
	}
	rLo, err := WCRT(set, lo, can.DefaultBitRate)
	if err != nil {
		t.Fatal(err)
	}
	if rLo <= rHi {
		t.Fatalf("low-prio WCRT %v not above high-prio %v", rLo, rHi)
	}
}

func TestWCRTUnschedulable(t *testing.T) {
	// Two streams each demanding ~80% utilization.
	a := MsgSpec{Prio: 1, Period: 200 * sim.Microsecond, Payload: 8}
	b := MsgSpec{Prio: 2, Period: 200 * sim.Microsecond, Payload: 8}
	if _, err := WCRT([]MsgSpec{a, b}, b, can.DefaultBitRate); err != ErrUnschedulable {
		t.Fatalf("err = %v, want unschedulable", err)
	}
}

func TestWCRTBoundsSimulation(t *testing.T) {
	// The analysis must upper-bound simulated worst response times for a
	// fixed-priority set.
	streams := []workload.Stream{
		{Node: 0, Period: 2 * sim.Millisecond, RelDeadline: 2 * sim.Millisecond, Payload: 8},
		{Node: 1, Period: 5 * sim.Millisecond, RelDeadline: 5 * sim.Millisecond, Payload: 6},
		{Node: 2, Period: 10 * sim.Millisecond, RelDeadline: 10 * sim.Millisecond, Payload: 8},
	}
	prios, _ := DeadlineMonotonic([]sim.Duration{2 * sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond}, 2, 250)
	set := make([]MsgSpec, len(streams))
	for i, s := range streams {
		set[i] = MsgSpec{Prio: prios[i], Period: s.Period, Payload: s.Payload}
	}
	rng := sim.NewRNG(1)
	jobs := workload.GenJobs(rng, streams, 2*sim.Second)
	out := RunDM(streams, jobs, 2, 250, 1, 3*sim.Second)
	worst := make([]sim.Duration, len(streams))
	for _, jd := range out.Jobs {
		if jd.Completed == 0 {
			t.Fatalf("job dropped in underloaded set: %+v", jd.Job)
		}
		rt := jd.Completed - jd.Job.Release
		if rt > worst[jd.Job.Stream] {
			worst[jd.Job.Stream] = rt
		}
	}
	for i := range streams {
		bound, err := WCRT(set, set[i], can.DefaultBitRate)
		if err != nil {
			t.Fatal(err)
		}
		if worst[i] > bound {
			t.Fatalf("stream %d: simulated worst %v exceeds analysis bound %v", i, worst[i], bound)
		}
	}
}

// lightStreams builds an easy, schedulable stream set.
func lightStreams() []workload.Stream {
	return []workload.Stream{
		{Node: 0, Period: 5 * sim.Millisecond, RelDeadline: 3 * sim.Millisecond, Payload: 8},
		{Node: 1, Period: 8 * sim.Millisecond, RelDeadline: 6 * sim.Millisecond, Payload: 8},
		{Node: 2, Period: 12 * sim.Millisecond, RelDeadline: 10 * sim.Millisecond, Payload: 8},
	}
}

func TestRunnersCompleteLightLoad(t *testing.T) {
	streams := lightStreams()
	jobs := workload.GenJobs(sim.NewRNG(2), streams, 1*sim.Second)
	horizon := sim.Time(2 * sim.Second)

	edf := RunEDF(streams, jobs, core.DefaultBands(), 2, horizon)
	dm := RunDM(streams, jobs, 2, 250, 2, horizon)
	oracle := RunOracle(streams, jobs, 2, horizon)
	for name, o := range map[string]Outcome{"edf": edf, "dm": dm, "oracle": oracle} {
		if len(o.Jobs) != len(jobs) {
			t.Fatalf("%s: %d jobs, want %d", name, len(o.Jobs), len(jobs))
		}
		if r := o.MissRatio(); r != 0 {
			t.Fatalf("%s: miss ratio %v under light load", name, r)
		}
	}
}

func TestEDFBeatsDMUnderLoad(t *testing.T) {
	// A load mix chosen so that static deadline-monotonic priorities
	// misschedule: high-rate long-deadline traffic vs low-rate short-
	// deadline traffic.
	streams := []workload.Stream{
		{Node: 0, Period: 400 * sim.Microsecond, RelDeadline: 40 * sim.Millisecond, Payload: 8},
		{Node: 1, Period: 400 * sim.Microsecond, RelDeadline: 40 * sim.Millisecond, Payload: 8},
		{Node: 2, Period: 20 * sim.Millisecond, RelDeadline: 1500 * sim.Microsecond, Payload: 8, Sporadic: true},
		{Node: 3, Period: 25 * sim.Millisecond, RelDeadline: 1500 * sim.Microsecond, Payload: 8, Sporadic: true},
	}
	jobs := workload.GenJobs(sim.NewRNG(5), streams, 2*sim.Second)
	horizon := sim.Time(4 * sim.Second)
	edf := RunEDF(streams, jobs, core.DefaultBands(), 5, horizon)
	dm := RunDM(streams, jobs, 2, 250, 5, horizon)
	oracle := RunOracle(streams, jobs, 5, horizon)
	if !(oracle.MissRatio() <= edf.MissRatio()+1e-9) {
		t.Fatalf("oracle %v worse than EDF %v", oracle.MissRatio(), edf.MissRatio())
	}
	if edf.Promotions == 0 {
		t.Fatal("EDF run performed no promotions under load")
	}
	_ = dm
	// DM assigns the short-deadline sporadics top priority — fine for
	// them — but the paper's claim is about *overall* deadline
	// satisfaction under dynamic load; compare total miss ratios.
	if edf.MissRatio() > dm.MissRatio()+1e-9 {
		t.Fatalf("EDF miss ratio %v worse than DM %v on EDF-favourable load",
			edf.MissRatio(), dm.MissRatio())
	}
}

func TestTTCANExclusiveWindows(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	for i := 0; i < 3; i++ {
		bus.Attach(can.TxNode(i))
	}
	var rx []can.Etag
	bus.Controller(2).OnReceive = func(f can.Frame, _ sim.Time) { rx = append(rx, f.ID.Etag()) }
	net := NewTTCAN(k, bus, 2*sim.Millisecond)
	net.AddExclusive(0, 200*sim.Microsecond, 0)
	net.AddExclusive(300*sim.Microsecond, 200*sim.Microsecond, 1)
	net.AddArbitration(600*sim.Microsecond, 1200*sim.Microsecond)
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	// Stage exclusive messages for the first cycle only.
	net.SetExclusive(0, can.Frame{ID: can.MakeID(0, 0, 10), Data: []byte{1}})
	net.SetExclusive(1, can.Frame{ID: can.MakeID(0, 1, 11), Data: []byte{2}})
	k.Run(4*sim.Millisecond - 1) // two full cycles, excluding cycle 2's first window
	if net.exclUsed != 2 {
		t.Fatalf("exclUsed = %d, want 2", net.exclUsed)
	}
	if net.exclIdle != 2 { // second cycle: both windows idle
		t.Fatalf("exclIdle = %d, want 2", net.exclIdle)
	}
	if len(rx) != 2 || rx[0] != 10 || rx[1] != 11 {
		t.Fatalf("rx = %v", rx)
	}
}

func TestTTCANSingleShotLoss(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.Attach(0)
	bus.Attach(1)
	bus.Injector = can.AdversarialK{K: 1, Prio: -1}
	got := 0
	bus.Controller(1).OnReceive = func(can.Frame, sim.Time) { got++ }
	net := NewTTCAN(k, bus, sim.Millisecond)
	net.AddExclusive(0, 300*sim.Microsecond, 0)
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	net.SetExclusive(0, can.Frame{ID: can.MakeID(0, 0, 10), Data: []byte{1}})
	k.Run(2 * sim.Millisecond)
	if got != 0 {
		t.Fatal("single-shot TTCAN delivered despite error")
	}
	if net.misses != 1 {
		t.Fatalf("exclusive misses = %d, want 1", net.misses)
	}
}

func TestTTCANArbitrationRespectsWindowEnd(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.Attach(0)
	bus.Attach(1)
	var rxAt []sim.Time
	bus.Controller(1).OnReceive = func(_ can.Frame, at sim.Time) { rxAt = append(rxAt, at) }
	net := NewTTCAN(k, bus, sim.Millisecond)
	// Arbitration window of 300 µs, then an exclusive window at 500 µs.
	net.AddArbitration(0, 300*sim.Microsecond)
	net.AddExclusive(500*sim.Microsecond, 200*sim.Microsecond, 0)
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	// Queue 5 frames: only ~1 fits per 300 µs window with the worst-case
	// fit rule (160 µs frame, next must fit entirely).
	for i := 0; i < 5; i++ {
		net.SubmitAsync(0, can.Frame{ID: can.MakeID(200, 0, can.Etag(20+i)), Data: make([]byte, 8)}, nil)
	}
	k.Run(10 * sim.Millisecond)
	if len(rxAt) != 5 {
		t.Fatalf("rx = %d frames", len(rxAt))
	}
	// No arbitration frame may complete inside an exclusive window
	// ([500,700]µs of each cycle).
	for _, at := range rxAt {
		off := at % sim.Millisecond
		if off > 500*sim.Microsecond && off < 700*sim.Microsecond {
			t.Fatalf("arbitration frame intruded into exclusive window at %v", at)
		}
	}
}

func TestTTCANScheduleValidation(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.Attach(0)
	net := NewTTCAN(k, bus, sim.Millisecond)
	net.AddExclusive(0, 300*sim.Microsecond, 0)
	net.AddExclusive(200*sim.Microsecond, 300*sim.Microsecond, 0)
	if err := net.Start(); err == nil {
		t.Fatal("overlapping windows accepted")
	}
	net2 := NewTTCAN(k, bus, sim.Millisecond)
	net2.AddExclusive(900*sim.Microsecond, 300*sim.Microsecond, 0)
	if err := net2.Start(); err == nil {
		t.Fatal("window beyond cycle accepted")
	}
}

func TestOutcomeMetrics(t *testing.T) {
	o := Outcome{Jobs: []JobDone{
		{Job: workload.Job{Deadline: 100}, Completed: 90},
		{Job: workload.Job{Deadline: 100}, Completed: 150, Missed: true},
		{Dropped: true},
		{Job: workload.Job{Deadline: 200}, Completed: 260, Missed: true},
	}}
	if r := o.MissRatio(); r != 0.75 {
		t.Fatalf("MissRatio = %v", r)
	}
	if (Outcome{}).MissRatio() != 0 {
		t.Fatal("empty outcome metrics")
	}
}

func TestGenJobsDeterministicAndSorted(t *testing.T) {
	streams := lightStreams()
	a := workload.GenJobs(sim.NewRNG(9), streams, sim.Second)
	b := workload.GenJobs(sim.NewRNG(9), streams, sim.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed traces differ")
		}
		if i > 0 && a[i].Release < a[i-1].Release {
			t.Fatal("trace not sorted")
		}
	}
}

func TestMixedSetUtilization(t *testing.T) {
	ft := func(p int) sim.Duration { return can.BitTime(can.WorstCaseBits(p), can.DefaultBitRate) }
	rng := sim.NewRNG(4)
	set := workload.MixedSet(8, 0.5, ft, rng)
	u := workload.Utilization(set, ft)
	if u < 0.5 || u > 0.7 {
		t.Fatalf("utilization = %v, want ≈0.5..0.7", u)
	}
	for _, s := range set {
		if s.Node < 0 || s.Node >= 8 {
			t.Fatalf("stream node %d out of range", s.Node)
		}
	}
}
