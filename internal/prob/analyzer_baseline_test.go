package prob_test

import (
	"testing"

	"canec/internal/baseline"
	"canec/internal/prob"
	"canec/internal/sim"
	"canec/internal/workload"
)

// TestZeroErrorRecoversBaselineWCRT pins the other deterministic
// anchor: with a zero error model, the analyzer's response (a point
// mass) equals the Tindell fixed point of BusyWindow for the same
// message set, at the values the retired baseline.WCRT computed.
func TestZeroErrorRecoversBaselineWCRT(t *testing.T) {
	set := []prob.Msg{
		{Prio: 1, Period: 2 * sim.Millisecond, Payload: 8, Deadline: 2 * sim.Millisecond},
		{Prio: 2, Period: 5 * sim.Millisecond, Payload: 4, Deadline: 5 * sim.Millisecond},
		{Prio: 3, Period: 10 * sim.Millisecond, Payload: 8, Deadline: 10 * sim.Millisecond},
		{Prio: 4, Period: 20 * sim.Millisecond, Payload: 2, Deadline: 20 * sim.Millisecond},
	}
	wants := []sim.Duration{320 * sim.Microsecond, 440 * sim.Microsecond, 540 * sim.Microsecond, 540 * sim.Microsecond}
	a := prob.Analyzer{}
	for i, want := range wants {
		w, err := a.BusyWindow(set, i)
		if err != nil || w != want {
			t.Errorf("msg %d: busy window %v (err %v), want %v", i, w, err, want)
		}
		res, err := a.Response(set, i)
		if err != nil {
			t.Fatalf("prob response msg %d: %v", i, err)
		}
		if res.ZeroError != want {
			t.Errorf("msg %d: zero-error response %v, want %v", i, res.ZeroError, want)
		}
		got, ok := res.Dist.Quantile(1)
		if !ok || got != want {
			t.Errorf("msg %d: distribution max %v (ok=%v), want %v", i, got, ok, want)
		}
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
	prios, _ := baseline.DeadlineMonotonic([]sim.Duration{2 * sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond}, 2, 250)
	set := make([]prob.Msg, len(streams))
	for i, s := range streams {
		set[i] = prob.Msg{Prio: prios[i], Period: s.Period, Payload: s.Payload}
	}
	rng := sim.NewRNG(1)
	jobs := workload.GenJobs(rng, streams, 2*sim.Second)
	out := baseline.RunDM(streams, jobs, 2, 250, 1, 3*sim.Second)
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
		bound, err := prob.Analyzer{}.BusyWindow(set, i)
		if err != nil {
			t.Fatal(err)
		}
		if worst[i] > bound {
			t.Fatalf("stream %d: simulated worst %v exceeds analysis bound %v", i, worst[i], bound)
		}
	}
}
