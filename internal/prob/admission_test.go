package prob

import (
	"testing"

	"canec/internal/sim"
)

// Counts returns the running admitted/rejected/shed totals.
func (c *Controller) Counts() (admitted, rejected, shed uint64) {
	return c.admittedTotal, c.rejectedTotal, c.shedTotal
}

func testController(targetSRT float64, rate float64) (*Controller, *sim.Time) {
	now := new(sim.Time)
	cfg := AdmissionConfig{
		Targets:  ClassTargets{SRT: targetSRT},
		Analyzer: Analyzer{Model: ErrorModel{ErrorRate: rate}},
	}
	return NewController(cfg, func() sim.Time { return *now }), now
}

func srtReq(node int, subject uint64, period, deadline sim.Duration) ChannelReq {
	return ChannelReq{Node: node, Subject: subject, Class: "SRT",
		Payload: 8, Period: period, Deadline: deadline}
}

// TestAdmitWithinTarget: a lightly loaded channel with a generous
// deadline is admitted and its predicted miss probability is below the
// target.
func TestAdmitWithinTarget(t *testing.T) {
	c, _ := testController(0.05, 0.1)
	d := c.Request(srtReq(0, 1, 5*sim.Millisecond, 3*sim.Millisecond))
	if !d.Admitted {
		t.Fatalf("rejected: %+v", d)
	}
	if d.MissProb > 0.05 {
		t.Fatalf("admitted with miss prob %v above target", d.MissProb)
	}
	if a, r, s := c.Counts(); a != 1 || r != 0 || s != 0 {
		t.Fatalf("counts %d/%d/%d", a, r, s)
	}
}

// TestRejectTightDeadline: a deadline shorter than one worst-case frame
// cannot be met and is rejected with the typed miss-probability reason
// and a backoff hint.
func TestRejectTightDeadline(t *testing.T) {
	c, _ := testController(0.05, 0.1)
	d := c.Request(srtReq(0, 1, 5*sim.Millisecond, 100*sim.Microsecond))
	if d.Admitted {
		t.Fatal("tight deadline admitted")
	}
	if d.Reason != ReasonMissProb {
		t.Fatalf("reason %v, want %v", d.Reason, ReasonMissProb)
	}
	if d.RetryAfter <= 0 {
		t.Fatal("rejection carries no backoff hint")
	}
}

// TestRejectUndeclared: channels without declared period/deadline
// cannot be analyzed and are rejected with the typed reason.
func TestRejectUndeclared(t *testing.T) {
	c, _ := testController(0.05, 0.1)
	if d := c.Request(srtReq(0, 1, 0, 0)); d.Admitted || d.Reason != ReasonUndeclared {
		t.Fatalf("undeclared channel: %+v", d)
	}
}

// TestBackoffCappedExponential: repeated rejected requests back off
// exponentially up to the cap, and requests inside the window are
// rejected with ReasonBackoff without re-analysis.
func TestBackoffCappedExponential(t *testing.T) {
	c, now := testController(0.05, 0.1)
	req := srtReq(0, 1, 5*sim.Millisecond, 100*sim.Microsecond)

	d1 := c.Request(req)
	if d1.Reason != ReasonMissProb {
		t.Fatalf("first rejection reason %v", d1.Reason)
	}
	// Inside the window: backoff reason, no analysis.
	d2 := c.Request(req)
	if d2.Reason != ReasonBackoff {
		t.Fatalf("second rejection reason %v, want backoff", d2.Reason)
	}
	// Step past windows repeatedly: the armed backoff must grow and cap.
	last := d1.RetryAfter
	grew := false
	for i := 0; i < 12; i++ {
		*now += sim.Time(2 * sim.Second)
		d := c.Request(req)
		if d.Reason != ReasonMissProb {
			t.Fatalf("iter %d: reason %v", i, d.Reason)
		}
		if d.RetryAfter > last {
			grew = true
		}
		if d.RetryAfter > 2*sim.Second {
			t.Fatalf("iter %d: backoff %v above cap", i, d.RetryAfter)
		}
		last = d.RetryAfter
	}
	if !grew {
		t.Fatal("backoff never grew")
	}
	if last != 2*sim.Second {
		t.Fatalf("backoff did not reach the cap: %v", last)
	}
}

// TestNewcomerCannotDegradeAdmitted: once channels are admitted, a
// newcomer whose interference would push them over target is the one
// rejected (no silent across-the-board degradation).
func TestNewcomerCannotDegradeAdmitted(t *testing.T) {
	c, _ := testController(0.02, 0.15)
	// First channel: comfortable.
	if d := c.Request(srtReq(0, 1, 2*sim.Millisecond, 1500*sim.Microsecond)); !d.Admitted {
		t.Fatalf("first channel rejected: %+v", d)
	}
	// Greedy newcomers: each admitted channel adds interference. At
	// some point a newcomer must be rejected while ALL previously
	// admitted channels keep their target.
	rejected := false
	for s := uint64(2); s <= 12; s++ {
		d := c.Request(srtReq(int(s%4), s, 2*sim.Millisecond, 1500*sim.Microsecond))
		if !d.Admitted {
			rejected = true
			if d.Reason != ReasonMissProb && d.Reason != ReasonUnschedulable {
				t.Fatalf("subject %d: reason %v", s, d.Reason)
			}
			break
		}
	}
	if !rejected {
		t.Fatal("controller admitted unbounded load")
	}
	for _, e := range c.Snapshot().Admitted {
		if e.MissProb > 0.02 {
			t.Errorf("admitted channel %d predicts miss %v above target", e.Channel.Subject, e.MissProb)
		}
	}
}

// TestErrorStateShedsMarginalLIFO: raising the measured error rate
// re-evaluates the admitted set and sheds the most recently admitted
// violating channels first, with the typed error-state reason and an
// armed re-admission backoff.
func TestErrorStateShedsMarginalLIFO(t *testing.T) {
	c, now := testController(0.05, 0.02)
	// Admit three channels under the low planned rate. Deadlines are
	// chosen so the earliest channel is robust (generous deadline) and
	// later ones are marginal.
	reqs := []ChannelReq{
		srtReq(0, 1, 4*sim.Millisecond, 3500*sim.Microsecond),
		srtReq(1, 2, 4*sim.Millisecond, 1200*sim.Microsecond),
		srtReq(2, 3, 4*sim.Millisecond, 1200*sim.Microsecond),
	}
	for i, r := range reqs {
		if d := c.Request(r); !d.Admitted {
			t.Fatalf("channel %d rejected under planned rate: %+v", i, d)
		}
	}
	// The measured rate jumps (error-passive observed on the wire).
	shed := c.SetMeasuredRate(0.30)
	if len(shed) == 0 {
		t.Fatal("raised rate shed nothing")
	}
	for _, s := range shed {
		if s.Reason != ReasonErrorState {
			t.Errorf("shed reason %v, want %v", s.Reason, ReasonErrorState)
		}
		if s.Channel.Subject == 1 {
			t.Error("the earliest, robust channel was shed")
		}
	}
	// LIFO: subject 3 (admitted last) must be shed before subject 2.
	if shed[0].Channel.Subject != 3 {
		t.Errorf("first shed subject %d, want most recently admitted (3)", shed[0].Channel.Subject)
	}
	// Survivors all meet the target under the raised rate.
	snap := c.Snapshot()
	for _, e := range snap.Admitted {
		if e.MissProb > 0.05 {
			t.Errorf("survivor %d misses at %v", e.Channel.Subject, e.MissProb)
		}
	}
	if snap.EffectiveRate != 0.30 {
		t.Errorf("effective rate %v", snap.EffectiveRate)
	}
	// Shed channels are in backoff: immediate re-request is refused.
	for _, s := range shed {
		if d := c.Request(s.Channel); d.Admitted || d.Reason != ReasonBackoff {
			t.Errorf("shed channel %d re-admitted immediately: %+v", s.Channel.Subject, d)
		}
	}
	// After the rate recovers and the backoff expires, re-admission
	// succeeds again.
	c.SetMeasuredRate(0)
	*now += sim.Time(10 * sim.Second)
	if d := c.Request(shed[0].Channel); !d.Admitted {
		t.Errorf("recovered channel not re-admitted: %+v", d)
	}
}

// TestReleaseFreesCapacity: releasing an admitted channel removes its
// interference so a previously rejected newcomer fits.
func TestReleaseFreesCapacity(t *testing.T) {
	c, now := testController(0.02, 0.15)
	var admitted []ChannelReq
	var rejectedReq ChannelReq
	for s := uint64(1); s <= 12; s++ {
		r := srtReq(int(s%4), s, 2*sim.Millisecond, 1500*sim.Microsecond)
		if d := c.Request(r); d.Admitted {
			admitted = append(admitted, r)
		} else {
			rejectedReq = r
			break
		}
	}
	if rejectedReq.Subject == 0 {
		t.Skip("set never saturated (analysis too permissive)")
	}
	for _, r := range admitted {
		c.Release(r.Node, r.Subject)
	}
	*now += sim.Time(10 * sim.Second) // clear the backoff window
	if d := c.Request(rejectedReq); !d.Admitted {
		t.Fatalf("newcomer still rejected after releases: %+v", d)
	}
}

// TestUncontrolledClassAdmitted: a class without a target is admitted
// but still tracked as interference.
func TestUncontrolledClassAdmitted(t *testing.T) {
	c, _ := testController(0.05, 0.1)
	d := c.Request(ChannelReq{Node: 0, Subject: 9, Class: "NRT", Prio: 252,
		Payload: 8, Period: sim.Millisecond, Deadline: sim.Millisecond})
	if !d.Admitted {
		t.Fatalf("uncontrolled NRT rejected: %+v", d)
	}
	if len(c.Snapshot().Admitted) != 1 {
		t.Fatal("uncontrolled channel not tracked")
	}
}

// TestSnapshotShape: the snapshot carries the fields the admin plane
// and canecstat render.
func TestSnapshotShape(t *testing.T) {
	c, _ := testController(0.05, 0.1)
	c.Request(srtReq(0, 1, 5*sim.Millisecond, 3*sim.Millisecond))
	c.Request(srtReq(1, 2, 5*sim.Millisecond, 50*sim.Microsecond)) // rejected
	s := c.Snapshot()
	if !s.Enabled || s.AdmittedTotal != 1 || s.RejectedTotal != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Rejected[ReasonMissProb.String()] != 1 {
		t.Fatalf("rejected-by-reason %+v", s.Rejected)
	}
	if s.PredictedMissSRT <= 0 {
		t.Fatal("predicted SRT miss missing")
	}
	if s.PlannedRate != 0.1 || s.EffectiveRate != 0.1 {
		t.Fatalf("rates %+v", s)
	}
}
