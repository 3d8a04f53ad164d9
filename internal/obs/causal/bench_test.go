package causal

import (
	"testing"

	"canec/internal/obs"
	"canec/internal/sim"
)

// seq is the hot publish→deliver emission sequence, as in
// BenchmarkObserverOverhead.
func seq(o *obs.Observer, at sim.Time) {
	id := o.Begin(obs.ClassSRT, 0, 0x42, at)
	o.Emit(id, obs.StageEnqueued, obs.ClassSRT, 0, 0x42, at+10, 0)
	o.Delivered(id, obs.ClassSRT, 1, 0x42, at, at+200_000, 0)
}

// TestCausalDetachedZeroAllocs is the companion of
// TestNilObserverZeroAllocs for the why-late engine: an observer that
// had a causal analyzer attached and then detached must allocate exactly
// as much per frame as one that never saw the analyzer — the engine-off
// hot path is a single nil check.
func TestCausalDetachedZeroAllocs(t *testing.T) {
	build := func() *obs.Observer {
		return obs.New(obs.Config{Metrics: true}, func() sim.Time { return 0 }, obs.BandMap{})
	}
	baseline := build()
	detached := build()
	detached.AttachCausal(New(Config{}))
	detached.AttachCausal(nil)
	if detached.Causal() != nil {
		t.Fatal("AttachCausal(nil) did not detach")
	}
	// Warm both observers identically so label-map growth is behind us.
	var at sim.Time
	for i := 0; i < 100; i++ {
		seq(baseline, at)
		seq(detached, at)
		at += 1000
	}
	base := testing.AllocsPerRun(1000, func() { seq(baseline, at); at += 1000 })
	at -= 1001 * 1000
	got := testing.AllocsPerRun(1000, func() { seq(detached, at); at += 1000 })
	if got != base {
		t.Fatalf("detached causal path allocates %v allocs/op, baseline %v — engine-off must add 0", got, base)
	}
}

// onTimeChain is one SRT delivery that waits behind a foreign frame and
// loses its first attempt to an error frame, shifted to start at at.
func onTimeChain(a *Analyzer, id uint64, at sim.Time) {
	for _, r := range [...]obs.Record{
		{ID: id + 1, Stage: obs.StageTxStart, At: 0, Node: 5, Subject: 0x42, Attempt: 1},
		{ID: id, Stage: obs.StagePublished, At: 10, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: id, Stage: obs.StageEnqueued, At: 10, Node: 0, Class: obs.ClassSRT, Subject: 0x300, Detail: obs.Text("prio 9")},
		{ID: id + 1, Stage: obs.StageTxOK, At: 100, Node: 5, Subject: 0x42},
		{ID: id, Stage: obs.StageArbWon, At: 100, Node: 0, Subject: 0x300},
		{ID: id, Stage: obs.StageTxStart, At: 110, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: id, Stage: obs.StageTxErr, At: 150, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: id, Stage: obs.StageTxStart, At: 160, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: id, Stage: obs.StageTxOK, At: 260, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: id, Stage: obs.StageRx, At: 260, Node: 1, Subject: 0x300},
		{ID: id, Stage: obs.StageDelivered, At: 270, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	} {
		r.At += at
		a.Add(r)
	}
}

// TestAnalyzerOnTimeChainZeroAllocs pins the engine's steady state: a
// warmed analyzer with a registry attributes an on-time chain — carved
// against an interfering span, with an error retransmit — and folds it
// into the profile and the canec_why_* families without allocating.
func TestAnalyzerOnTimeChainZeroAllocs(t *testing.T) {
	a := New(Config{Registry: obs.NewRegistry()})
	var id uint64
	var at sim.Time
	next := func() {
		id += 2
		at += 1000
		onTimeChain(a, id, at)
	}
	for i := 0; i < 100; i++ {
		next()
	}
	if got := testing.AllocsPerRun(1000, next); got != 0 {
		t.Fatalf("on-time chain allocates %v allocs/chain, want 0", got)
	}
	p := a.Snapshot().Classes[0]
	if p.Late+p.Dropped != 0 || len(a.recent) != 0 {
		t.Fatalf("chains were not on time: %+v", p)
	}
	debits := map[Cause]sim.Duration{}
	for _, cs := range p.Causes {
		debits[cs.Cause] = cs.DebitNS
	}
	n := sim.Duration(p.Chains)
	if debits[CauseArbInterference] != 90*n || debits[CauseErrorRetransmit] != 50*n {
		t.Fatalf("chains not carved as intended: %+v", p.Causes)
	}
}

// BenchmarkCausalOverhead measures the attached analyzer's per-frame
// cost next to the plain metrics path.
func BenchmarkCausalOverhead(b *testing.B) {
	b.Run("metrics", func(b *testing.B) {
		o := obs.New(obs.Config{Metrics: true}, func() sim.Time { return 0 }, obs.BandMap{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq(o, sim.Time(i)*1000)
		}
	})
	b.Run("metrics+causal", func(b *testing.B) {
		o := obs.New(obs.Config{Metrics: true}, func() sim.Time { return 0 }, obs.BandMap{})
		o.AttachCausal(New(Config{}))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq(o, sim.Time(i)*1000)
		}
	})
}
