package can

import (
	"fmt"
	"testing"

	"canec/internal/sim"
)

// rig creates a kernel, bus and n controllers with open filters.
func rig(n int, seed uint64) (*sim.Kernel, *Bus) {
	k := sim.NewKernel(seed)
	b := NewBus(k, DefaultBitRate)
	for i := 0; i < n; i++ {
		b.Attach(TxNode(i))
	}
	return k, b
}

func TestArbitrationLowestIDWins(t *testing.T) {
	k, b := rig(3, 1)
	var order []ID
	for i := 0; i < 3; i++ {
		b.Controller(i).OnReceive = func(f Frame, _ sim.Time) {
			order = append(order, f.ID)
		}
	}
	// Submit three frames at t=0 from different nodes; they must go out in
	// ascending ID order regardless of submission order.
	b.Controller(2).Submit(Frame{ID: MakeID(10, 2, 5)}, SubmitOpts{})
	b.Controller(0).Submit(Frame{ID: MakeID(200, 0, 5)}, SubmitOpts{})
	b.Controller(1).Submit(Frame{ID: MakeID(1, 1, 5)}, SubmitOpts{})
	k.RunUntilIdle()
	// Each frame is received by 2 nodes, so 6 deliveries; check sequence of
	// distinct IDs.
	if len(order) != 6 {
		t.Fatalf("deliveries = %d, want 6", len(order))
	}
	wantSeq := []Prio{1, 1, 10, 10, 200, 200}
	for i, id := range order {
		if id.Prio() != wantSeq[i] {
			t.Fatalf("delivery %d has prio %d, want %d (order %v)", i, id.Prio(), wantSeq[i], order)
		}
	}
}

func TestNonPreemption(t *testing.T) {
	k, b := rig(2, 1)
	var rx []struct {
		id ID
		at sim.Time
	}
	b.Controller(1).OnReceive = func(f Frame, at sim.Time) {
		rx = append(rx, struct {
			id ID
			at sim.Time
		}{f.ID, at})
	}
	b.Controller(0).OnReceive = func(f Frame, at sim.Time) {
		rx = append(rx, struct {
			id ID
			at sim.Time
		}{f.ID, at})
	}
	low := Frame{ID: MakeID(250, 0, 1), Data: make([]byte, 8)}
	b.Controller(0).Submit(low, SubmitOpts{})
	// A higher-priority frame becomes ready 10 µs into the low-priority
	// transmission; it must wait for completion (non-preemptive medium).
	k.At(10*sim.Microsecond, func() {
		b.Controller(1).Submit(Frame{ID: MakeID(0, 1, 2)}, SubmitOpts{})
	})
	k.RunUntilIdle()
	if len(rx) != 2 {
		t.Fatalf("rx = %d, want 2", len(rx))
	}
	if rx[0].id.Prio() != 250 {
		t.Fatalf("first delivery should be the already-started low frame, got %v", rx[0].id)
	}
	lowDur := BitTime(WireBits(low), DefaultBitRate)
	if rx[0].at != lowDur {
		t.Fatalf("low frame completed at %v, want %v", rx[0].at, lowDur)
	}
	if rx[1].at <= rx[0].at {
		t.Fatal("high-priority frame did not wait for bus")
	}
}

func TestSameInstantSubmissionsShareArbitration(t *testing.T) {
	// Both frames submitted at the same instant: even if the lower-priority
	// one is submitted first, the higher-priority one must win.
	k, b := rig(2, 1)
	var first ID
	b.Controller(1).OnReceive = func(f Frame, _ sim.Time) {
		if first == 0 {
			first = f.ID
		}
	}
	b.Controller(0).OnReceive = func(f Frame, _ sim.Time) {
		if first == 0 {
			first = f.ID
		}
	}
	k.At(0, func() {
		b.Controller(0).Submit(Frame{ID: MakeID(99, 0, 1)}, SubmitOpts{})
		b.Controller(1).Submit(Frame{ID: MakeID(1, 1, 1)}, SubmitOpts{})
	})
	k.RunUntilIdle()
	if first.Prio() != 1 {
		t.Fatalf("same-instant arbitration won by prio %d, want 1", first.Prio())
	}
}

func TestErrorRetransmission(t *testing.T) {
	k, b := rig(2, 1)
	b.Injector = AdversarialK{K: 2, Prio: -1} // first 2 attempts fail
	var got int
	var at sim.Time
	b.Controller(1).OnReceive = func(_ Frame, a sim.Time) { got++; at = a }
	f := Frame{ID: MakeID(5, 0, 1), Data: []byte{1, 2}}
	b.Controller(0).Submit(f, SubmitOpts{})
	k.RunUntilIdle()
	if got != 1 {
		t.Fatalf("deliveries = %d, want exactly 1 after retransmissions", got)
	}
	st := b.Stats()
	if st.FramesError != 2 || st.FramesOK != 1 {
		t.Fatalf("stats = %+v, want 2 errors and 1 ok", st)
	}
	// Timing: 3 frame transmissions + 2 error overheads.
	fd := BitTime(WireBits(f), DefaultBitRate)
	ed := BitTime(ErrorOverheadBits, DefaultBitRate)
	want := 3*fd + 2*ed
	if at != want {
		t.Fatalf("final delivery at %v, want %v", at, want)
	}
}

func TestSingleShotAbort(t *testing.T) {
	k, b := rig(2, 1)
	b.Injector = AdversarialK{K: 1, Prio: -1}
	delivered := false
	b.Controller(1).OnReceive = func(Frame, sim.Time) { delivered = true }
	var doneOK *bool
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{
		SingleShot: true,
		Done:       func(ok bool, _ sim.Time) { doneOK = &ok },
	})
	k.RunUntilIdle()
	if delivered {
		t.Fatal("single-shot frame delivered despite error")
	}
	if doneOK == nil || *doneOK {
		t.Fatal("Done callback should report failure")
	}
	if b.Stats().FramesAborted != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestInconsistentOmission(t *testing.T) {
	k, b := rig(3, 1)
	b.Injector = FuncInjector(func(f Frame, sender, attempt int, at sim.Time, rng *sim.RNG) Fault {
		return Fault{Kind: FaultOmission, Victims: map[int]bool{2: true}}
	})
	var rx1, rx2 int
	b.Controller(1).OnReceive = func(Frame, sim.Time) { rx1++ }
	b.Controller(2).OnReceive = func(Frame, sim.Time) { rx2++ }
	senderOK := false
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{
		Done: func(ok bool, _ sim.Time) { senderOK = ok },
	})
	k.RunUntilIdle()
	if rx1 != 1 || rx2 != 0 {
		t.Fatalf("rx1=%d rx2=%d, want 1/0", rx1, rx2)
	}
	if !senderOK {
		t.Fatal("sender must observe success on inconsistent omission")
	}
	if b.Stats().Omissions != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestAcceptanceFilter(t *testing.T) {
	k, b := rig(2, 1)
	var got []Etag
	b.Controller(1).AddFilter(7)
	b.Controller(1).OnReceive = func(f Frame, _ sim.Time) { got = append(got, f.ID.Etag()) }
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 7)}, SubmitOpts{})
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 8)}, SubmitOpts{})
	k.RunUntilIdle()
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("filter passed %v, want [7]", got)
	}
	b.Controller(1).RemoveFilter(7)
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 7)}, SubmitOpts{})
	k.RunUntilIdle()
	if len(got) != 1 {
		t.Fatal("frame passed after filter removal")
	}
}

// The acceptance filter is a bitset over the etag space: no filter set
// accepts everything, the first AddFilter switches to selective
// reception, removing the last filter accepts nothing, and Detach returns
// to the power-up default.
func TestAcceptanceFilterTable(t *testing.T) {
	_, b := rig(1, 1)
	c := b.Controller(0)
	probes := []Etag{0, 1, 63, 64, 65, 7777, MaxEtag - 1, MaxEtag}
	all := func(Etag) bool { return true }
	only := func(want ...Etag) func(Etag) bool {
		return func(e Etag) bool {
			for _, w := range want {
				if w == e {
					return true
				}
			}
			return false
		}
	}
	check := func(step string, accept func(Etag) bool) {
		t.Helper()
		for _, e := range probes {
			// The etag alone decides; priority and node must not.
			for _, id := range []ID{MakeID(0, 0, e), MakeID(MaxPrio, MaxTxNode, e)} {
				if got := c.accepts(id); got != accept(e) {
					t.Fatalf("%s: accepts(%v) = %v, want %v", step, id, got, accept(e))
				}
			}
		}
	}
	check("open", all)
	c.AddFilter(64)
	check("add 64", only(64))
	c.AddFilter(0)
	c.AddFilter(MaxEtag)
	c.AddFilter(63)
	check("add 0 max 63", only(0, 63, 64, MaxEtag))
	c.AddFilter(63) // idempotent
	c.RemoveFilter(64)
	c.RemoveFilter(7777) // never added
	check("remove 64", only(0, 63, MaxEtag))
	c.RemoveFilter(0)
	c.RemoveFilter(63)
	c.RemoveFilter(MaxEtag)
	check("remove last", only()) // selective with nothing admitted
	c.Detach()
	c.Reattach()
	check("detach", all)
	c.RemoveFilter(1) // no filter set: stays open
	check("remove while open", all)
	c.AddFilter(MaxEtag + 1) // matches no identifier, but switches to selective
	check("add out of range", only())
	c.AddFilter(1)
	c.Detach()
	check("detach selective", all)
	c.Reattach()
	c.AddFilter(65)
	check("add 65 after reattach", only(65))
}

func TestUpdatePromotion(t *testing.T) {
	k, b := rig(2, 1)
	var order []Prio
	b.Controller(1).OnReceive = func(f Frame, _ sim.Time) { order = append(order, f.ID.Prio()) }
	// Occupy the bus with a long frame so the two test frames queue.
	blocker := Frame{ID: MakeID(3, 1, 9), Data: make([]byte, 8)}
	b.Controller(1).Submit(blocker, SubmitOpts{})
	k.Run(1 * sim.Microsecond) // blocker is now on the wire
	hA := b.Controller(0).Submit(Frame{ID: MakeID(100, 0, 1)}, SubmitOpts{})
	b.Controller(0).Submit(Frame{ID: MakeID(50, 0, 2)}, SubmitOpts{})
	// Promote frame A above B while both are queued.
	if !b.Controller(0).Update(hA, MakeID(10, 0, 1)) {
		t.Fatal("Update failed on queued frame")
	}
	k.RunUntilIdle()
	if len(order) != 2 || order[0] != 10 || order[1] != 50 {
		t.Fatalf("promotion not honoured: %v", order)
	}
	if b.Stats().IDRewrites != 1 {
		t.Fatalf("IDRewrites = %d, want 1", b.Stats().IDRewrites)
	}
}

func TestUpdateRejectedWhileInFlight(t *testing.T) {
	k, b := rig(2, 1)
	h := b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1), Data: make([]byte, 8)}, SubmitOpts{})
	k.Run(10 * sim.Microsecond) // mid-transmission
	if b.Controller(0).Update(h, MakeID(1, 0, 1)) {
		t.Fatal("Update succeeded on in-flight frame")
	}
	if b.Controller(0).Abort(h) {
		t.Fatal("Abort succeeded on in-flight frame")
	}
	k.RunUntilIdle()
	if b.Controller(0).Update(h, MakeID(1, 0, 1)) {
		t.Fatal("Update succeeded on completed frame")
	}
}

func TestAbortPending(t *testing.T) {
	k, b := rig(2, 1)
	var got int
	b.Controller(1).OnReceive = func(Frame, sim.Time) { got++ }
	blocker := Frame{ID: MakeID(3, 1, 9), Data: make([]byte, 8)}
	b.Controller(1).Submit(blocker, SubmitOpts{})
	k.Run(1 * sim.Microsecond)
	h := b.Controller(0).Submit(Frame{ID: MakeID(100, 0, 1)}, SubmitOpts{})
	if !b.Controller(0).Abort(h) {
		t.Fatal("Abort failed on queued frame")
	}
	k.RunUntilIdle()
	if got != 0 {
		t.Fatalf("aborted frame delivered %d times", got)
	}
}

func TestMutedNodeNeitherSendsNorReceives(t *testing.T) {
	k, b := rig(3, 1)
	var rx2 int
	b.Controller(2).OnReceive = func(Frame, sim.Time) { rx2++ }
	b.Controller(2).Mute(true)
	b.Controller(1).Submit(Frame{ID: MakeID(9, 1, 1)}, SubmitOpts{})
	b.Controller(2).Submit(Frame{ID: MakeID(1, 2, 1)}, SubmitOpts{})
	k.RunUntilIdle()
	if rx2 != 0 {
		t.Fatal("muted node received a frame")
	}
	if b.Stats().FramesOK != 1 {
		t.Fatalf("stats = %+v: muted node's frame should stay queued", b.Stats())
	}
	// Unmute: the queued frame goes out.
	b.Controller(2).Mute(false)
	k.RunUntilIdle()
	if b.Stats().FramesOK != 2 {
		t.Fatalf("unmuted node did not transmit: %+v", b.Stats())
	}
}

func TestDuplicateIDCollision(t *testing.T) {
	// Two nodes driving the same identifier both pass arbitration; the
	// first differing bit corrupts the frame for everyone (error frame).
	// Single-shot senders observe the failure — this is what the dynamic
	// configuration protocol keys on.
	k, b := rig(3, 1)
	var rx int
	b.Controller(2).OnReceive = func(Frame, sim.Time) { rx++ }
	fail0, fail1 := false, false
	c1 := b.Controller(1)
	c1.txnode = 0 // forge a TxNode collision
	k.At(0, func() {
		b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1), Data: []byte{1}}, SubmitOpts{
			SingleShot: true,
			Done:       func(ok bool, _ sim.Time) { fail0 = !ok },
		})
		c1.Submit(Frame{ID: MakeID(5, 0, 1), Data: []byte{2}}, SubmitOpts{
			SingleShot: true,
			Done:       func(ok bool, _ sim.Time) { fail1 = !ok },
		})
	})
	k.RunUntilIdle()
	if rx != 0 {
		t.Fatalf("collided frame delivered %d times", rx)
	}
	if !fail0 || !fail1 {
		t.Fatalf("collision not reported to both senders: %v %v", fail0, fail1)
	}
	st := b.Stats()
	if st.FramesError != 1 || st.FramesAborted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	k, b := rig(2, 1)
	f := Frame{ID: MakeID(5, 0, 1), Data: []byte{1, 2, 3, 4}}
	b.Controller(0).Submit(f, SubmitOpts{})
	k.RunUntilIdle()
	want := BitTime(WireBits(f), DefaultBitRate)
	if b.Stats().BusyTime != want {
		t.Fatalf("BusyTime = %v, want %v", b.Stats().BusyTime, want)
	}
}

func TestTraceEvents(t *testing.T) {
	k, b := rig(2, 1)
	var kinds []TraceKind
	b.Trace = func(e TraceEvent) { kinds = append(kinds, e.Kind) }
	b.Injector = AdversarialK{K: 1, Prio: -1}
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	k.RunUntilIdle()
	want := []TraceKind{TraceTxStart, TraceTxError, TraceTxStart, TraceTxOK, TraceRx}
	if len(kinds) != len(want) {
		t.Fatalf("trace = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace = %v, want %v", kinds, want)
		}
	}
}

// arbTraceRun submits two competing frames and returns the trace kinds.
func arbTraceRun(t *testing.T, traceArb bool) []TraceKind {
	t.Helper()
	k, b := rig(2, 1)
	var kinds []TraceKind
	b.Trace = func(e TraceEvent) { kinds = append(kinds, e.Kind) }
	b.TraceArbitration = traceArb
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 1)}, SubmitOpts{})
	b.Controller(1).Submit(Frame{ID: MakeID(9, 1, 2)}, SubmitOpts{})
	k.RunUntilIdle()
	return kinds
}

func TestTraceArbitration(t *testing.T) {
	// Off (the default): the competing frame loses silently, so the
	// stream is exactly two plain transmissions.
	plain := arbTraceRun(t, false)
	wantPlain := []TraceKind{TraceTxStart, TraceTxOK, TraceRx,
		TraceTxStart, TraceTxOK, TraceRx}
	if fmt.Sprint(plain) != fmt.Sprint(wantPlain) {
		t.Fatalf("trace = %v, want %v", plain, wantPlain)
	}

	// On: the same run additionally reports who won and who lost each
	// contested round, before the winner's TX-START.
	arb := arbTraceRun(t, true)
	wantArb := []TraceKind{TraceArbWin, TraceArbLoss, TraceTxStart, TraceTxOK, TraceRx,
		TraceArbWin, TraceTxStart, TraceTxOK, TraceRx}
	if fmt.Sprint(arb) != fmt.Sprint(wantArb) {
		t.Fatalf("arbitration trace = %v, want %v", arb, wantArb)
	}
}

// Submit copies the payload, and every receiver and the trace hook get
// the one frame of the transmission: equal bytes, unaffected by the
// submitter reusing its buffer. The frame is valid for the callback only:
// once the transmission ended its record carries later traffic, so a
// slice kept past the callback shows the reuse, and a receiver that
// keeps the bytes copies them.
func TestFrameSharedAcrossReceivers(t *testing.T) {
	k, b := rig(3, 1)
	var rx [][]byte
	for i := 1; i < 3; i++ {
		b.Controller(i).OnReceive = func(f Frame, _ sim.Time) { rx = append(rx, f.Data) }
	}
	var traced [][]byte
	b.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceRx {
			traced = append(traced, ev.Frame.Data)
		}
	}
	buf := []byte{1, 2, 3, 4}
	b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 0x10), Data: buf}, SubmitOpts{})
	for i := range buf {
		buf[i] = 0xee // the submitter reuses its buffer at once
	}
	k.RunUntilIdle()
	if len(rx) != 2 || len(traced) != 2 {
		t.Fatalf("%d receptions, %d traced", len(rx), len(traced))
	}
	want := []byte{1, 2, 3, 4}
	for i, d := range append(rx, traced...) {
		if string(d) != string(want) {
			t.Fatalf("view %d = %v, want %v", i, d, want)
		}
	}
	if &rx[0][0] != &rx[1][0] || &rx[0][0] != &traced[0][0] {
		t.Fatal("receivers of one transmission got different frames")
	}
	kept := string(rx[0]) // what a contract-abiding receiver keeps
	for i := 0; i < 4; i++ {
		b.Controller(0).Submit(Frame{ID: MakeID(5, 0, 0x10), Data: []byte{9, 9, 9, byte(i)}}, SubmitOpts{})
		k.RunUntilIdle()
	}
	if len(rx) != 10 || string(rx[9]) != string([]byte{9, 9, 9, 3}) {
		t.Fatalf("later traffic: %d receptions, last %v", len(rx), rx[len(rx)-1])
	}
	if &rx[0][0] != &rx[9][0] || string(rx[0]) != string(rx[9]) {
		t.Fatalf("retained first frame %v: want the reused record's bytes %v", rx[0], rx[9])
	}
	if kept != string(want) {
		t.Fatalf("copied bytes %v, want %v", []byte(kept), want)
	}
}

// stageCounter counts probe ops and sums wallNs per stage.
type stageCounter struct {
	ops [sim.NumProbeStages]int
	ns  [sim.NumProbeStages]int64
}

func (c *stageCounter) StageNs(s sim.ProbeStage, _ sim.ProbeClass, wallNs int64) {
	c.ops[s]++
	c.ns[s] += wallNs
}

// TestArbitrationRoundProbeOps pins what one arbitration round reports to
// the kernel's probe: a round with a winner is one arbitration op and
// one codec op (the winner's wire length), and an idle round is one
// arbitration op and no codec op. On an untimed step both report 0 ns;
// on a timed step each op is one sample of its stage.
func TestArbitrationRoundProbeOps(t *testing.T) {
	k, b := rig(2, 1)
	var c stageCounter
	k.SetProbe(&c)

	// round steps the kicked arbitration round and checks its report.
	var timedWins, timedIdle int
	round := func(wantWin bool) {
		t.Helper()
		c = stageCounter{}
		before := k.ProbeTotals()
		k.Step()
		if b.busy != wantWin {
			t.Fatalf("bus busy %v after the round, want %v", b.busy, wantWin)
		}
		codec := 0
		if wantWin {
			codec = 1
		}
		if c.ops[sim.ProbeArbitration] != 1 || c.ops[sim.ProbeCodec] != codec {
			t.Fatalf("round (win %v): %d arbitration ops, %d codec ops; want 1 and %d",
				wantWin, c.ops[sim.ProbeArbitration], c.ops[sim.ProbeCodec], codec)
		}
		after := k.ProbeTotals()
		arbS := after.Samples[sim.ProbeArbitration][sim.ProbeClassNone] - before.Samples[sim.ProbeArbitration][sim.ProbeClassNone]
		codecS := after.Samples[sim.ProbeCodec][sim.ProbeClassNone] - before.Samples[sim.ProbeCodec][sim.ProbeClassNone]
		if after.TimedSteps == before.TimedSteps {
			if c.ns[sim.ProbeArbitration] != 0 || c.ns[sim.ProbeCodec] != 0 || arbS != 0 || codecS != 0 {
				t.Fatalf("untimed round reported %d/%d ns, %d/%d samples", c.ns[sim.ProbeArbitration],
					c.ns[sim.ProbeCodec], arbS, codecS)
			}
			return
		}
		if arbS != 1 || codecS != uint64(codec) {
			t.Fatalf("timed round (win %v): %d arbitration and %d codec samples", wantWin, arbS, codecS)
		}
		if wantWin {
			timedWins++
		} else {
			timedIdle++
		}
	}
	for i := 0; i < 20*64; i++ {
		b.Controller(0).Submit(Frame{ID: MakeID(10, 0, 5), Data: []byte{1, 2}}, SubmitOpts{})
		round(true)
		k.RunUntilIdle()

		h := b.Controller(1).Submit(Frame{ID: MakeID(20, 1, 5)}, SubmitOpts{})
		if !b.Controller(1).Abort(h) {
			t.Fatal("abort before arbitration failed")
		}
		round(false) // the kicked round finds nothing pending
	}
	if timedWins == 0 || timedIdle == 0 {
		t.Fatalf("%d timed winning and %d timed idle rounds, want both", timedWins, timedIdle)
	}
}
