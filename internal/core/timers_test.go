package core

import (
	"fmt"
	"reflect"
	"testing"

	"canec/internal/sim"
)

// While holdover widens hrtSlack() past a round, the miss check of one
// slot occurrence is still pending when the next occurrence's delivery
// deadline arrives. Every occurrence must keep its own check: one
// SlotMissed per round, each exactly deadline+slack after its own round.
func TestHRTMissCheckOverlapUnderWidenedSlack(t *testing.T) {
	cal := testCalendar(t, 0)
	sys := idealSystem(t, 2, cal)
	mw := sys.Node(1).MW
	slack := 2*cal.Round + cal.Round/2 // three checks in flight at once
	mw.Health = stubHealth{u: slack}
	sub, err := mw.HRTEC(subjTemp)
	if err != nil {
		t.Fatal(err)
	}
	type miss struct {
		at     sim.Time
		detail string
	}
	var got []miss
	err = sub.Subscribe(ChannelAttrs{Payload: 7, Periodic: true}, SubscribeAttrs{}, nil,
		func(e Exception) {
			if e.Kind == ExcSlotMissed {
				got = append(got, miss{e.At, e.Detail()})
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody publishes. After five rounds synchronization "recovers" and
	// the slack narrows back below a round.
	const wideRounds, rounds = 5, 9
	narrow := 2 * cal.Cfg.Precision
	deadline := func(r int) sim.Time {
		return sys.Cfg.Epoch + sim.Time(r)*cal.Round + cal.Slots[0].Deadline(cal.Cfg)
	}
	sys.K.At(deadline(wideRounds)-1, func() { mw.Health = stubHealth{u: 0} })
	sys.Run(deadline(rounds-1) + narrow + 1)

	var want []miss
	for r := 0; r < rounds; r++ {
		s := slack
		if r >= wideRounds {
			s = narrow
		}
		want = append(want, miss{deadline(r) + s, fmt.Sprintf("no event from node 0 in round %d", r)})
	}
	// Checks fire in time order, not round order, once the slack narrowed.
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && want[j].at < want[j-1].at; j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot misses:\n got  %v\n want %v", got, want)
	}
	if c := mw.Counters(); c.SlotMissed != rounds || c.HoldoverWidened != wideRounds {
		t.Fatalf("SlotMissed %d (want %d), HoldoverWidened %d (want %d)",
			c.SlotMissed, rounds, c.HoldoverWidened, wideRounds)
	}
}

// A queued SRT event's promotion step — wake up, map the laxity, rewrite
// the identifier, arm the next step — must not allocate.
func TestSRTPromotionStepZeroAllocs(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	mw := sys.Node(0).MW
	srt, err := mw.SRTEC(subjDiag)
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	// A muted controller keeps the frame queued, so only promotion timers
	// run on the kernel.
	sys.Node(0).Ctrl.Mute(true)
	err = srt.Publish(Event{Subject: subjDiag, Payload: []byte{1},
		Attrs: EventAttrs{Deadline: mw.LocalTime() + 60*sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	for mw.Counters().PromotionsApplied < 3 {
		if !sys.K.Step() {
			t.Fatal("promotion chain ended early")
		}
	}
	before := mw.Counters().PromotionsApplied
	const runs = 100
	per := testing.AllocsPerRun(runs, func() { sys.K.Step() })
	if per != 0 {
		t.Errorf("promotion step: %.2f allocs, want 0", per)
	}
	if got := mw.Counters().PromotionsApplied - before; got != runs+1 {
		t.Fatalf("%d promotions in %d steps", got, runs+1)
	}
	if rewrites := sys.Bus.Stats().IDRewrites; rewrites != mw.Counters().PromotionsApplied {
		t.Fatalf("IDRewrites %d != PromotionsApplied %d", rewrites, mw.Counters().PromotionsApplied)
	}
}

// A recycled SRT entry keeps the timers bound when its record was made:
// taking it from the free list, arming promotion and expiration, and
// handing it back allocates nothing.
func TestSRTRecycledEntryTimersZeroAllocs(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	mw := sys.Node(0).MW
	srt, err := mw.SRTEC(subjDiag)
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	sys.Node(0).Ctrl.Mute(true)
	now := mw.LocalTime()
	err = srt.Publish(Event{Subject: subjDiag, Payload: []byte{1},
		Attrs: EventAttrs{Deadline: now + 60*sim.Millisecond, Expiration: now + 80*sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ch := srt.ch
	srt.CancelPublication() // aborted in the controller: straight back to the free list
	free := freeSRT(ch)
	if len(free) != 1 {
		t.Fatalf("%d free entries after cancel, want 1", len(free))
	}
	rec := free[0]
	per := testing.AllocsPerRun(100, func() {
		e := ch.newSRTEntry()
		e.deadline, e.expiration, e.prio = now+60*sim.Millisecond, now+80*sim.Millisecond, mw.bands.SRT.Max
		e.idx = len(ch.srtActive)
		ch.srtActive = append(ch.srtActive, e)
		e.armPromotion()
		e.expiry.Arm(e.expiration)
		if !e.promo.Armed() || !e.expiry.Armed() {
			t.Fatal("timers not armed")
		}
		e.finish()
		e.release()
	})
	if per != 0 {
		t.Errorf("re-arming a recycled entry: %.2f allocs, want 0", per)
	}
	if free := freeSRT(ch); len(free) != 1 || free[0] != rec || rec.promo.Armed() || rec.expiry.Armed() {
		t.Fatal("want the one record back on the free list with both timers stopped")
	}
}

// A completed SRT entry takes its promotion and expiration timers with it
// instead of leaving them to fire dead.
func TestSRTEntryStopsTimersWhenDone(t *testing.T) {
	sys := idealSystem(t, 2, nil)
	mw := sys.Node(0).MW
	srt, err := mw.SRTEC(subjDiag)
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.Announce(ChannelAttrs{}, nil); err != nil {
		t.Fatal(err)
	}
	now := mw.LocalTime()
	err = srt.Publish(Event{Subject: subjDiag, Payload: []byte{1},
		Attrs: EventAttrs{Deadline: now + 20*sim.Millisecond, Expiration: now + 30*sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.K.Pending() != 3 { // arbitration, promotion, expiration
		t.Fatalf("pending after publish: %d, want 3", sys.K.Pending())
	}
	sys.Run(sim.Millisecond) // the idle bus sends the frame at once
	if len(srt.ch.srtActive) != 0 || sys.Bus.Stats().FramesOK != 1 {
		t.Fatalf("not sent: queued %d, frames %d", len(srt.ch.srtActive), sys.Bus.Stats().FramesOK)
	}
	if sys.K.Pending() != 0 {
		t.Fatalf("%d kernel events left behind by a completed entry", sys.K.Pending())
	}
}

// One round of a reserved slot nobody published into — fire, count the
// unused slot, re-arm for the next round — must not allocate.
func TestHRTEmptySlotRoundZeroAllocs(t *testing.T) {
	cal := testCalendar(t, 1)
	sys := idealSystem(t, 2, cal)
	mw := sys.Node(0).MW
	pub, err := mw.HRTEC(subjTemp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce(ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
		t.Fatal(err)
	}
	sys.K.Step()
	const runs = 100
	per := testing.AllocsPerRun(runs, func() { sys.K.Step() })
	if per != 0 {
		t.Errorf("empty slot round: %.2f allocs, want 0", per)
	}
	if got := mw.Counters().SlotsUnused; got != runs+2 {
		t.Fatalf("SlotsUnused = %d after %d rounds", got, runs+2)
	}
	if want := sys.Cfg.Epoch + sim.Time(runs+1)*cal.Round + cal.Slots[0].Ready; sys.K.Now() != want {
		t.Fatalf("now %v, want %v (one round per step)", sys.K.Now(), want)
	}
}
