package core

import (
	"math/rand"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/sim"
)

// geometryCalendars are the core tests' calendars: the single-slot one
// at omission degrees 0–2, the multi-rate plans of multirate_test.go,
// and a plan whose slots run at four rates, one publisher owning two of
// them.
func geometryCalendars(t *testing.T) map[string]*calendar.Calendar {
	t.Helper()
	plan := func(reqs ...calendar.Request) *calendar.Calendar {
		cal, err := calendar.Plan(calendar.DefaultConfig(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return cal
	}
	ms := sim.Millisecond
	return map[string]*calendar.Calendar{
		"k0": testCalendar(t, 0),
		"k1": testCalendar(t, 1),
		"k2": testCalendar(t, 2),
		"multirate": plan(
			calendar.Request{Subject: 0xA1, Publisher: 0, Payload: 8, Period: 10 * ms, Periodic: true},
			calendar.Request{Subject: 0xA2, Publisher: 1, Payload: 8, Period: 20 * ms, Periodic: true},
			calendar.Request{Subject: 0xA3, Publisher: 2, Payload: 8, Period: 20 * ms, Periodic: true}),
		"multirate-miss": plan(
			calendar.Request{Subject: 0xB1, Publisher: 0, Payload: 8, Period: 10 * ms, Periodic: true},
			calendar.Request{Subject: 0xB2, Publisher: 1, Payload: 8, Period: 40 * ms, Periodic: true}),
		"four-rates": plan(
			calendar.Request{Subject: 0xC1, Publisher: 0, Payload: 2, Period: 10 * ms, Periodic: true},
			calendar.Request{Subject: 0xC2, Publisher: 1, Payload: 8, Period: 30 * ms, Periodic: true},
			calendar.Request{Subject: 0xC2, Publisher: 2, Payload: 5, Period: 30 * ms, Periodic: true},
			calendar.Request{Subject: 0xC3, Publisher: 1, Payload: 4, Period: 40 * ms, Periodic: true},
			calendar.Request{Subject: 0xC4, Publisher: 3, Payload: 1, Period: 50 * ms},
			calendar.Request{Subject: 0xC4, Publisher: 3, Payload: 1, Period: 50 * ms}),
	}
}

// Every slot's cached geometry is the calendar's: the deadline offset
// is Slot.Deadline, the activation rounds are Slot.NextActive's, and a
// subscriber's per-publisher state holds the geometry of the
// publisher's first slot for the subject.
func TestSlotGeometryMatchesCalendar(t *testing.T) {
	for name, cal := range geometryCalendars(t) {
		t.Run(name, func(t *testing.T) {
			nodes := 0
			for _, s := range cal.Slots {
				nodes = max(nodes, int(s.Publisher)+2)
			}
			sys := idealSystem(t, nodes, cal)
			mw := sys.Node(nodes - 1).MW
			for _, s := range cal.Slots {
				g := mw.geomOf(s)
				if g.ready != s.Ready || g.deadline != s.Deadline(cal.Cfg) {
					t.Fatalf("slot %+v: cached ready %v deadline %v, calendar %v %v",
						s, g.ready, g.deadline, s.Ready, s.Deadline(cal.Cfg))
				}
				for r := int64(0); r < 3*g.every; r++ {
					if got, want := g.nextActive(r), s.NextActive(r); got != want {
						t.Fatalf("slot %+v: nextActive(%d) = %d, want %d", s, r, got, want)
					}
				}
				sub, err := mw.HRTEC(binding.Subject(s.Subject))
				if err != nil {
					t.Fatal(err)
				}
				if err := sub.Subscribe(ChannelAttrs{Payload: s.Payload - hrtHeaderLen}, SubscribeAttrs{}, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range cal.Slots {
				ch := mw.channelAt(mustEtag(t, sys, binding.Subject(s.Subject)))
				ps := ch.pubs[s.Publisher]
				first := ownedSlots(cal, binding.Subject(s.Subject), s.Publisher)[0]
				if !ps.hasSlot || ps.geom != mw.geomOf(first) || ps.geom.deadline != first.Deadline(cal.Cfg) {
					t.Fatalf("slot %+v: publisher geometry %+v, want that of %+v", s, ps.geom, first)
				}
			}
		})
	}
}

// occurrenceFormula is occurrenceOf as it was before the slot geometry
// was cached: every call recomputes the deadline and both modulos from
// the calendar slot. It is the oracle for the cached version.
func occurrenceFormula(mw *Middleware, slot calendar.Slot, local sim.Time) (int64, sim.Time) {
	rel := local - mw.Epoch - slot.Ready
	round := int64(rel / mw.Cal.Round)
	if rel < 0 {
		round = 0
	}
	if !slot.ActiveIn(round) {
		prev := slot.NextActive(round)
		round = prev - int64(max(slot.Every, 1))
		if round < slot.NextActive(0) {
			round = slot.NextActive(0)
		}
	}
	return round, mw.Epoch + sim.Time(round)*mw.Cal.Round + slot.Deadline(mw.Cal.Cfg)
}

// occurrenceOf returns the formula's (round, deadline) for random local
// times, rounds, epochs, offsets and activation patterns, including
// instants before the epoch and on round boundaries.
func TestOccurrenceOfMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 200000; i++ {
		cfg := calendar.DefaultConfig()
		cfg.OmissionDegree = rng.Intn(3)
		round := sim.Duration(1+rng.Intn(20)) * sim.Millisecond
		mw := &Middleware{Epoch: sim.Time(rng.Int63n(int64(5 * sim.Millisecond))),
			Cal: &calendar.Calendar{Round: round, Cfg: cfg}}
		ch := &channelState{mw: mw}
		slot := calendar.Slot{Ready: sim.Duration(rng.Int63n(int64(round))),
			Payload: rng.Intn(9), Every: rng.Intn(7)}
		slot.Phase = rng.Intn(max(slot.Every, 1))
		var local sim.Time
		switch rng.Intn(3) {
		case 0: // a round boundary of the slot, give or take a tick
			local = mw.Epoch + slot.Ready + sim.Time(rng.Int63n(60))*round + sim.Time(rng.Intn(3)-1)
		default:
			local = mw.Epoch - round + sim.Time(rng.Int63n(int64(60*round)))
		}
		g := mw.geomOf(slot)
		gotR, gotD := ch.occurrenceOf(&g, local)
		wantR, wantD := occurrenceFormula(mw, slot, local)
		if gotR != wantR || gotD != wantD {
			t.Fatalf("slot %+v round %v epoch %v local %v: got (%d, %v), want (%d, %v)",
				slot, round, mw.Epoch, local, gotR, gotD, wantR, wantD)
		}
	}
}
