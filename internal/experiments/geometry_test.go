package experiments

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/core"
	"canec/internal/scenario"
	"canec/internal/sim"
)

// geometryCalendars are the HRT calendars the experiments and the
// committed scenarios run on.
func geometryCalendars(t *testing.T) map[string]*calendar.Calendar {
	cals := map[string]*calendar.Calendar{
		"E3":  e3Slots(),
		"E8":  e8Calendar(),
		"E12": e12Calendar(),
	}
	for k := 0; k <= 3; k++ { // E1 at k = 0, E2 across omission degrees
		cfg := calendar.DefaultConfig()
		cfg.OmissionDegree = k
		_, cals[fmt.Sprintf("E1-E2/k%d", k)] = e1System(cfg, 2, 1)
	}
	scs := map[string]*scenario.Scenario{
		"E11": e11Scenario(1, -1, -1),
		"E16": e16Scenario(1, 0, false),
	}
	for _, class := range []core.Class{core.HRT, core.SRT, core.NRT} {
		scs["E18/"+class.String()] = e18Scenario(1, class, false)
	}
	files, err := filepath.Glob("../../testdata/scenario-*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("scenario files: %v %v", files, err)
	}
	for _, f := range files {
		sc, err := scenario.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		scs[filepath.Base(f)] = sc
	}
	for name, sc := range scs {
		in, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cal := in.Sys.Cfg.Calendar; cal != nil {
			cals[name] = cal
		}
	}
	return cals
}

// Every slot of every experiment and committed scenario calendar
// delivers at its Slot.Deadline offset in each round it is active in, on
// perfect clocks: the deadline offsets and activation rounds the
// middleware computes once per slot are the calendar's.
func TestHRTDeliversAtCalendarDeadlines(t *testing.T) {
	for name, cal := range geometryCalendars(t) {
		t.Run(name, func(t *testing.T) {
			nodes, every := 0, 1
			for _, s := range cal.Slots {
				nodes, every = max(nodes, int(s.Publisher)+2), max(every, s.Every)
			}
			rounds := int64(3 * every)
			sys := must(core.NewSystem(core.SystemConfig{Nodes: nodes, Seed: 1, Calendar: cal, Epoch: sim.Millisecond}))
			end := sys.Cfg.Epoch + sim.Time(rounds)*cal.Round
			type delivery struct {
				subj binding.Subject
				pub  int
				at   sim.Time
			}
			var got, want []delivery
			subscribed := map[binding.Subject]bool{}
			for _, s := range cal.Slots {
				subj := binding.Subject(s.Subject)
				must(0, (&scenario.RoundPub{Sys: sys, Slot: s, Attrs: core.ChannelAttrs{}, At: -300 * sim.Microsecond,
					Rounds: rounds, End: end, Payload: func(int64) []byte { return nil }}).Start())
				for r := s.NextActive(0); r < rounds; r = s.NextActive(r + 1) {
					want = append(want, delivery{subj, int(s.Publisher),
						sys.Cfg.Epoch + sim.Time(r)*cal.Round + s.Deadline(cal.Cfg)})
				}
				if subscribed[subj] {
					continue
				}
				subscribed[subj] = true
				sub := must(sys.Node(nodes - 1).MW.HRTEC(subj))
				must(0, sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{}, func(_ core.Event, di core.DeliveryInfo) {
					got = append(got, delivery{subj, int(di.Publisher), di.DeliveredAt})
				}, nil))
			}
			sys.Run(end)
			order := func(a, b delivery) int {
				if a.at != b.at {
					return int(a.at - b.at)
				}
				return int(a.subj) - int(b.subj)
			}
			slices.SortFunc(got, order)
			slices.SortFunc(want, order)
			if !slices.Equal(got, want) {
				t.Fatalf("%d deliveries, want %d\n got %v\nwant %v", len(got), len(want), got, want)
			}
			if c := sys.TotalCounters(); c.LateHRTDeliveries != 0 {
				t.Fatalf("%d late deliveries on perfect clocks", c.LateHRTDeliveries)
			}
		})
	}
}
