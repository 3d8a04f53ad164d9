package experiments

import (
	"fmt"
	"strings"
	"testing"

	"canec/internal/calendar"
	"canec/internal/core"
	"canec/internal/scenario"
	"canec/internal/sim"
)

// TestWiringErrorPanics: a channel the rig cannot wire stops the
// experiment with a message naming the step, class, subject and node,
// instead of running a table that measures nothing.
func TestWiringErrorPanics(t *testing.T) {
	cal := must(calendar.PackSequential(calendar.DefaultConfig(), 10*sim.Millisecond,
		calendar.Slot{Subject: uint64(e1Subject), Publisher: 0, Payload: 8, Periodic: true}))
	sys := must(core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1, Calendar: cal}))
	for _, tc := range []struct {
		name string
		wire func()
		want string
	}{
		{"no slot", func() { must(scenario.Announce(sys.Node(1).MW, core.HRT, 0x55, hrtAttrs(), nil)) },
			"announce HRT subject 0x55 on node 1"},
		{"not the slot's publisher", func() { must(scenario.Announce(sys.Node(1).MW, core.HRT, e1Subject, hrtAttrs(), nil)) },
			fmt.Sprintf("announce HRT subject %#x on node 1", uint64(e1Subject))},
		// Node 1 already holds e1Subject as an HRT channel (case above).
		{"class mismatch", func() {
			pair(sys, core.SRT, e1Subject, 0, core.ChannelAttrs{}, nil, 1, core.ChannelAttrs{}, nil, nil)
		}, fmt.Sprintf("subscribe SRT subject %#x on node 1", uint64(e1Subject))},
		{"subscribe without slot", func() {
			wired(scenario.Subscribe(sys.Node(1).MW, core.HRT, 0x56, hrtAttrs(), nil, nil))
		}, "subscribe HRT subject 0x56 on node 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want it to name %q", msg, tc.want)
				}
			}()
			tc.wire()
		})
	}
}

// TestBytesInHalfOpen: the outage reduction counts 8 bytes per frame
// sent in [from, to).
func TestBytesInHalfOpen(t *testing.T) {
	times := []sim.Time{10, 20, 30, 40}
	if got := bytesIn(times, 20, 40); got != 16 {
		t.Errorf("bytesIn(20, 40) = %d, want 16", got)
	}
	if got := bytesIn(times, 41, 50); got != 0 {
		t.Errorf("bytesIn(41, 50) = %d, want 0", got)
	}
}

// TestFiveSlotsLayout: the outage experiments' built calendars put the
// base subject and base+4 on node 1 and one subject each on nodes 2-4,
// at E11's and E16's omission degrees.
func TestFiveSlotsLayout(t *testing.T) {
	for _, tc := range []struct {
		sc   *scenario.Scenario
		base uint64
		k    int
	}{{e11Scenario(1, -1, -1), 0x720, 2}, {e16Scenario(1, 0, false), 0x730, 1}} {
		cal := must(tc.sc.Build()).Sys.Cfg.Calendar
		if cal.Cfg.OmissionDegree != tc.k {
			t.Errorf("%s: omission degree %d, want %d", tc.sc.Name, cal.Cfg.OmissionDegree, tc.k)
		}
		pubs := map[uint64]int{}
		for _, s := range cal.Slots {
			pubs[s.Subject-tc.base] = int(s.Publisher)
		}
		want := map[uint64]int{0: 1, 4: 1, 1: 2, 2: 3, 3: 4}
		if fmt.Sprint(pubs) != fmt.Sprint(want) {
			t.Errorf("%s: publishers by subject offset %v, want %v", tc.sc.Name, pubs, want)
		}
	}
}
