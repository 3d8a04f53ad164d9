package chaos

import (
	"testing"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

const (
	busoffVictim   = 1
	busoffAttacker = 4
	busoffRounds   = 60
)

// busoffRig is the five-station system under a bus-off adversary: station
// 0 subscribes to everything, station 1 (the victim) publishes two HRT
// subjects, stations 2 and 3 each publish one, station 4 is the attacker.
// Fault confinement is on and the lifecycle supervisor owns bus-off
// recovery — the full defense stack of DESIGN §12.
type busoffRig struct {
	sys       *core.System
	lc        *core.Lifecycle
	cal       *calendar.Calendar
	delivered map[binding.Subject]int
}

func newBusoffRig(t *testing.T, seed uint64) *busoffRig {
	t.Helper()
	cfg := calendar.DefaultConfig()
	cal, err := calendar.PackSequential(cfg, 10*sim.Millisecond,
		calendar.Slot{Subject: 0x3001, Publisher: busoffVictim, Payload: 8, Periodic: true},
		calendar.Slot{Subject: 0x3002, Publisher: busoffVictim, Payload: 8, Periodic: true},
		calendar.Slot{Subject: 0x3003, Publisher: 2, Payload: 8, Periodic: true},
		calendar.Slot{Subject: 0x3004, Publisher: 3, Payload: 8, Periodic: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes:         5,
		Seed:          seed,
		Calendar:      cal,
		Epoch:         1 * sim.Millisecond,
		ConfineFaults: true,
		Observe:       obs.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &busoffRig{
		sys: sys, cal: cal,
		lc:        core.NewLifecycle(sys),
		delivered: make(map[binding.Subject]int),
	}
	for _, s := range cal.Slots {
		subj := binding.Subject(s.Subject)
		pub, err := sys.Node(int(s.Publisher)).MW.HRTEC(subj)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Announce(core.ChannelAttrs{Payload: 7, Periodic: true}, nil); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < busoffRounds; i++ {
			i := i
			sys.K.At(sys.Cfg.Epoch+sim.Time(i)*cal.Round-100*sim.Microsecond, func() {
				_ = pub.Publish(core.Event{Subject: subj, Payload: []byte{byte(i)}})
			})
		}
		sub, err := sys.Node(0).MW.HRTEC(subj)
		if err != nil {
			t.Fatal(err)
		}
		sub.Subscribe(core.ChannelAttrs{Payload: 7, Periodic: true}, core.SubscribeAttrs{},
			func(ev core.Event, di core.DeliveryInfo) { r.delivered[subj]++ }, nil)
	}
	return r
}

// TestBusOffAttackRecoveryAndHRTSurvival is the acceptance e2e for the
// bus-off adversary campaign: a rate-1.0 slot-timed attack on station 1
// with the guardian armed must (a) drive the victim bus-off — the weapon
// works; (b) see the victim recover under the supervisor within the
// declared bound; (c) end with the guardian isolating the attacker; and
// (d) never cost a healthy station an HRT slot. All four are enforced by
// the campaign's invariant checkers, then cross-checked against the raw
// trace and final controller states here.
func TestBusOffAttackRecoveryAndHRTSurvival(t *testing.T) {
	r := newBusoffRig(t, 1)
	script := Script{
		Guardian:          true,
		GuardianSlotLimit: 20,
		Events: []Event{{
			Kind: "busoff_attack", AtMS: 51, UntilMS: 251,
			Node: busoffAttacker, Victim: busoffVictim, Rate: 1,
		}},
	}
	c, err := NewCampaign(r.sys, r.lc, script)
	if err != nil {
		t.Fatal(err)
	}
	r.lc.EnableBusOffRecovery(core.DefaultBusOffPolicy())
	c.Install()
	r.sys.Run(r.sys.Cfg.Epoch + busoffRounds*r.cal.Round)
	rep := c.Finish(0)
	for _, e := range c.Errors {
		t.Errorf("campaign event failed: %v", e)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %v", v)
	}

	// (a) The weapon worked: the victim's controller entered bus-off.
	if rep.BusOffEvents == 0 {
		t.Fatal("victim never reached bus-off under a rate-1.0 attack")
	}
	// (b) The supervisor brought it back: by the horizon (350 ms past the
	// attack) the victim is error-active and publishing again.
	if rep.BusOffRecovered == 0 {
		t.Fatal("supervisor recorded no bus-off recoveries")
	}
	if st := r.sys.Node(busoffVictim).Ctrl.State(); st == can.ErrorPassive || st == can.BusOff {
		t.Fatalf("victim final state = %v, want error-active", st)
	}
	// (c) The guardian ended the attack: every adversary pulse was muted
	// pre-arbitration and the station itself was isolated mid-window.
	if rep.AttackMuted == 0 || rep.AttackSent != 0 {
		t.Fatalf("attacker muted=%d sent=%d, want >0/0", rep.AttackMuted, rep.AttackSent)
	}
	isolated := false
	for _, rec := range r.sys.Obs.Records() {
		if rec.Stage == obs.StageGuardIsolated && rec.Node == busoffAttacker {
			isolated = true
			break
		}
	}
	if !isolated {
		t.Fatal("no guard_isolated trace for the attacker")
	}
	// (d) Healthy stations rode through: their subjects delivered every
	// round, attack or no attack.
	for _, subj := range []binding.Subject{0x3003, 0x3004} {
		if got := r.delivered[subj]; got < busoffRounds-1 {
			t.Fatalf("healthy subject %#x delivered %d of %d rounds", uint64(subj), got, busoffRounds)
		}
	}
	// The victim's own subjects lost rounds to the outage but came back
	// after the attack: more than the pre-attack 5 rounds, fewer than all.
	for _, subj := range []binding.Subject{0x3001, 0x3002} {
		got := r.delivered[subj]
		if got <= 5 || got >= busoffRounds {
			t.Fatalf("victim subject %#x delivered %d rounds, want within (5, %d)", uint64(subj), got, busoffRounds)
		}
	}
}

// TestBusOffAttackScriptValidate pins the validation of the adversary
// event kinds.
func TestBusOffAttackScriptValidate(t *testing.T) {
	bad := []Script{
		{Events: []Event{{Kind: "busoff_attack", AtMS: 1, UntilMS: 2, Node: 4, Victim: 1}}},          // no rate
		{Events: []Event{{Kind: "busoff_attack", AtMS: 1, UntilMS: 2, Node: 4, Victim: 1, Rate: 2}}}, // rate > 1
		{Events: []Event{{Kind: "busoff_attack", AtMS: 2, UntilMS: 2, Node: 4, Victim: 1, Rate: 1}}}, // empty window
		{Events: []Event{{Kind: "busoff_attack", AtMS: 1, UntilMS: 2, Node: 4, Victim: 4, Rate: 1}}}, // self-attack
		{Events: []Event{{Kind: "busoff_attack", AtMS: 1, UntilMS: 2, Node: 4, Victim: 9, Rate: 1}}}, // victim range
		{Events: []Event{{Kind: "bit_error", AtMS: 1, UntilMS: 2}}},                                  // no rate
	}
	for i, s := range bad {
		if err := s.Validate(5); err == nil {
			t.Errorf("script %d validated, want error", i)
		}
	}
	good := Script{Events: []Event{
		{Kind: "bit_error", AtMS: 1, UntilMS: 2, Node: 2, Rate: 0.5},
		{Kind: "busoff_attack", AtMS: 1, UntilMS: 2, Node: 4, Victim: 1, Rate: 1},
	}}
	if err := good.Validate(5); err != nil {
		t.Errorf("good script rejected: %v", err)
	}
}
