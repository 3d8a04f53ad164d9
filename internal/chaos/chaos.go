// Package chaos is the fault-campaign harness: deterministic, seed-driven
// scripts of whole-node and bus-level fault events (crash, restart, error
// burst, omission window, babbling idiot) executed against a core.System,
// plus invariant checkers that replay the observability trace and assert
// the paper's dependability claims end to end.
//
// Everything is driven from the simulation kernel, so a campaign is exactly
// reproducible per seed: same script + same seed ⇒ identical trace.
package chaos

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/core"
	"canec/internal/sim"
)

// Event is one scripted fault. Times are virtual milliseconds from the
// start of the run, so scripts read naturally in JSON.
type Event struct {
	// Kind is one of crash, restart, burst, omission, babble, bit_error,
	// busoff_attack, or one of the role-targeted kinds agent_crash,
	// agent_restart, master_crash, master_restart. Role kinds ignore Node:
	// the target is resolved when the event fires (the station *then*
	// hosting the binding agent or acting as time master), so a script
	// composes correctly with earlier takeovers.
	Kind string `json:"kind"`
	// AtMS is when the event fires (crash/restart) or the window opens
	// (burst/omission/babble/bit_error/busoff_attack).
	AtMS float64 `json:"at_ms"`
	// UntilMS closes the window for burst/omission/babble/bit_error/
	// busoff_attack events.
	UntilMS float64 `json:"until_ms,omitempty"`
	// Node is the target station for crash/restart/babble, the victim for
	// bit_error, and the *attacking* station for busoff_attack.
	Node int `json:"node,omitempty"`
	// Rate is the per-attempt fault probability for omission windows and
	// the per-attempt corruption probability for bit_error/busoff_attack.
	Rate float64 `json:"rate,omitempty"`
	// VictimProb is the per-receiver miss probability for omission windows.
	VictimProb float64 `json:"victim_prob,omitempty"`
	// Victim is the station whose transmissions a busoff_attack corrupts.
	Victim int `json:"victim,omitempty"`
}

// Script is a reproducible fault campaign.
type Script struct {
	// Guardian arms the calendar-aware bus guardian for the run.
	Guardian bool `json:"guardian,omitempty"`
	// GuardianLimit escalates frame muting to node isolation after this
	// many violations by one station (0 = never isolate).
	GuardianLimit int `json:"guardian_limit,omitempty"`
	// GuardianSlotLimit escalates faster for slot-timed violations — a
	// station repeatedly firing into windows owned by *other* stations is
	// an attacker, not a drifting clock (0 = no fast path).
	GuardianSlotLimit int `json:"guardian_slot_limit,omitempty"`
	// AgentStandby, if set, arms a hot-standby binding agent on this
	// station before the run (required by the agent_crash kind).
	AgentStandby *int `json:"agent_standby,omitempty"`
	// AgentHeartbeatMS / AgentMissLimit parameterise the agent heartbeat;
	// zero selects binding's default heartbeat (25 ms, three misses).
	AgentHeartbeatMS float64 `json:"agent_heartbeat_ms,omitempty"`
	AgentMissLimit   int     `json:"agent_miss_limit,omitempty"`
	// SyncBackups ranks backup time masters, installed on the system's
	// syncer before the run (required by the master_crash kind unless the
	// system was already configured with backups).
	SyncBackups []int `json:"sync_backups,omitempty"`
	// FailoverRounds overrides the syncer's missed-round tolerance.
	FailoverRounds int `json:"failover_rounds,omitempty"`
	// Events in any order; Install sorts nothing — the kernel does.
	Events []Event `json:"events"`
}

// Validate checks the script's internal consistency against a station
// count.
func (s Script) Validate(nodes int) error {
	downs := make(map[int]int)
	agentDowns, masterDowns := 0, 0
	for i, e := range s.Events {
		switch e.Kind {
		case "crash":
			downs[e.Node]++
		case "restart":
			downs[e.Node]--
		case "agent_crash":
			if s.AgentStandby == nil {
				return fmt.Errorf("chaos: event %d crashes the binding agent but no agent_standby is armed", i)
			}
			agentDowns++
		case "agent_restart":
			agentDowns--
		case "master_crash":
			masterDowns++
		case "master_restart":
			masterDowns--
		case "burst", "omission", "babble", "bit_error", "busoff_attack":
			if e.UntilMS <= e.AtMS {
				return fmt.Errorf("chaos: event %d (%s) has empty window [%v, %v)", i, e.Kind, e.AtMS, e.UntilMS)
			}
			if e.Kind == "omission" && (e.Rate <= 0 || e.Rate > 1 || e.VictimProb <= 0 || e.VictimProb > 1) {
				return fmt.Errorf("chaos: event %d omission probabilities out of range", i)
			}
			if e.Kind == "bit_error" || e.Kind == "busoff_attack" {
				if e.Rate <= 0 || e.Rate > 1 {
					return fmt.Errorf("chaos: event %d (%s) corruption rate %v out of (0, 1]", i, e.Kind, e.Rate)
				}
			}
			if e.Kind == "busoff_attack" {
				if e.Victim < 0 || e.Victim >= nodes {
					return fmt.Errorf("chaos: event %d attacks victim station %d of %d", i, e.Victim, nodes)
				}
				if e.Victim == e.Node {
					return fmt.Errorf("chaos: event %d has station %d attacking itself", i, e.Node)
				}
			}
		default:
			return fmt.Errorf("chaos: event %d has unknown kind %q", i, e.Kind)
		}
		if e.AtMS < 0 {
			return fmt.Errorf("chaos: event %d fires at negative time", i)
		}
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("chaos: event %d targets station %d of %d", i, e.Node, nodes)
		}
		if e.Kind == "crash" && e.Node == 0 && s.AgentStandby == nil {
			return fmt.Errorf("chaos: event %d crashes station 0 (binding agent)", i)
		}
	}
	if s.AgentStandby != nil {
		if b := *s.AgentStandby; b <= 0 || b >= nodes {
			return fmt.Errorf("chaos: agent_standby station %d of %d", b, nodes)
		}
	}
	for _, b := range s.SyncBackups {
		if b < 0 || b >= nodes {
			return fmt.Errorf("chaos: sync backup station %d of %d", b, nodes)
		}
	}
	if agentDowns < 0 {
		return fmt.Errorf("chaos: agent restarted more often than crashed")
	}
	if masterDowns < 0 {
		return fmt.Errorf("chaos: master restarted more often than crashed")
	}
	for _, n := range stations(downs) {
		if downs[n] < 0 {
			return fmt.Errorf("chaos: station %d restarted more often than crashed", n)
		}
	}
	return nil
}

// ms converts script milliseconds to kernel time.
func ms(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }

// Campaign binds a script to a system and executes it.
type Campaign struct {
	Sys    *core.System
	LC     *core.Lifecycle
	Script Script
	// Guardian is the installed bus guardian (nil unless Script.Guardian).
	Guardian *calendar.Guardian
	// Babblers by station index, populated by Install.
	Babblers map[int]*Babbler
	// Attackers by attacking station index, populated by Install for
	// busoff_attack events.
	Attackers map[int]*Attacker
	// Errors collects failures of scheduled events (e.g. a restart of a
	// station that was never crashed); deterministic scripts should leave
	// it empty.
	Errors []error

	// Role-targeted crash bookkeeping: when the acting agent / master was
	// crashed (feeding the takeover-latency checkers) and which station it
	// was (so the matching restart event knows its target).
	agentDownAt    []sim.Time
	masterDownAt   []sim.Time
	lastAgentDown  int
	lastMasterDown int

	// attacks records the scripted busoff_attack windows for the checkers.
	attacks []AttackWindow
}

// NewCampaign prepares a campaign. The system must be observed with
// tracing enabled — the invariant checkers replay the trace. The caller
// keeps responsibility for creating channels and traffic (and for
// re-creating them via lc.OnRestart).
func NewCampaign(sys *core.System, lc *core.Lifecycle, script Script) (*Campaign, error) {
	if sys.Obs.Tracer() == nil {
		return nil, fmt.Errorf("chaos: campaign needs an observed system with tracing enabled")
	}
	if err := script.Validate(len(sys.Nodes)); err != nil {
		return nil, err
	}
	c := &Campaign{Sys: sys, LC: lc, Script: script, Babblers: make(map[int]*Babbler),
		Attackers: make(map[int]*Attacker), lastAgentDown: -1, lastMasterDown: -1}
	if script.AgentStandby != nil {
		err := lc.EnableStandby(*script.AgentStandby, binding.HeartbeatConfig{
			Period:    sim.Duration(ms(script.AgentHeartbeatMS)),
			MissLimit: script.AgentMissLimit,
		})
		if err != nil {
			return nil, err
		}
	}
	if len(script.SyncBackups) > 0 || script.FailoverRounds > 0 {
		if sys.Syncer == nil {
			return nil, fmt.Errorf("chaos: sync_backups/failover_rounds need clock synchronization enabled")
		}
		if len(script.SyncBackups) > 0 {
			sys.Syncer.SetBackups(script.SyncBackups)
		}
		if script.FailoverRounds > 0 {
			sys.Syncer.Cfg.FailoverRounds = script.FailoverRounds
		}
	}
	for _, e := range script.Events {
		if e.Kind == "master_crash" && (sys.Syncer == nil || len(sys.Syncer.Backups()) == 0) {
			return nil, fmt.Errorf("chaos: master_crash needs sync backups (sync_backups or SystemConfig.SyncBackups)")
		}
	}
	if script.Guardian {
		if sys.Cfg.Calendar == nil {
			return nil, fmt.Errorf("chaos: guardian needs a calendar")
		}
		c.Guardian = calendar.NewGuardian(sys.Cfg.Calendar, sys.Cfg.Epoch, script.GuardianLimit)
		c.Guardian.SlotTargetedLimit = script.GuardianSlotLimit
		// On a drifting-clock system the calendar grid lives in the
		// synchronized timebase, which is anchored to the sync master's
		// drifting clock, not to kernel time. Give the guardian the master's
		// clock (a hardware guardian keeps its own synchronized clock), and
		// widen the slot slack to the analytical precision bound when it
		// exceeds the calendar's ΔG_min, so an honest station is never muted.
		if sys.Syncer != nil {
			// Follow the *acting* master across failovers: after a takeover
			// the calendar grid is anchored to the new master's clock.
			c.Guardian.LocalAt = func(t sim.Time) sim.Time {
				return sys.Clocks[sys.Syncer.Master].Read(t)
			}
			if p := clock.PrecisionBound(sys.Cfg.Sync, sys.Cfg.MaxDriftPPM); p > c.Guardian.Cal.Cfg.GapMin {
				c.Guardian.Slack = p
			}
		}
		sys.Bus.Guardian = c.Guardian
	}
	return c, nil
}

// Install schedules every scripted event on the kernel. Fault windows are
// chained onto the bus's existing injector.
func (c *Campaign) Install() {
	k := c.Sys.K
	chain := can.Chain{c.Sys.Bus.Injector}
	for _, e := range c.Script.Events {
		e := e
		switch e.Kind {
		case "crash":
			k.At(ms(e.AtMS), func() {
				if err := c.LC.Crash(e.Node); err != nil {
					c.Errors = append(c.Errors, err)
				}
			})
		case "restart":
			k.At(ms(e.AtMS), func() {
				if err := c.LC.Restart(e.Node); err != nil {
					c.Errors = append(c.Errors, err)
				}
			})
		case "agent_crash":
			k.At(ms(e.AtMS), func() {
				n := c.LC.AgentStation()
				if err := c.LC.Crash(n); err != nil {
					c.Errors = append(c.Errors, err)
					return
				}
				c.lastAgentDown = n
				c.agentDownAt = append(c.agentDownAt, k.Now())
			})
		case "agent_restart":
			k.At(ms(e.AtMS), func() {
				if c.lastAgentDown < 0 {
					c.Errors = append(c.Errors, fmt.Errorf("chaos: agent_restart with no crashed agent"))
					return
				}
				n := c.lastAgentDown
				c.lastAgentDown = -1
				if err := c.LC.Restart(n); err != nil {
					c.Errors = append(c.Errors, err)
				}
			})
		case "master_crash":
			k.At(ms(e.AtMS), func() {
				n := c.Sys.Syncer.Master
				if err := c.LC.Crash(n); err != nil {
					c.Errors = append(c.Errors, err)
					return
				}
				c.lastMasterDown = n
				c.masterDownAt = append(c.masterDownAt, k.Now())
			})
		case "master_restart":
			k.At(ms(e.AtMS), func() {
				if c.lastMasterDown < 0 {
					c.Errors = append(c.Errors, fmt.Errorf("chaos: master_restart with no crashed master"))
					return
				}
				n := c.lastMasterDown
				c.lastMasterDown = -1
				if err := c.LC.Restart(n); err != nil {
					c.Errors = append(c.Errors, err)
				}
			})
		case "burst":
			chain = append(chain, can.BurstErrors{Start: ms(e.AtMS), End: ms(e.UntilMS)})
		case "omission":
			chain = append(chain, window{
				start: ms(e.AtMS), end: ms(e.UntilMS),
				inner: can.NewRandomOmissions(e.Rate, e.VictimProb, c.Sys.Bus.Controllers()),
			})
		case "babble":
			b := c.babbler(e.Node)
			k.At(ms(e.AtMS), func() { b.Start(ms(e.UntilMS)) })
		case "bit_error":
			chain = append(chain, window{
				start: ms(e.AtMS), end: ms(e.UntilMS),
				inner: can.TargetedBitErrors{Victim: e.Node, Rate: e.Rate, Prio: -1},
			})
		case "busoff_attack":
			// Two coupled halves: the attacking station fires prio-0 frames
			// timed into the victim's calendar slots (the guardian-visible
			// signature), and a targeted bit-error injector corrupts the
			// victim's transmission attempts (the physical damage). Both stop
			// when the guardian isolates the attacker — a muted station can
			// no longer drive dominant bits onto the wire.
			a := c.attacker(e.Node, e.Victim)
			k.At(ms(e.AtMS), func() { a.Start(ms(e.UntilMS)) })
			attackerCtrl := c.Sys.Bus.Controller(e.Node)
			chain = append(chain, window{
				start: ms(e.AtMS), end: ms(e.UntilMS),
				inner: can.TargetedBitErrors{
					Victim: e.Victim, Rate: e.Rate, Prio: -1,
					Active: func() bool { return !attackerCtrl.Muted() },
				},
			})
			c.attacks = append(c.attacks, AttackWindow{
				Start: ms(e.AtMS), End: ms(e.UntilMS),
				Attacker: e.Node, Victim: e.Victim, Rate: e.Rate,
			})
		}
	}
	if len(chain) > 1 {
		c.Sys.Bus.Injector = chain
	}
}

func (c *Campaign) babbler(node int) *Babbler {
	b, ok := c.Babblers[node]
	if !ok {
		b = &Babbler{K: c.Sys.K, Ctrl: c.Sys.Bus.Controller(node), Etag: 0x3210}
		c.Babblers[node] = b
	}
	return b
}

func (c *Campaign) attacker(node, victim int) *Attacker {
	a, ok := c.Attackers[node]
	if !ok {
		a = &Attacker{
			K: c.Sys.K, Ctrl: c.Sys.Bus.Controller(node),
			Cal: c.Sys.Cfg.Calendar, Epoch: c.Sys.Cfg.Epoch,
			Victim: can.TxNode(victim), Etag: 0x3211,
		}
		c.Attackers[node] = a
	}
	return a
}

// window gates an injector to a kernel-time interval.
type window struct {
	start, end sim.Time
	inner      can.Injector
}

// Judge implements can.Injector.
func (w window) Judge(f can.Frame, sender, attempt int, at sim.Time, rng *sim.RNG) can.Fault {
	if at < w.start || at >= w.end {
		return can.Fault{}
	}
	return w.inner.Judge(f, sender, attempt, at, rng)
}

// Babbler models the babbling-idiot failure: a station that transmits at
// the reserved HRT priority 0, back to back, with no regard for the
// calendar. Without a bus guardian it starves every legitimate HRT slot
// whose publisher has a higher (numerically larger) node number; with one
// its frames are muted before reaching the wire.
type Babbler struct {
	K    *sim.Kernel
	Ctrl *can.Controller
	// Etag carried by the babble frames (any value works: the damage is
	// wire occupation, not content).
	Etag can.Etag

	active bool
	until  sim.Time
	// Sent counts babble frames that made it onto the wire; Muted counts
	// submissions that failed (bus guardian or single-shot loss).
	Sent, Muted int
}

// Start begins babbling until the given kernel time. Restarting an active
// babbler just extends the window.
func (b *Babbler) Start(until sim.Time) {
	b.until = until
	if b.active {
		return
	}
	b.active = true
	b.next()
}

func (b *Babbler) next() {
	if b.K.Now() >= b.until || b.Ctrl.Muted() {
		b.active = false
		return
	}
	f := can.Frame{
		ID:   can.MakeID(0, b.Ctrl.Node(), b.Etag),
		Data: []byte{0xBA, 0xBB, 0x1E, 0, 0, 0, 0, 0},
	}
	b.Ctrl.Submit(f, can.SubmitOpts{Done: func(ok bool, _ sim.Time) {
		if ok {
			b.Sent++
			// Back to back: resubmit as soon as this frame left the wire.
			b.K.After(0, b.next)
			return
		}
		b.Muted++
		// A muted frame fails synchronously during arbitration; back off a
		// little so the retry cannot livelock the current instant.
		b.K.After(20*sim.Microsecond, b.next)
	}})
}

// Attacker models the adversary ECU of a bus-off attack campaign: a
// station that fires priority-0 single-shot frames timed precisely into
// the victim's calendar slot windows. The frames themselves rarely reach
// the wire (a guardian mutes them, arbitration may reject them), but
// their *timing* is the attack's observable signature: the guardian's
// slot-targeted escalation recognises a station that keeps firing into
// windows it does not own. The physical corruption of the victim's
// transmissions is injected separately (can.TargetedBitErrors), mirroring
// how a real attacker's dominant bits damage frames without the attacker
// ever winning arbitration.
type Attacker struct {
	K    *sim.Kernel
	Ctrl *can.Controller
	// Cal / Epoch locate the victim's slot windows; without a calendar (or
	// a victim owning no slots) the attacker degrades to periodic pulses.
	Cal    *calendar.Calendar
	Epoch  sim.Time
	Victim can.TxNode
	// Etag carried by the attack frames (content is irrelevant).
	Etag can.Etag

	active bool
	until  sim.Time
	// Sent counts attack frames that made it onto the wire; Muted counts
	// submissions rejected before it (bus guardian or single-shot loss).
	Sent, Muted int
}

// Start begins the attack until the given kernel time. Restarting an
// active attacker extends the window.
func (a *Attacker) Start(until sim.Time) {
	a.until = until
	if a.active {
		return
	}
	a.active = true
	a.schedule()
}

// nextPulse picks the next instant inside a victim-owned slot window
// strictly after now; with no calendar (or no victim slots) it falls back
// to a periodic pulse.
func (a *Attacker) nextPulse() sim.Time {
	now := a.K.Now()
	const fallback = 500 * sim.Microsecond
	if a.Cal == nil || a.Cal.Round <= 0 {
		return now + fallback
	}
	rel := now - a.Epoch
	r := int64(0)
	if rel > 0 {
		r = int64(rel / sim.Duration(a.Cal.Round))
	}
	best := sim.Time(-1)
	for _, s := range a.Cal.Slots {
		if s.Publisher != a.Victim {
			continue
		}
		for rr := r; rr <= r+2; rr++ {
			if rr < 0 || !s.ActiveIn(rr) {
				continue
			}
			// Fire just after the slot opens: the victim's frame is then on
			// (or about to take) the wire, and the instant is unambiguously
			// inside a window the attacker does not own.
			t := a.Epoch + sim.Time(rr)*sim.Time(a.Cal.Round) + sim.Time(s.Ready) + sim.Time(10*sim.Microsecond)
			if t > now && (best < 0 || t < best) {
				best = t
			}
		}
	}
	if best < 0 {
		return now + fallback
	}
	return best
}

func (a *Attacker) schedule() {
	if a.K.Now() >= a.until || a.Ctrl.Muted() {
		a.active = false
		return
	}
	t := a.nextPulse()
	if t >= a.until {
		a.active = false
		return
	}
	a.K.At(t, a.fire)
}

func (a *Attacker) fire() {
	if a.K.Now() >= a.until || a.Ctrl.Muted() {
		a.active = false
		return
	}
	f := can.Frame{
		ID:   can.MakeID(0, a.Ctrl.Node(), a.Etag),
		Data: []byte{0xA7, 0x7A, 0xC4, 0, 0, 0, 0, 0},
	}
	// Single shot: a muted or corrupted attack frame must not sit in the
	// controller retrying — the attacker's value is timing, not delivery.
	a.Ctrl.Submit(f, can.SubmitOpts{SingleShot: true, Done: func(ok bool, _ sim.Time) {
		if ok {
			a.Sent++
		} else {
			a.Muted++
		}
		a.schedule()
	}})
}

// Report summarises a finished campaign for logs and experiment output.
type Report struct {
	Crashes, Restarts int
	// AgentTakeovers counts standby promotions to binding agent;
	// MasterTakeovers counts time-master failovers.
	AgentTakeovers   int
	MasterTakeovers  int
	GuardianMuted    uint64
	GuardianIsolated uint64
	BabbleSent       int
	BabbleMuted      int
	// BusOffEvents counts controller bus-off entries on the bus;
	// BusOffRecovered counts supervised rejoins (lifecycle supervisor).
	// AttackSent / AttackMuted tally the adversary stations' slot-timed
	// frames that reached / were kept off the wire.
	BusOffEvents    uint64
	BusOffRecovered int
	AttackSent      int
	AttackMuted     int
	Violations      []Violation
	// Errors are scripted events that failed to execute (e.g. a restart of
	// a station that was never crashed).
	Errors []string
	// PostMortem lists the flight-recorder dump files written because the
	// campaign found invariant violations (empty when no recorder was
	// attached or all invariants held).
	PostMortem []string
}

// Finish runs the invariant checkers over the recorded trace and returns
// the campaign report. recoveryRounds bounds how many rounds a recovered
// node may need to re-occupy its slots (0 selects the default).
func (c *Campaign) Finish(recoveryRounds int) Report {
	var round sim.Duration
	if cal := c.Sys.Cfg.Calendar; cal != nil {
		round = cal.Round
	}
	ctx := CheckContext{
		Records:        c.Sys.Obs.Records(),
		Round:          round,
		RecoveryRounds: recoveryRounds,
		AgentDownAt:    c.agentDownAt,
		MasterDownAt:   c.masterDownAt,
	}
	if len(c.agentDownAt) > 0 {
		// Window: the standby's watchdog promotes at most MissLimit+1 beat
		// periods after the last agent frame; one extra period absorbs the
		// beat in flight when the agent died.
		hb := binding.HeartbeatConfig{
			Period:    sim.Duration(ms(c.Script.AgentHeartbeatMS)),
			MissLimit: c.Script.AgentMissLimit,
		}
		hb = hb.WithDefaults()
		ctx.AgentWindow = hb.Period * sim.Duration(hb.MissLimit+2)
	}
	if len(c.masterDownAt) > 0 && c.Sys.Syncer != nil {
		cfg := c.Sys.Syncer.Cfg
		// Rank 0 promotes within FailoverRounds+1 periods of master silence;
		// each dead higher rank adds one period. One extra period absorbs the
		// round in flight at the crash.
		rounds := cfg.FailoverRounds
		if rounds <= 0 {
			rounds = 3
		}
		ctx.MasterWindow = cfg.Period * sim.Duration(rounds+len(c.Sys.Syncer.Backups())+1)
	}
	if c.LC.CrashCount > 0 {
		// Every restart that began at least this long before the end of the
		// trace must have completed (node_up): bounded re-join plus one sync
		// round plus the re-bind round-trips.
		win := 2 * ctx.AgentWindow
		if c.Sys.Syncer != nil && 2*c.Sys.Syncer.Cfg.Period > win {
			win = 2 * c.Sys.Syncer.Cfg.Period
		}
		ctx.RestartWindow = win + 100*sim.Millisecond
	}
	if c.Sys.Cfg.ConfineFaults {
		// Bus-off recovery bound: the 128×11-recessive-bit observation plus
		// the supervisor's declared worst-case backoff (or nothing, when the
		// controllers' built-in auto-recovery is in charge), plus one
		// millisecond of queue-drain grace.
		win := c.Sys.Bus.BitDuration(can.BusOffRecoveryBits)
		if c.LC.BusOffRecoveryArmed() {
			win = c.LC.BusOffRecoveryBound()
		}
		ctx.BusOffWindow = win + sim.Millisecond
	}
	ctx.Attacks = c.attacks
	ctx.GuardianArmed = c.Guardian != nil &&
		(c.Script.GuardianLimit > 0 || c.Script.GuardianSlotLimit > 0)
	rep := Report{
		Crashes:        c.LC.CrashCount,
		Restarts:       c.LC.RestartCount,
		AgentTakeovers: c.LC.AgentTakeovers,
		Violations:     checkAll(ctx),
	}
	if c.Sys.Syncer != nil {
		rep.MasterTakeovers = c.Sys.Syncer.Takeovers
	}
	st := c.Sys.Bus.Stats()
	rep.GuardianMuted = st.GuardianMuted
	rep.GuardianIsolated = st.GuardianIsolated
	rep.BusOffEvents = st.BusOffEvents
	rep.BusOffRecovered = c.LC.BusOffRecovered
	for _, b := range c.Babblers {
		rep.BabbleSent += b.Sent
		rep.BabbleMuted += b.Muted
	}
	for _, a := range c.Attackers {
		rep.AttackSent += a.Sent
		rep.AttackMuted += a.Muted
	}
	for _, e := range c.Errors {
		rep.Errors = append(rep.Errors, e.Error())
	}
	if len(rep.Violations) > 0 {
		if f := c.Sys.Obs.Flight(); f != nil {
			if paths, err := f.Dump("chaos-invariant"); err == nil {
				rep.PostMortem = paths
			} else {
				rep.Errors = append(rep.Errors, "post-mortem dump: "+err.Error())
			}
		}
	}
	return rep
}
