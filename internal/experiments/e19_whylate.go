package experiments

import (
	"fmt"

	"canec/internal/chaos"
	"canec/internal/obs/causal"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e19WhyLate validates the causal lateness engine end to end: four
// seeded chaos campaigns each inject one fault with a known root cause
// (targeted bit errors, a babbling idiot, a bus-off adversary, a time
// master crash), and the engine's per-chain attribution must name the
// matching cause family for the chains the fault touched — with zero
// misattribution of the control group (chains outside the fault window,
// or on channels the fault cannot reach) and the residual-zero invariant
// holding for every chain. Everything is deterministic per seed.
func e19WhyLate(seed uint64) Result {
	tbl := stats.Table{
		Title: "injected fault vs attributed root cause (causal lateness engine)",
		Headers: []string{"campaign", "expected cause", "chains", "faulted",
			"attributed", "family debit", "top cause", "control", "misattributed", "residual!=0"},
	}
	for _, c := range e19Campaigns() {
		out := e19Exec(seed, c)
		tbl.Rows = append(tbl.Rows, []string{
			c.name,
			e19Family(c.family),
			fmt.Sprintf("%d", out.chains),
			fmt.Sprintf("%d", out.faulted),
			fmt.Sprintf("%d", out.familyIncidents),
			causal.FormatDur(out.familyDebit),
			string(out.topCause),
			fmt.Sprintf("%d", out.control),
			fmt.Sprintf("%d", out.misattributed),
			fmt.Sprintf("%d", out.residualBad),
		})
	}
	return Result{
		ID:    "E19",
		Title: "why-late attribution: injected causes vs causal engine verdicts",
		Table: tbl,
		Notes: []string{
			"each campaign injects one scripted fault into a window of a mixed run and replays the trace through the causal engine",
			"faulted = chains overlapping the fault window (on the victim channel, for node-targeted faults); attributed = faulted incident chains whose top cause lands in the expected family",
			"control = every other chain: it must never carry a top cause from the injected family (misattributed = 0)",
			"family debit = virtual time the engine charged to the expected family inside the fault window; residual!=0 counts chains whose segment debits fail to tile publish→end exactly (must be 0 — the engine is exact, not heuristic)",
			"link faults are exercised at unit level (relay_queue/relay_link segments); the master-crash campaign covers the clock plane via holdover widening of HRT delivery holds",
		},
	}
}

// e19Campaign scripts one injected fault with its expected attribution.
type e19Campaign struct {
	name   string
	family []causal.Cause
	// windowMS is the scripted fault window; graceMS extends it for the
	// fault's tail effects (queued frames draining, bus-off recovery).
	windowMS [2]float64
	graceMS  float64
	// victimSubject restricts the faulted group to one channel for
	// node-targeted faults (0: every chain in the window is a victim).
	victimSubject uint64
	lateOver      map[string]sim.Duration
	build         func(seed uint64) *scenario.Scenario
}

// e19Outcome reduces one campaign's chains against the expectation.
type e19Outcome struct {
	chains, faulted int
	familyIncidents int
	familyDebit     sim.Duration
	topCause        causal.Cause
	control         int
	misattributed   int
	residualBad     int
}

func e19Family(family []causal.Cause) string {
	s := ""
	for i, c := range family {
		if i > 0 {
			s += "|"
		}
		s += string(c)
	}
	return s
}

// e19SRTPair is the shared topology for the bus-fault campaigns: two
// independent sporadic-server SRT streams on disjoint stations, one the
// designated victim (0x300, node 0 -> 1), one untouched (0x301, 2 -> 3).
func e19SRTPair(seed uint64, name string) *scenario.Scenario {
	return &scenario.Scenario{
		Name: name, Nodes: 8, Seed: seed, DurationMs: 600,
		SRT: []scenario.SRTStream{
			{Subject: 0x300, Publisher: 0, Subscriber: 1, MeanPeriodUs: 2000,
				DeadlineUs: 20000, ExpirationUs: 40000, Payload: 8},
			{Subject: 0x301, Publisher: 2, Subscriber: 3, MeanPeriodUs: 3000,
				DeadlineUs: 20000, ExpirationUs: 40000, Payload: 8},
		},
	}
}

func e19Campaigns() []e19Campaign {
	// App traffic starts at the scenario epoch (~300 ms: calendar setup
	// plus clock settling), so every fault window opens after it. The
	// SRT lateness bound sits above the worst natural interference a
	// clean chain can see (sync frame + one peer frame + own wire time,
	// ~510 µs) — a control chain must never cross it.
	srtLate := map[string]sim.Duration{"SRT": 700 * sim.Microsecond}
	return []e19Campaign{
		{
			name:          "bit_error",
			family:        []causal.Cause{causal.CauseErrorRetransmit},
			windowMS:      [2]float64{350, 500},
			graceMS:       10,
			victimSubject: 0x300,
			lateOver:      srtLate,
			build: func(seed uint64) *scenario.Scenario {
				sc := e19SRTPair(seed, "e19-bit-error")
				sc.Chaos = &chaos.Script{Events: []chaos.Event{
					{Kind: "bit_error", Node: 0, Rate: 0.7, AtMS: 350, UntilMS: 500},
				}}
				return sc
			},
		},
		{
			name:     "babble",
			family:   []causal.Cause{causal.CauseArbInterference},
			windowMS: [2]float64{350, 450},
			graceMS:  20,
			lateOver: srtLate,
			build: func(seed uint64) *scenario.Scenario {
				sc := e19SRTPair(seed, "e19-babble")
				sc.Chaos = &chaos.Script{Events: []chaos.Event{
					{Kind: "babble", Node: 4, AtMS: 350, UntilMS: 450},
				}}
				return sc
			},
		},
		{
			name:          "busoff_attack",
			family:        []causal.Cause{causal.CauseBusoffRecovery, causal.CauseErrorRetransmit},
			windowMS:      [2]float64{350, 420},
			graceMS:       180,
			victimSubject: 0x300,
			lateOver:      srtLate,
			build: func(seed uint64) *scenario.Scenario {
				sc := e19SRTPair(seed, "e19-busoff")
				sc.ConfineFaults = true
				sc.Chaos = &chaos.Script{Events: []chaos.Event{
					{Kind: "busoff_attack", Node: 4, Victim: 0, Rate: 1.0, AtMS: 350, UntilMS: 420},
				}}
				return sc
			},
		},
		{
			// Crash at 200 ms: holdover is entered when the masterless sync
			// rounds run out (~400 ms) and exits on backup takeover at
			// ~500 ms, so the widened HRT holds land mid-traffic with clean
			// chains on both sides as the temporal control group.
			name:     "master_crash",
			family:   []causal.Cause{causal.CauseHoldoverWidening},
			windowMS: [2]float64{400, 505},
			graceMS:  0,
			lateOver: map[string]sim.Duration{"HRT": 700 * sim.Microsecond},
			build: func(seed uint64) *scenario.Scenario {
				return &scenario.Scenario{
					Name: "e19-master-crash", Nodes: 8, Seed: seed, DurationMs: 600,
					MaxDriftPPM: 200,
					SyncMaster:  4, SyncBackups: []int{5},
					HRT: []scenario.HRTStream{
						{Subject: 0x101, Publisher: 0, Subscriber: 1, PeriodUs: 10000, Payload: 7},
						{Subject: 0x102, Publisher: 2, Subscriber: 3, PeriodUs: 10000, Payload: 7},
					},
					Chaos: &chaos.Script{Events: []chaos.Event{
						{Kind: "master_crash", AtMS: 200},
					}},
				}
			},
		},
	}
}

// e19Exec runs one campaign and reduces its chains. Kernel determinism
// makes the whole outcome a pure function of the seed.
func e19Exec(seed uint64, c e19Campaign) e19Outcome {
	sc := c.build(seed)
	rep, err := sc.Run()
	if err != nil {
		panic(fmt.Sprintf("e19 %s: %v", c.name, err))
	}
	a := causal.Analyze(rep.Obs.Records(), causal.Config{LateOver: c.lateOver})

	fam := map[causal.Cause]bool{}
	for _, cause := range c.family {
		fam[cause] = true
	}
	wStart := sim.Time(c.windowMS[0] * float64(sim.Millisecond))
	wEnd := sim.Time((c.windowMS[1] + c.graceMS) * float64(sim.Millisecond))
	var out e19Outcome
	tops := map[causal.Cause]int{}
	for _, ch := range a.Chains() {
		out.chains++
		if ch.Residual() != 0 {
			out.residualBad++
		}
		overlap := ch.Published < wEnd && ch.End > wStart
		victim := overlap && (c.victimSubject == 0 || ch.Subject == c.victimSubject)
		if victim {
			out.faulted++
			if fam[ch.Top] {
				out.familyIncidents++
				tops[ch.Top]++
			}
			for _, cause := range c.family {
				out.familyDebit += ch.Debit(cause)
			}
			continue
		}
		out.control++
		if fam[ch.Top] {
			out.misattributed++
		}
	}
	var bestN int
	// order-free: the most frequent cause, ties to the lowest.
	for cause, n := range tops {
		if n > bestN || (n == bestN && cause < out.topCause) {
			out.topCause, bestN = cause, n
		}
	}
	if bestN == 0 {
		out.topCause = causal.CauseNone
	}
	return out
}
