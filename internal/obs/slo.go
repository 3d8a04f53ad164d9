package obs

import (
	"fmt"

	"canec/internal/sim"
)

// SLOConfig parameterises the objective engine. Objectives whose budget
// field is zero are disabled; an all-zero config evaluates nothing.
type SLOConfig struct {
	// Interval is the evaluation tick (default 100 ms virtual).
	Interval sim.Duration
	// ShortWindow and LongWindow are the burn-rate windows (defaults
	// 1 s and 10 s). An objective breaches only when BOTH windows burn
	// above BurnThreshold — the short window gives fast detection, the
	// long one suppresses single-spike flapping.
	ShortWindow sim.Duration
	LongWindow  sim.Duration
	// BurnThreshold is the burn factor (consumed/budget) that arms a
	// breach (default 1.0).
	BurnThreshold float64

	// HRTJitterBound breaches when the HRTJitterQuantile (default p99)
	// of HRT delivery jitter exceeds this bound — the paper's claim is
	// that it stays within clock-sync precision. 0 disables.
	HRTJitterBound    sim.Duration
	HRTJitterQuantile float64
	// SRTMissBudget is the tolerated SRT miss fraction: deadline misses,
	// validity expiries and relay sheds over published SRT events.
	// 0 disables.
	SRTMissBudget float64
	// NRTFloorPerSec breaches when NRT delivery throughput drops below
	// this floor (events/second). 0 disables.
	NRTFloorPerSec float64
	// GuardianMuteBudget is the tolerated number of bus-guardian mutes
	// per LongWindow. 0 disables.
	GuardianMuteBudget float64
	// HoldoverBudget is the tolerated number of clock holdover entries
	// per LongWindow. 0 disables.
	HoldoverBudget float64
	// BusOffBudget is the tolerated number of controller bus-off entries
	// per LongWindow — a bus-off under an attack campaign is an incident
	// worth a flight-recorder post-mortem. 0 disables.
	BusOffBudget float64
	// ControlCostBudget is the tolerated quadratic control cost accrued
	// across all closed control loops per LongWindow — the application-
	// level objective: a healthy bus keeps plants near their setpoints,
	// so cost accrues slowly; late or lost frames make it burn. 0
	// disables.
	ControlCostBudget float64
	// SRTPredictedMiss, when set, closes the admission loop: it feeds
	// the admission controller's current predicted SRT deadline-miss
	// probability into the burn-rate engine as a dynamic budget. The
	// objective ("srt-miss-vs-predicted") breaches when the measured SRT
	// miss rate burns past the analyzer's prediction in both windows —
	// the wire is behaving worse than the admission model assumes, so
	// the probabilistic guarantees are void. core.NewSystem wires it to
	// the controller automatically when both are configured. Nil
	// disables.
	SRTPredictedMiss func() float64
}

// DefaultSLOConfig returns the objective set a production daemon runs
// with: 1 ms HRT p99 jitter bound, 5% SRT miss budget, guardian mutes
// and holdover entries both treated as budget-1-per-10s anomalies. The
// NRT floor stays off (a quiet segment is not an incident).
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		HRTJitterBound:     sim.Millisecond,
		SRTMissBudget:      0.05,
		GuardianMuteBudget: 1,
		HoldoverBudget:     1,
		BusOffBudget:       1,
	}
}

func (c *SLOConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * sim.Millisecond
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = sim.Second
	}
	if c.LongWindow <= c.ShortWindow {
		c.LongWindow = 10 * c.ShortWindow
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 1
	}
	if c.HRTJitterQuantile <= 0 || c.HRTJitterQuantile > 1 {
		c.HRTJitterQuantile = 0.99
	}
}

// Objective is the externally visible burn state of one objective, as
// served at /slo.
type Objective struct {
	// Name identifies the objective ("srt-miss-rate", "hrt-jitter-p99",
	// "nrt-throughput-floor", "guardian-mutes", "clock-holdover",
	// "busoff-events").
	Name string `json:"name"`
	// Class is the channel class the objective guards, when class-bound.
	Class string `json:"class,omitempty"`
	// Budget is the configured bound, in Unit.
	Budget float64 `json:"budget"`
	Unit   string  `json:"unit"`
	// Short and Long are the measured values over the two windows.
	Short float64 `json:"short"`
	Long  float64 `json:"long"`
	// ShortBurn and LongBurn are value/budget (for the throughput floor:
	// budget/value — burn grows as traffic falls).
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// Evaluable is false until both windows have a baseline sample, so
	// daemons don't false-breach at startup.
	Evaluable bool `json:"evaluable"`
	// Breached is the current state; Breaches counts enter-transitions.
	Breached   bool     `json:"breached"`
	BreachedAt sim.Time `json:"breached_at,omitempty"`
	Breaches   uint64   `json:"breaches"`
}

// jitSnap is a bucket-count snapshot of the HRT jitter histogram, so a
// window's jitter quantile can be computed over count deltas.
type jitSnap struct {
	ok     bool
	under  uint64
	over   uint64
	counts []uint64
}

// sloSample is one tick's counter snapshot.
type sloSample struct {
	at        sim.Time
	srtPub    float64
	srtMiss   float64
	nrtDeliv  float64
	mutes     float64
	holdovers float64
	busoffs   float64
	ctrlCost  float64
	jit       jitSnap
}

// SLO evaluates the configured objectives on a fixed virtual-time tick,
// keeps windowed burn state, and on a breach transition emits a
// slo_breach trace record, bumps canec_slo_breaches_total, and triggers
// a flight-recorder post-mortem. It runs inside the simulation kernel
// (rearming itself with Kernel.After), so a system running it must be
// driven with a horizon — the tick keeps the event queue non-empty.
type SLO struct {
	o   *Observer
	k   *sim.Kernel
	cfg SLOConfig

	samples    []sloSample
	objectives []*Objective

	// OnBreach, when set, runs on every breach-enter transition (after
	// the trace record and post-mortem dump). Kernel context.
	OnBreach func(Objective)
	// LastDump holds the paths of the most recent breach post-mortem.
	LastDump []string
}

// StartSLO builds the objective engine and schedules its first tick.
// Returns nil (a safe no-op handle) when the observer or its registry
// is absent — the engine reads every input from the metrics side.
func (o *Observer) StartSLO(k *sim.Kernel, cfg SLOConfig) *SLO {
	if o == nil || o.reg == nil || k == nil {
		return nil
	}
	cfg.fillDefaults()
	s := &SLO{o: o, k: k, cfg: cfg}
	if cfg.SRTMissBudget > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name: "srt-miss-rate", Class: "SRT",
			Budget: cfg.SRTMissBudget, Unit: "miss fraction"})
	}
	if cfg.SRTPredictedMiss != nil {
		s.objectives = append(s.objectives, &Objective{
			Name: "srt-miss-vs-predicted", Class: "SRT",
			Unit: "miss fraction"}) // Budget refreshed from the prediction each tick
	}
	if cfg.HRTJitterBound > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name: fmt.Sprintf("hrt-jitter-p%d", int(cfg.HRTJitterQuantile*100)), Class: "HRT",
			Budget: float64(cfg.HRTJitterBound) / 1e3, Unit: "µs"})
	}
	if cfg.NRTFloorPerSec > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name: "nrt-throughput-floor", Class: "NRT",
			Budget: cfg.NRTFloorPerSec, Unit: "events/s"})
	}
	if cfg.GuardianMuteBudget > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name:   "guardian-mutes",
			Budget: cfg.GuardianMuteBudget, Unit: fmt.Sprintf("mutes/%v", cfg.LongWindow)})
	}
	if cfg.HoldoverBudget > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name:   "clock-holdover",
			Budget: cfg.HoldoverBudget, Unit: fmt.Sprintf("entries/%v", cfg.LongWindow)})
	}
	if cfg.BusOffBudget > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name:   "busoff-events",
			Budget: cfg.BusOffBudget, Unit: fmt.Sprintf("entries/%v", cfg.LongWindow)})
	}
	if cfg.ControlCostBudget > 0 {
		s.objectives = append(s.objectives, &Objective{
			Name:   "control-cost",
			Budget: cfg.ControlCostBudget, Unit: fmt.Sprintf("cost/%v", cfg.LongWindow)})
	}
	s.samples = append(s.samples, s.snapshot(k.Now()))
	k.After(cfg.Interval, s.tick)
	return s
}

// Snapshot returns a copy of the current objective states for serving.
// Kernel context (route through sim.Paced.Call from HTTP handlers).
func (s *SLO) Snapshot() []Objective {
	if s == nil {
		return nil
	}
	out := make([]Objective, len(s.objectives))
	for i, ob := range s.objectives {
		out[i] = *ob
	}
	return out
}

// Breached reports whether any objective is currently in breach.
func (s *SLO) Breached() bool {
	if s == nil {
		return false
	}
	for _, ob := range s.objectives {
		if ob.Breached {
			return true
		}
	}
	return false
}

func (s *SLO) snapshot(at sim.Time) sloSample {
	o := s.o
	sm := sloSample{
		at:     at,
		srtPub: o.published.Sum("SRT"),
		srtMiss: o.exceptions.Sum("DeadlineMissed") +
			o.exceptions.Sum("ValidityExpired") +
			o.relayDrop.Sum("SRT"),
		nrtDeliv:  o.delivered.Sum("NRT"),
		mutes:     o.guardian.Sum(),
		holdovers: o.ctrlplane.Sum(string(StageHoldoverEnter)),
		busoffs:   o.busoff.Sum(),
		ctrlCost:  o.ctrlCost.Sum(),
	}
	if h := o.JitterHist("HRT"); h != nil {
		sm.jit.ok = true
		sm.jit.under, sm.jit.over = h.OutOfRange()
		sm.jit.counts = make([]uint64, h.Buckets())
		for i := range sm.jit.counts {
			sm.jit.counts[i] = h.Bucket(i)
		}
	}
	return sm
}

// baseline returns the newest sample at least w old, for window deltas.
func (s *SLO) baseline(now sim.Time, w sim.Duration) (sloSample, bool) {
	cutoff := now - sim.Time(w)
	if cutoff < 0 {
		return sloSample{}, false
	}
	var best *sloSample
	for i := range s.samples {
		if s.samples[i].at <= cutoff {
			best = &s.samples[i]
		} else {
			break
		}
	}
	if best == nil {
		return sloSample{}, false
	}
	return *best, true
}

// jitDeltaQuantile computes the q-quantile (µs) of jitter samples
// recorded since base, by walking bucket-count deltas. The bound
// reported is the containing bucket's upper edge — conservative by at
// most one growth factor.
func jitDeltaQuantile(h HistSource, base jitSnap, q float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	under, over := h.OutOfRange()
	var baseUnder, baseOver uint64
	baseCount := func(i int) uint64 { return 0 }
	if base.ok {
		baseUnder, baseOver = base.under, base.over
		baseCount = func(i int) uint64 {
			if i < len(base.counts) {
				return base.counts[i]
			}
			return 0
		}
	}
	dUnder := under - baseUnder
	total := dUnder + (over - baseOver)
	deltas := make([]uint64, h.Buckets())
	for i := range deltas {
		deltas[i] = h.Bucket(i) - baseCount(i)
		total += deltas[i]
	}
	if total == 0 {
		return 0, false
	}
	target := q * float64(total)
	cum := float64(dUnder)
	if target <= cum {
		return jitterHistMin, true // below the histogram floor: effectively zero jitter
	}
	for i, d := range deltas {
		cum += float64(d)
		if target <= cum {
			return h.UpperBound(i), true
		}
	}
	return h.UpperBound(h.Buckets() - 1), true
}

// windowValue evaluates one objective over [base, cur]. ok is false
// when the window holds no decidable signal (e.g. no SRT publishes).
func (s *SLO) windowValue(ob *Objective, cur, base sloSample, w sim.Duration) (value, burn float64) {
	secs := float64(w) / 1e9
	switch ob.Name {
	case "srt-miss-rate":
		pub := cur.srtPub - base.srtPub
		miss := cur.srtMiss - base.srtMiss
		if pub <= 0 {
			if miss <= 0 {
				return 0, 0
			}
			pub = miss // all observed outcomes missed
		}
		rate := miss / pub
		return rate, rate / ob.Budget
	case "srt-miss-vs-predicted":
		// Dynamic budget: the admission controller's current predicted
		// miss probability, floored so a zero prediction (no admitted
		// channels, or a fault-free model) never divides by zero.
		pred := s.cfg.SRTPredictedMiss()
		if pred < 1e-9 {
			pred = 1e-9
		}
		ob.Budget = pred
		pub := cur.srtPub - base.srtPub
		miss := cur.srtMiss - base.srtMiss
		if pub <= 0 {
			if miss <= 0 {
				return 0, 0
			}
			pub = miss
		}
		rate := miss / pub
		return rate, rate / ob.Budget
	case "nrt-throughput-floor":
		rate := (cur.nrtDeliv - base.nrtDeliv) / secs
		if rate <= 0 {
			return 0, s.cfg.BurnThreshold * 1e3 // hard floor violation
		}
		return rate, ob.Budget / rate
	case "guardian-mutes":
		n := cur.mutes - base.mutes
		budget := ob.Budget * float64(w) / float64(s.cfg.LongWindow)
		return n, n / budget
	case "clock-holdover":
		n := cur.holdovers - base.holdovers
		budget := ob.Budget * float64(w) / float64(s.cfg.LongWindow)
		return n, n / budget
	case "busoff-events":
		n := cur.busoffs - base.busoffs
		budget := ob.Budget * float64(w) / float64(s.cfg.LongWindow)
		return n, n / budget
	case "control-cost":
		n := cur.ctrlCost - base.ctrlCost
		budget := ob.Budget * float64(w) / float64(s.cfg.LongWindow)
		return n, n / budget
	default: // hrt-jitter-p*
		q, ok := jitDeltaQuantile(s.o.JitterHist("HRT"), base.jit, s.cfg.HRTJitterQuantile)
		if !ok {
			return 0, 0
		}
		return q, q / ob.Budget
	}
}

func (s *SLO) tick() {
	now := s.k.Now()
	cur := s.snapshot(now)
	s.samples = append(s.samples, cur)
	// Prune everything older than twice the long window; keep one older
	// sample as the long baseline.
	cutoff := now - sim.Time(2*s.cfg.LongWindow)
	drop := 0
	for drop < len(s.samples)-1 && s.samples[drop+1].at <= cutoff {
		drop++
	}
	s.samples = s.samples[drop:]

	for _, ob := range s.objectives {
		shortBase, okS := s.baseline(now, s.cfg.ShortWindow)
		longBase, okL := s.baseline(now, s.cfg.LongWindow)
		ob.Evaluable = okS && okL
		if !ob.Evaluable {
			continue
		}
		ob.Short, ob.ShortBurn = s.windowValue(ob, cur, shortBase, s.cfg.ShortWindow)
		ob.Long, ob.LongBurn = s.windowValue(ob, cur, longBase, s.cfg.LongWindow)
		over := ob.ShortBurn >= s.cfg.BurnThreshold && ob.LongBurn >= s.cfg.BurnThreshold
		switch {
		case over && !ob.Breached:
			s.enterBreach(ob, now)
		case !over && ob.Breached:
			ob.Breached = false
		}
	}
	s.k.After(s.cfg.Interval, s.tick)
}

func (s *SLO) enterBreach(ob *Objective, now sim.Time) {
	ob.Breached = true
	ob.BreachedAt = now
	ob.Breaches++
	o := s.o
	o.sloBreach.With(ob.Name).Inc()
	detail := fmt.Sprintf("%s: %.4g %s over short %.2fx / long %.2fx of budget %.4g",
		ob.Name, ob.Long, ob.Unit, ob.ShortBurn, ob.LongBurn, ob.Budget)
	// With the causal engine attached, the breach record carries the
	// current top-cause attribution — emitted before the flight dump, so
	// every breach post-mortem names its own "why" in the JSONL itself.
	if o.causal != nil {
		if why := o.causal.BreachSummary(ob.Class, 3); why != "" {
			detail += "; why: " + why
		}
	}
	o.emitRecord(Record{Stage: StageSLOBreach, At: now, Node: -1, Class: ob.Class,
		Prio: -1, Detail: detail})
	if o.flight != nil {
		if paths, err := o.flight.Dump("slo-" + ob.Name); err == nil {
			s.LastDump = paths
		}
	}
	if s.OnBreach != nil {
		s.OnBreach(*ob)
	}
}
