package prob

// The admission controller and analyzer as they were before Request
// kept its check loop's predictions and analyses ran in reused
// buffers, kept verbatim (ref-prefixed) as the oracle of
// admission_diff_test.go: every analysis is run twice per admission,
// each in freshly allocated distributions.

import (
	"fmt"
	"sort"

	"canec/internal/can"
	"canec/internal/sim"
)

// refController is the probabilistic admission controller. It runs in
// kernel context (all calls single-threaded with the simulation); HTTP
// access goes through sim.Paced.Call like every other kernel reader.
type refController struct {
	cfg AdmissionConfig
	now func() sim.Time

	entries  []*admEntry
	backoffs map[chanKey]*backoffState
	seq      uint64

	measuredRate float64

	admittedTotal uint64
	rejectedTotal uint64
	shedTotal     uint64
	rejectedBy    map[Reason]uint64
}

// newRefController builds a controller. now supplies kernel time (used for
// backoff deadlines and snapshot timestamps).
func newRefController(cfg AdmissionConfig, now func() sim.Time) *refController {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * sim.Millisecond
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = 2 * sim.Second
	}
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	return &refController{
		cfg:        cfg,
		now:        now,
		backoffs:   make(map[chanKey]*backoffState),
		rejectedBy: map[Reason]uint64{},
	}
}

// effectiveModel returns the analyzer with the error rate raised to the
// measured value when measurement exceeds the plan.
func (c *refController) effectiveModel() Analyzer {
	a := c.cfg.Analyzer
	if c.measuredRate > a.Model.ErrorRate {
		a.Model.ErrorRate = c.measuredRate
	}
	return a
}

// EffectiveRate returns the per-attempt error probability currently
// used for analysis.
func (c *refController) EffectiveRate() float64 {
	return c.effectiveModel().Model.ErrorRate
}

// analysisSet renders the admission state as a message set for one
// target channel: reserved HRT load keeps the highest priority, every
// other admitted SRT channel is treated as potential interference (the
// EDF band gives no static ordering, so the worst case is all-ahead),
// and NRT channels interfere by their fixed priorities.
func (c *refController) analysisSet(cand ChannelReq, extra []*admEntry) ([]Msg, int) {
	const (
		prioReserved = 0
		prioSRTOther = 1
		prioTarget   = 2
		prioNRTAfter = 3
	)
	var set []Msg
	for _, r := range c.cfg.Reserved {
		r.Prio = prioReserved
		set = append(set, r)
	}
	for _, e := range extra {
		if e.req == cand {
			continue
		}
		m := Msg{
			Name:     "admitted",
			Period:   e.req.Period,
			Deadline: e.req.Deadline,
			Payload:  e.req.Payload,
		}
		switch {
		case e.req.Class == "SRT" && cand.Class == "SRT":
			m.Prio = prioSRTOther
		case e.req.Class == "SRT":
			// SRT always outranks NRT.
			m.Prio = prioSRTOther
		case cand.Class == "SRT":
			// NRT never outranks an SRT target: blocking only.
			m.Prio = prioNRTAfter
		default:
			// NRT vs NRT: fixed priorities decide.
			if e.req.Prio < cand.Prio {
				m.Prio = prioSRTOther
			} else {
				m.Prio = prioNRTAfter
			}
		}
		set = append(set, m)
	}
	target := len(set)
	set = append(set, Msg{
		Name:     "target",
		Prio:     prioTarget,
		Period:   cand.Period,
		Deadline: cand.Deadline,
		Payload:  cand.Payload,
	})
	return set, target
}

// missProb analyzes one channel against the given co-admitted entries.
func (c *refController) refMissProb(a Analyzer, req ChannelReq, others []*admEntry) (float64, error) {
	set, target := c.analysisSet(req, others)
	res, err := a.refResponse(set, target)
	if err != nil {
		return 1, err
	}
	return res.MissProb, nil
}

// reject books a rejection and arms/extends the channel's backoff.
func (c *refController) reject(key chanKey, reason Reason, miss, target float64) Decision {
	c.rejectedTotal++
	c.rejectedBy[reason]++
	b := c.backoffs[key]
	if b == nil {
		b = &backoffState{}
		c.backoffs[key] = b
	}
	d := c.cfg.BackoffBase << b.count
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	if b.count < 30 {
		b.count++
	}
	b.until = c.now() + sim.Time(d)
	return Decision{Reason: reason, MissProb: miss, Target: target, RetryAfter: d}
}

// Request decides admission for one channel. Channels of classes
// without a configured target are admitted without analysis (but still
// tracked, so they interfere with controlled classes). Re-requesting an
// already-admitted channel re-evaluates it in place.
func (c *refController) Request(req ChannelReq) Decision {
	key := chanKey{req.Node, req.Subject}
	target := c.cfg.Targets.target(req.Class)

	// Already admitted: idempotent re-announce.
	for _, e := range c.entries {
		if (chanKey{e.req.Node, e.req.Subject}) == key {
			return Decision{Admitted: true, MissProb: e.missProb, Target: target}
		}
	}

	if b := c.backoffs[key]; b != nil && c.now() < b.until {
		c.rejectedTotal++
		c.rejectedBy[ReasonBackoff]++
		return Decision{Reason: ReasonBackoff, Target: target,
			RetryAfter: sim.Duration(b.until - c.now())}
	}

	if target <= 0 {
		// Uncontrolled class: admit, but keep it in the interference set.
		c.admit(req, 0)
		return Decision{Admitted: true, Target: 0}
	}

	if req.Period <= 0 || req.Deadline <= 0 {
		return c.reject(key, ReasonUndeclared, 0, target)
	}

	a := c.effectiveModel()
	miss, err := c.refMissProb(a, req, c.entries)
	if err != nil {
		return c.reject(key, ReasonUnschedulable, 1, target)
	}
	if miss > target {
		return c.reject(key, ReasonMissProb, miss, target)
	}

	// The newcomer must not push any already-admitted controlled
	// channel over its own target ("no silent across-the-board
	// degradation": the marginal channel is the one turned away).
	withCand := append(append([]*admEntry(nil), c.entries...),
		&admEntry{req: req})
	for _, e := range c.entries {
		et := c.cfg.Targets.target(e.req.Class)
		if et <= 0 || e.req.Period <= 0 || e.req.Deadline <= 0 {
			continue
		}
		m, err := c.refMissProb(a, e.req, withCand)
		if err != nil || m > et {
			return c.reject(key, ReasonMissProb, miss, target)
		}
	}

	c.admit(req, miss)
	// Refresh the stored predictions of the co-admitted channels.
	c.refresh(a)
	return Decision{Admitted: true, MissProb: miss, Target: target}
}

func (c *refController) admit(req ChannelReq, miss float64) {
	c.seq++
	c.admittedTotal++
	delete(c.backoffs, chanKey{req.Node, req.Subject})
	c.entries = append(c.entries, &admEntry{
		req: req, missProb: miss, admittedAt: c.now(), seq: c.seq,
	})
}

// refresh recomputes the stored miss probability of every analyzable
// admitted channel under analyzer a.
func (c *refController) refresh(a Analyzer) {
	for _, e := range c.entries {
		if c.cfg.Targets.target(e.req.Class) <= 0 ||
			e.req.Period <= 0 || e.req.Deadline <= 0 {
			continue
		}
		if m, err := c.refMissProb(a, e.req, c.entries); err == nil {
			e.missProb = m
		} else {
			e.missProb = 1
		}
	}
}

// Release withdraws a channel (publication cancelled); its backoff
// state is cleared too.
func (c *refController) Release(node int, subject uint64) {
	key := chanKey{node, subject}
	for i, e := range c.entries {
		if (chanKey{e.req.Node, e.req.Subject}) == key {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			break
		}
	}
	delete(c.backoffs, key)
}

// SetMeasuredRate installs a measured per-attempt error rate (from
// error-state trace events: error-passive, bus-off, guardian isolation
// all imply the plan underestimated the link) and re-evaluates every
// admitted channel under the raised rate. Channels whose predicted miss
// probability now exceeds their target are shed most-recently-admitted
// first, so the channels admitted earliest keep their guarantees. Shed
// channels get a typed reason and a capped-exponential re-admission
// backoff. The shed list is returned for the caller to apply.
func (c *refController) SetMeasuredRate(rate float64) []Shed {
	if !validProb(rate) {
		return nil
	}
	c.measuredRate = rate
	a := c.effectiveModel()
	var shed []Shed
	for {
		c.refresh(a)
		// Find the most recently admitted violating channel.
		var victim *admEntry
		for _, e := range c.entries {
			t := c.cfg.Targets.target(e.req.Class)
			if t <= 0 {
				continue
			}
			if e.missProb > t && (victim == nil || e.seq > victim.seq) {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		t := c.cfg.Targets.target(victim.req.Class)
		shed = append(shed, Shed{
			Channel: victim.req, MissProb: victim.missProb,
			Target: t, Reason: ReasonErrorState,
		})
		c.shedTotal++
		key := chanKey{victim.req.Node, victim.req.Subject}
		for i, e := range c.entries {
			if e == victim {
				c.entries = append(c.entries[:i], c.entries[i+1:]...)
				break
			}
		}
		// Arm the re-admission backoff for the shed channel.
		b := c.backoffs[key]
		if b == nil {
			b = &backoffState{}
			c.backoffs[key] = b
		}
		d := c.cfg.BackoffBase << b.count
		if d > c.cfg.BackoffCap || d <= 0 {
			d = c.cfg.BackoffCap
		}
		if b.count < 30 {
			b.count++
		}
		b.until = c.now() + sim.Time(d)
	}
	return shed
}

// MeasuredRate returns the last installed measured error rate.
func (c *refController) MeasuredRate() float64 { return c.measuredRate }

// PredictedMiss returns the worst predicted deadline-miss probability
// among admitted channels of the class (0 when none admitted) — the
// calibration budget the SLO engine compares measured miss rates
// against.
func (c *refController) PredictedMiss(class string) float64 {
	var worst float64
	for _, e := range c.entries {
		if e.req.Class == class && e.missProb > worst {
			worst = e.missProb
		}
	}
	return worst
}

// Counts returns the running admitted/rejected/shed totals.
func (c *refController) Counts() (admitted, rejected, shed uint64) {
	return c.admittedTotal, c.rejectedTotal, c.shedTotal
}

// Snapshot renders the controller state for the admin plane. Kernel
// context.
func (c *refController) Snapshot() Snapshot {
	s := Snapshot{
		Enabled:          true,
		Targets:          c.cfg.Targets,
		PlannedRate:      c.cfg.Analyzer.Model.ErrorRate,
		MeasuredRate:     c.measuredRate,
		EffectiveRate:    c.EffectiveRate(),
		AdmittedTotal:    c.admittedTotal,
		RejectedTotal:    c.rejectedTotal,
		ShedTotal:        c.shedTotal,
		Rejected:         map[string]uint64{},
		PredictedMissSRT: c.PredictedMiss("SRT"),
		PredictedMissNRT: c.PredictedMiss("NRT"),
		Admitted:         []AdmittedChannel{},
	}
	for r, n := range c.rejectedBy {
		s.Rejected[r.String()] = n
	}
	for _, e := range c.entries {
		s.Admitted = append(s.Admitted, AdmittedChannel{
			Channel: e.req, MissProb: e.missProb, AdmittedAt: e.admittedAt,
		})
	}
	sort.Slice(s.Admitted, func(i, j int) bool {
		a, b := s.Admitted[i].Channel, s.Admitted[j].Channel
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Subject < b.Subject
	})
	return s
}

// refResponse analyzes the stream set[target] within its message set. The
// busy window is fixed by the zero-error Tindell recurrence (identical
// to baseline.WCRT with worst-case frame bits), then every transmission
// in the window contributes its error-extension distribution by
// convolution.
func (a Analyzer) refResponse(set []Msg, target int) (Result, error) {
	if target < 0 || target >= len(set) {
		return Result{}, fmt.Errorf("prob: target %d out of set of %d", target, len(set))
	}
	m := set[target]
	bitRate := a.bitRate()
	tau := can.BitTime(1, bitRate)
	cm := a.frameTime(m.Payload)

	// Utilization precheck of the busy-period argument (zero-error
	// demand of the target and its higher-priority interference).
	if m.Period > 0 {
		u := float64(cm) / float64(m.Period)
		for i, h := range set {
			if i != target && h.Prio < m.Prio && h.Period > 0 {
				u += float64(a.frameTime(h.Payload)) / float64(h.Period)
			}
		}
		if u >= 1 {
			return Result{}, errUnschedulable
		}
	}

	// Blocking: the longest frame without higher priority than the
	// target (non-preemptive bus).
	var block sim.Duration
	for i, o := range set {
		if i != target && o.Prio >= m.Prio {
			if ft := a.frameTime(o.Payload); ft > block {
				block = ft
			}
		}
	}

	// Zero-error fixed point on the queueing delay w, keeping the
	// per-interferer transmission counts of the final window.
	horizon := 1000 * m.Period
	if horizon <= 0 {
		horizon = sim.Duration(1) << 40
	}
	w := block
	counts := make([]int64, len(set))
	for iter := 0; ; iter++ {
		if iter >= 1_000_000 {
			return Result{}, errUnschedulable
		}
		next := block
		for i, h := range set {
			counts[i] = 0
			if i == target || h.Prio >= m.Prio || h.Period <= 0 {
				continue
			}
			n := int64((w + h.Jitter + tau + h.Period - 1) / h.Period)
			if n < 1 {
				n = 1
			}
			counts[i] = n
			next += sim.Duration(n) * a.frameTime(h.Payload)
		}
		if next == w {
			break
		}
		w = next
		if w > horizon {
			return Result{}, errUnschedulable
		}
	}
	r0 := m.Jitter + w + cm

	// Distribution horizon in ticks.
	distHorizon := a.Horizon
	if distHorizon <= 0 {
		distHorizon = 8 * m.Deadline
		if min := 16 * cm; distHorizon < min {
			distHorizon = min
		}
	}
	if distHorizon < r0+tau {
		distHorizon = r0 + tau
	}
	ticks := int(distHorizon/tau) + 2

	// Base: point mass at the zero-error response (round partial ticks
	// up — conservative).
	r0Ticks := int((r0 + tau - 1) / tau)
	d := refPointMass(tau, r0Ticks, ticks)

	// Convolve the error extension of every transmission in the busy
	// window: the target's own frame plus each counted interferer.
	transmissions := 1
	d.refConvolveAtoms(a.extensionAtoms(m.Payload))
	for i, n := range counts {
		if n <= 0 {
			continue
		}
		atoms := a.extensionAtoms(set[i].Payload)
		for j := int64(0); j < n; j++ {
			d.refConvolveAtoms(atoms)
			transmissions++
		}
	}
	d.spare = nil // the result retains the distribution only

	res := Result{
		Msg:           m,
		Dist:          d,
		ZeroError:     r0,
		Transmissions: transmissions,
	}
	if !a.Deterministic {
		res.LossProb = a.Model.DeliveryLossProb()
	}
	if m.Deadline > 0 {
		res.MissProb = d.TailAbove(m.Deadline)
	}
	return res, nil
}

// refPointMass returns the distribution concentrated at the given tick.
// Ticks at or beyond the horizon land in the overflow mass.
func refPointMass(tick sim.Duration, at, horizon int) *Dist {
	d := &Dist{tick: tick, p: make([]float64, horizon)}
	if at < 0 {
		at = 0
	}
	if at >= horizon {
		d.over = 1
		return d
	}
	d.p[at] = 1
	return d
}

// refConvolveAtoms convolves d in place with a sparse component
// distribution given as atoms. Mass pushed past the horizon joins the
// overflow. The atoms' probabilities should sum to ≤ 1; any deficit
// (truncated component mass) is added to the overflow as well, keeping
// every tail estimate an upper bound.
func (d *Dist) refConvolveAtoms(atoms []atom) {
	var mass float64
	for _, a := range atoms {
		mass += a.pr
	}
	next := d.spare
	if len(next) != len(d.p) {
		next = make([]float64, len(d.p))
	} else {
		for i := range next {
			next[i] = 0
		}
	}
	var over float64
	for i, pi := range d.p {
		if pi == 0 {
			continue
		}
		for _, a := range atoms {
			j := i + a.dt
			if j >= len(next) {
				over += pi * a.pr
				continue
			}
			next[j] += pi * a.pr
		}
		// Truncated component mass: the convolution partner had
		// probability (1 - mass) of exceeding its own truncation bound.
		over += pi * (1 - mass)
	}
	d.p, d.spare = next, d.p
	d.over += over
}
