package prob

import (
	"sort"

	"canec/internal/can"
	"canec/internal/sim"
)

// Reason is the typed cause attached to every admission rejection or
// shed — overload never degrades channels silently.
type Reason int

const (
	// ReasonNone: admitted.
	ReasonNone Reason = iota
	// ReasonMissProb: the channel's predicted deadline-miss probability
	// (or the degradation it would inflict on already-admitted
	// channels) exceeds the class target.
	ReasonMissProb
	// ReasonUnschedulable: the deterministic part of the load already
	// saturates the bus; no error model admits the channel.
	ReasonUnschedulable
	// ReasonBackoff: a re-admission attempt arrived before the
	// channel's capped-exponential backoff expired.
	ReasonBackoff
	// ReasonErrorState: the channel was shed when error-state events
	// raised the measured error rate past what its admission assumed.
	ReasonErrorState
	// ReasonUndeclared: the channel declared no period or deadline, so
	// its miss probability cannot be analyzed.
	ReasonUndeclared
)

// String implements fmt.Stringer (metric label values).
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonMissProb:
		return "miss-probability"
	case ReasonUnschedulable:
		return "unschedulable"
	case ReasonBackoff:
		return "backoff"
	case ReasonErrorState:
		return "error-state"
	case ReasonUndeclared:
		return "undeclared-rate"
	}
	return "?"
}

// ClassTargets carries the per-class target deadline-miss probability.
// Zero disables admission control for that class (everything admitted).
type ClassTargets struct {
	SRT float64
	NRT float64
}

// target returns the class target (0 = class not controlled).
func (t ClassTargets) target(class string) float64 {
	switch class {
	case "SRT":
		return t.SRT
	case "NRT":
		return t.NRT
	}
	return 0
}

// AdmissionConfig parameterises the controller.
type AdmissionConfig struct {
	// Targets are the per-class miss-probability ceilings.
	Targets ClassTargets
	// Analyzer supplies the bit rate, error model and truncation used
	// for every admission analysis. Its Model is the *planned* error
	// law; the controller raises the effective rate when measurement
	// exceeds the plan.
	Analyzer Analyzer
	// Reserved is the deterministic HRT load (calendar slots rendered
	// as highest-priority periodic streams); it interferes with every
	// analyzed channel but is never itself up for admission.
	Reserved []Msg
	// BackoffBase and BackoffCap bound the capped-exponential
	// re-admission backoff (defaults 50 ms and 2 s).
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
}

// ChannelReq identifies one SRT/NRT channel asking for admission.
type ChannelReq struct {
	Node     int
	Subject  uint64
	Class    string // "SRT" or "NRT"
	Prio     can.Prio
	Payload  int
	Period   sim.Duration
	Deadline sim.Duration // relative transmission deadline
}

// Decision is the outcome of one admission request.
type Decision struct {
	Admitted bool
	Reason   Reason
	// MissProb is the channel's predicted deadline-miss probability
	// under the current error model and admitted set.
	MissProb float64
	// Target is the class ceiling the prediction was checked against.
	Target float64
	// RetryAfter is the re-admission backoff on rejection (0 when
	// admitted).
	RetryAfter sim.Duration
}

// Shed describes one channel evicted by re-evaluation.
type Shed struct {
	Channel  ChannelReq
	MissProb float64
	Target   float64
	Reason   Reason
}

// AdmittedChannel is one admitted row of the controller snapshot.
type AdmittedChannel struct {
	Channel    ChannelReq `json:"channel"`
	MissProb   float64    `json:"miss_prob"`
	AdmittedAt sim.Time   `json:"admitted_at"`
}

// Snapshot is the externally visible controller state, served on the
// admin plane at /admission.
type Snapshot struct {
	Enabled       bool              `json:"enabled"`
	Targets       ClassTargets      `json:"targets"`
	PlannedRate   float64           `json:"planned_error_rate"`
	MeasuredRate  float64           `json:"measured_error_rate"`
	EffectiveRate float64           `json:"effective_error_rate"`
	Admitted      []AdmittedChannel `json:"admitted"`
	AdmittedTotal uint64            `json:"admitted_total"`
	RejectedTotal uint64            `json:"rejected_total"`
	ShedTotal     uint64            `json:"shed_total"`
	Rejected      map[string]uint64 `json:"rejected_by_reason"`
	// PredictedMissSRT/NRT are the worst predicted miss probabilities
	// among currently admitted channels of each class — the budget the
	// SLO engine checks measured miss rates against.
	PredictedMissSRT float64 `json:"predicted_miss_srt"`
	PredictedMissNRT float64 `json:"predicted_miss_nrt"`
}

type chanKey struct {
	node    int
	subject uint64
}

type admEntry struct {
	req        ChannelReq
	missProb   float64
	admittedAt sim.Time
	seq        uint64
}

type backoffState struct {
	until sim.Time
	count int
}

// Controller is the probabilistic admission controller. It runs in
// kernel context (all calls single-threaded with the simulation); HTTP
// access goes through sim.Paced.Call like every other kernel reader.
type Controller struct {
	cfg AdmissionConfig
	now func() sim.Time

	entries  []*admEntry
	backoffs map[chanKey]*backoffState
	seq      uint64

	measuredRate float64

	// Analysis scratch, kernel context only like every other call: the
	// distribution every missProb convolves in, the message set and
	// busy-window counts it analyses, and the check loop's predictions.
	scratch Dist
	set     []Msg
	counts  []int64
	pending []float64

	admittedTotal uint64
	rejectedTotal uint64
	shedTotal     uint64
	rejectedBy    map[Reason]uint64
}

// NewController builds a controller. now supplies kernel time (used for
// backoff deadlines and snapshot timestamps).
func NewController(cfg AdmissionConfig, now func() sim.Time) *Controller {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * sim.Millisecond
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = 2 * sim.Second
	}
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	return &Controller{
		cfg:        cfg,
		now:        now,
		backoffs:   make(map[chanKey]*backoffState),
		rejectedBy: map[Reason]uint64{},
	}
}

// effectiveModel returns the analyzer with the error rate raised to the
// measured value when measurement exceeds the plan.
func (c *Controller) effectiveModel() Analyzer {
	a := c.cfg.Analyzer
	if c.measuredRate > a.Model.ErrorRate {
		a.Model.ErrorRate = c.measuredRate
	}
	return a
}

// EffectiveRate returns the per-attempt error probability currently
// used for analysis.
func (c *Controller) EffectiveRate() float64 {
	return c.effectiveModel().Model.ErrorRate
}

// analysisSet renders the admission state as a message set for one
// target channel: reserved HRT load keeps the highest priority, every
// other admitted SRT channel is treated as potential interference (the
// EDF band gives no static ordering, so the worst case is all-ahead),
// and NRT channels interfere by their fixed priorities. The set is
// appended to set[:0].
func (c *Controller) analysisSet(set []Msg, cand ChannelReq, extra []*admEntry) ([]Msg, int) {
	const (
		prioReserved = 0
		prioSRTOther = 1
		prioTarget   = 2
		prioNRTAfter = 3
	)
	set = set[:0]
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

// missProb analyzes one channel against the given co-admitted entries,
// in the controller's scratch buffers.
func (c *Controller) missProb(a Analyzer, req ChannelReq, others []*admEntry) (float64, error) {
	set, target := c.analysisSet(c.set, req, others)
	c.set = set
	if cap(c.counts) < len(set) {
		c.counts = make([]int64, len(set))
	}
	res, err := a.response(set, target, &c.scratch, c.counts[:len(set)])
	if err != nil {
		return 1, err
	}
	return res.MissProb, nil
}

// reject books a rejection and arms/extends the channel's backoff.
func (c *Controller) reject(key chanKey, reason Reason, miss, target float64) Decision {
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
func (c *Controller) Request(req ChannelReq) Decision {
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
	miss, err := c.missProb(a, req, c.entries)
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
	c.pending = c.pending[:0]
	for _, e := range c.entries {
		m := e.missProb
		if et := c.cfg.Targets.target(e.req.Class); analyzable(et, e.req) {
			var err error
			if m, err = c.missProb(a, e.req, withCand); err != nil || m > et {
				return c.reject(key, ReasonMissProb, miss, target)
			}
		}
		c.pending = append(c.pending, m)
	}

	// After admit the entries are withCand's message set, so the check
	// loop's predictions are what refresh would recompute, and the
	// newcomer's own was analysed against the same set.
	for i, e := range c.entries {
		e.missProb = c.pending[i]
	}
	c.admit(req, miss)
	return Decision{Admitted: true, MissProb: miss, Target: target}
}

func (c *Controller) admit(req ChannelReq, miss float64) {
	c.seq++
	c.admittedTotal++
	delete(c.backoffs, chanKey{req.Node, req.Subject})
	c.entries = append(c.entries, &admEntry{
		req: req, missProb: miss, admittedAt: c.now(), seq: c.seq,
	})
}

// analyzable reports whether a channel with class target t gets a
// miss-probability analysis: its class is controlled and it declared a
// period and a deadline.
func analyzable(t float64, req ChannelReq) bool {
	return t > 0 && req.Period > 0 && req.Deadline > 0
}

// refresh recomputes the stored miss probability of every analyzable
// admitted channel under analyzer a.
func (c *Controller) refresh(a Analyzer) {
	for _, e := range c.entries {
		if !analyzable(c.cfg.Targets.target(e.req.Class), e.req) {
			continue
		}
		if m, err := c.missProb(a, e.req, c.entries); err == nil {
			e.missProb = m
		} else {
			e.missProb = 1
		}
	}
}

// Release withdraws a channel (publication cancelled); its backoff
// state is cleared too.
func (c *Controller) Release(node int, subject uint64) {
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
func (c *Controller) SetMeasuredRate(rate float64) []Shed {
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

// PredictedMiss returns the worst predicted deadline-miss probability
// among admitted channels of the class (0 when none admitted) — the
// calibration budget the SLO engine compares measured miss rates
// against.
func (c *Controller) PredictedMiss(class string) float64 {
	var worst float64
	for _, e := range c.entries {
		if e.req.Class == class && e.missProb > worst {
			worst = e.missProb
		}
	}
	return worst
}

// Snapshot renders the controller state for the admin plane. Kernel
// context.
func (c *Controller) Snapshot() Snapshot {
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
	// order-free: a map copy.
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
