// Package causal reconstructs per-event critical paths from the obs
// trace stream and attributes publish→deliver latency to typed causes —
// the "why late" engine.
//
// The attribution is exact, not heuristic: the trace stages of one event
// tile the interval [published.At, terminal.At] with no holes (adjacent
// records bound each other), so every gap between two adjacent stage
// records is charged — in full — to a cause derived from the stage
// transition, and waiting gaps are further carved against independently
// observed wire occupancy (tx_start/tx_ok spans of other frames) and
// node-state windows (bus_off→bus_off_recovered, holdover_enter→exit).
// The carving is interval subtraction in integer nanoseconds, so by
// construction the segment debits of a CauseChain sum to the
// trace-observed latency with residual exactly zero. Tests and E19
// assert that invariant per frame.
//
// The analyzer is streaming: it is fed record-by-record from kernel
// context (obs.Observer.AttachCausal), finalizes a chain on its terminal
// stage (delivered / dropped / expired / shed / tx_abort / relay_drop),
// and aggregates per-class per-cause debit profiles into counters and
// log-bucketed histograms. Batch use (canecwhy over a flight-recorder
// post-mortem) replays a record slice through the same engine.
package causal

import (
	"fmt"
	"sort"

	"canec/internal/obs"
	"canec/internal/sim"
)

// Cause labels one attributed latency contributor. Causes split into a
// baseline set (inherent to any delivery: publish processing, scheduled
// slot waits, the frame's own wire time, the de-jitter hold) and an
// abnormal set (interference, errors, faults, backpressure) — only
// abnormal debits make a chain's "why", so an undisturbed delivery has
// top cause "none".
type Cause string

const (
	// CausePublish is publish-side middleware processing
	// (published→enqueued).
	CausePublish Cause = "publish"
	// CauseSlotWait is an HRT event waiting for its reserved calendar
	// slot — scheduled, not anomalous.
	CauseSlotWait Cause = "slot_wait"
	// CauseWireTx is the frame's own successful wire occupancy.
	CauseWireTx Cause = "wire_tx"
	// CauseDelivery is receive-side processing (tx_ok→rx→delivered).
	CauseDelivery Cause = "delivery"
	// CauseDejitterHold is the HRT delivery-at-deadline hold (§3.2): the
	// subscriber-side wait that trades latency for zero jitter.
	CauseDejitterHold Cause = "dejitter_hold"

	// CauseQueueWait is time spent behind the publisher's own queue with
	// the wire idle or unobserved — self-induced backlog.
	CauseQueueWait Cause = "queue_wait"
	// CauseArbInterference is waiting while the wire carried another
	// frame — lost or deferred arbitration. The label names the
	// interfering subject (or band for untraced frames).
	CauseArbInterference Cause = "arb_interference"
	// CauseErrorRetransmit is time lost to corrupted attempts: the
	// partial transmission up to the error frame plus the recovery and
	// re-arbitration until the next attempt. The label carries the
	// failing attempt number.
	CauseErrorRetransmit Cause = "error_retransmit"
	// CauseBusoffRecovery is waiting while the publisher's controller
	// was bus-off (detached pending the 128×11-bit recovery).
	CauseBusoffRecovery Cause = "busoff_recovery"
	// CauseHoldoverWidening is HRT hold time spent under clock holdover,
	// when the slack is widened to the holdover uncertainty bound.
	CauseHoldoverWidening Cause = "holdover_widening"
	// CauseGuardianMute is time lost after the bus guardian muted an
	// attempt before it reached the wire.
	CauseGuardianMute Cause = "guardian_mute"
	// CauseRelayQueue is time between the last local stage and the relay
	// link accepting the event for forwarding.
	CauseRelayQueue Cause = "relay_queue"
	// CauseRelayLink is relay link transit (relay_tx→relay_rx).
	CauseRelayLink Cause = "relay_link"
	// CauseAdmissionBackoff is the tail of a chain withdrawn by the
	// probabilistic admission controller (admit_shed on its channel).
	CauseAdmissionBackoff Cause = "admission_backoff"

	// CauseNone is the top cause of a chain with zero abnormal debit.
	CauseNone Cause = "none"
)

// Abnormal reports whether the cause counts toward a chain's "why"
// (baseline causes are inherent to any delivery and never make a top
// cause).
func (c Cause) Abnormal() bool {
	switch c {
	case CausePublish, CauseSlotWait, CauseWireTx, CauseDelivery,
		CauseDejitterHold, CauseNone:
		return false
	}
	return true
}

// Causes lists every cause in exposition order (baseline first).
func Causes() []Cause {
	return []Cause{
		CausePublish, CauseSlotWait, CauseWireTx, CauseDelivery, CauseDejitterHold,
		CauseQueueWait, CauseArbInterference, CauseErrorRetransmit,
		CauseBusoffRecovery, CauseHoldoverWidening, CauseGuardianMute,
		CauseRelayQueue, CauseRelayLink, CauseAdmissionBackoff,
	}
}

// Segment is one attributed slice of a chain's latency. Segments with
// the same cause and label are coalesced, keeping first-touch order.
type Segment struct {
	Cause Cause `json:"cause"`
	// Label refines the cause: the interfering subject or band for
	// arb_interference, the failing attempt (k=N) for error_retransmit.
	Label string `json:"label,omitempty"`
	// Debit is the attributed virtual time in nanoseconds.
	Debit sim.Duration `json:"debit_ns"`
}

// Chain is the finished attribution of one event: ordered cause
// segments whose debits sum exactly to Latency (residual zero).
type Chain struct {
	ID        uint64       `json:"id"`
	Class     string       `json:"class,omitempty"`
	Subject   uint64       `json:"subject,omitempty"`
	Node      int          `json:"node"`
	Published sim.Time     `json:"published"`
	End       sim.Time     `json:"end"`
	Outcome   string       `json:"outcome"`
	Latency   sim.Duration `json:"latency_ns"`
	Late      bool         `json:"late,omitempty"`
	Segments  []Segment    `json:"segments,omitempty"`
	// Top is the abnormal cause with the largest debit (CauseNone when
	// no abnormal time was attributed).
	Top Cause `json:"top"`
}

// Residual is Latency minus the sum of segment debits. The engine's
// core invariant is that it is zero for every finished chain.
func (c Chain) Residual() sim.Duration {
	r := c.Latency
	for _, s := range c.Segments {
		r -= s.Debit
	}
	return r
}

// Debit sums the chain's attributed time for one cause across labels.
func (c Chain) Debit(cause Cause) sim.Duration {
	var d sim.Duration
	for _, s := range c.Segments {
		if s.Cause == cause {
			d += s.Debit
		}
	}
	return d
}

// AbnormalDebit sums the chain's abnormal segment debits.
func (c Chain) AbnormalDebit() sim.Duration {
	var d sim.Duration
	for _, s := range c.Segments {
		if s.Cause.Abnormal() {
			d += s.Debit
		}
	}
	return d
}

// Config parameterises the analyzer. The zero value works.
type Config struct {
	// Registry, when set, backs the canec_why_* metric families.
	Registry *obs.Registry
	// BitTime converts debits to bus bit times for rendering (default
	// 1 µs — the 1 Mbit/s bus).
	BitTime sim.Duration
	// LateOver classifies a delivered chain of a class as late when its
	// latency exceeds the bound. Classes absent from the map are never
	// late (dropped chains always count as incidents).
	LateOver map[string]sim.Duration
	// MaxOpen bounds in-flight (unterminated) chains; the oldest is
	// evicted past the bound (default 8192).
	MaxOpen int
	// KeepRecent bounds the retained summaries of recent late/dropped
	// chains served on /why (default 32).
	KeepRecent int
	// KeepAll retains every finished chain for Chains() — batch and
	// experiment use, not for long-running daemons.
	KeepAll bool
}

// span is one observed wire occupancy.
type span struct {
	from, to sim.Time
	id       uint64
	subject  uint64
	etag     uint16
	band     string
}

func (s span) label() string {
	if s.subject != 0 {
		return fmt.Sprintf("subject=0x%x", s.subject)
	}
	if s.band != "" {
		return "band=" + s.band
	}
	return fmt.Sprintf("etag=0x%x", s.etag)
}

// nodeWin is one node-state window (bus-off or holdover).
type nodeWin struct {
	node     int
	from, to sim.Time
}

// chainState accumulates one open trace.
type chainState struct {
	recs []obs.Record
}

// classAgg aggregates finished chains of one class.
type classAgg struct {
	chains, late, dropped uint64
	debit                 map[Cause]sim.Duration
	lateTop               map[Cause]uint64 // late+dropped chains by top cause
}

// Analyzer is the streaming why-late engine. It implements
// obs.CausalSink; drive it with Add in kernel context only.
type Analyzer struct {
	cfg Config

	open      map[uint64]*chainState
	openOrder []uint64 // FIFO of open IDs for bounded eviction
	evicted   uint64

	spans    []span // closed wire occupancies, in close order
	openSpan span
	spanOpen bool

	busoff   []nodeWin
	busoffAt map[int]sim.Time
	holdover []nodeWin
	holdAt   map[int]sim.Time
	admShed  map[uint64]sim.Time // subject → last admit_shed time

	byClass map[string]*classAgg
	classes []string // first-touch order
	total   uint64
	recent  []Chain // last KeepRecent late/dropped chains
	all     []Chain // when KeepAll

	// The canec_why_* families, nil without a Config.Registry.
	mChains    *obs.CounterVec   // class, outcome
	mDebit     *obs.CounterVec   // class, cause; ns
	mLate      *obs.CounterVec   // class, top cause of late chains
	mDebitHist *obs.HistogramVec // class, cause; µs per chain
}

// New builds an analyzer.
func New(cfg Config) *Analyzer {
	if cfg.BitTime <= 0 {
		cfg.BitTime = sim.Microsecond
	}
	if cfg.MaxOpen <= 0 {
		cfg.MaxOpen = 8192
	}
	if cfg.KeepRecent <= 0 {
		cfg.KeepRecent = 32
	}
	a := &Analyzer{
		cfg:      cfg,
		open:     make(map[uint64]*chainState),
		busoffAt: make(map[int]sim.Time),
		holdAt:   make(map[int]sim.Time),
		admShed:  make(map[uint64]sim.Time),
		byClass:  make(map[string]*classAgg),
	}
	if r := cfg.Registry; r != nil {
		a.mChains = r.CounterVec("canec_why_chains_total",
			"Cause-attributed event chains finished by the why-late engine, by class and outcome.",
			"class", "outcome")
		a.mDebit = r.CounterVec("canec_why_debit_ns_total",
			"Latency attributed by the why-late engine, by class and cause, in virtual nanoseconds.",
			"class", "cause")
		a.mDebitHist = r.LogHistogramVec("canec_why_debit_microseconds",
			"Per-chain attributed debit by class and cause, in virtual microseconds (log buckets).",
			1, 1e6, 50, "class", "cause")
		a.mLate = r.CounterVec("canec_why_late_total",
			"Late or dropped chains by class and attributed top cause.",
			"class", "cause")
	}
	return a
}

// Analyze replays a record slice (a tracer dump or a flight-recorder
// post-mortem) through a fresh analyzer — the batch entry point shared
// by canecwhy and the experiments. Records must be in emission order.
func Analyze(recs []obs.Record, cfg Config) *Analyzer {
	cfg.KeepAll = true
	a := New(cfg)
	for _, r := range recs {
		a.Add(r)
	}
	return a
}

// Add feeds one stage record. Kernel context; implements obs.CausalSink.
func (a *Analyzer) Add(r obs.Record) {
	// Global state first: wire occupancy and node-state windows come from
	// records of every trace ID (including 0).
	switch r.Stage {
	case obs.StageTxStart:
		a.openSpan = span{from: r.At, to: -1, id: r.ID,
			subject: r.Subject, etag: r.Etag, band: r.Band}
		a.spanOpen = true
	case obs.StageTxOK, obs.StageTxErr:
		if a.spanOpen {
			a.openSpan.to = r.At
			if a.openSpan.to > a.openSpan.from {
				a.spans = append(a.spans, a.openSpan)
			}
			a.spanOpen = false
		}
	case obs.StageBusOff:
		a.busoffAt[r.Node] = r.At
	case obs.StageBusOffRecovered:
		if from, ok := a.busoffAt[r.Node]; ok {
			a.busoff = append(a.busoff, nodeWin{r.Node, from, r.At})
			delete(a.busoffAt, r.Node)
		}
	case obs.StageHoldoverEnter:
		a.holdAt[r.Node] = r.At
	case obs.StageHoldoverExit:
		if from, ok := a.holdAt[r.Node]; ok {
			a.holdover = append(a.holdover, nodeWin{r.Node, from, r.At})
			delete(a.holdAt, r.Node)
		}
	case obs.StageAdmitShed:
		a.admShed[r.Subject] = r.At
	}
	if r.ID == 0 {
		return
	}
	c, ok := a.open[r.ID]
	if !ok {
		if r.Stage != obs.StagePublished {
			return // mid-life record of an unknown chain (ring eviction)
		}
		c = &chainState{}
		a.open[r.ID] = c
		a.openOrder = append(a.openOrder, r.ID)
		a.evictOver()
	}
	c.recs = append(c.recs, r)
	switch r.Stage {
	case obs.StageDelivered, obs.StageDropped, obs.StageExpired,
		obs.StageShed, obs.StageTxAbort, obs.StageRelayDrop:
		a.finish(r.ID, c)
	}
	if len(a.spans) >= spanPruneLen {
		a.prune()
	}
}

const spanPruneLen = 8192

// evictOver drops the oldest open chains past MaxOpen.
func (a *Analyzer) evictOver() {
	for len(a.open) > a.cfg.MaxOpen && len(a.openOrder) > 0 {
		id := a.openOrder[0]
		a.openOrder = a.openOrder[1:]
		if _, ok := a.open[id]; ok {
			delete(a.open, id)
			a.evicted++
		}
	}
}

// prune drops wire spans and windows no open chain can still need.
func (a *Analyzer) prune() {
	minPub := sim.Time(1<<63 - 1)
	for _, c := range a.open {
		if len(c.recs) > 0 && c.recs[0].At < minPub {
			minPub = c.recs[0].At
		}
	}
	keepSpans := a.spans[:0]
	for _, s := range a.spans {
		if s.to > minPub {
			keepSpans = append(keepSpans, s)
		}
	}
	a.spans = keepSpans
	keepWins := a.busoff[:0]
	for _, w := range a.busoff {
		if w.to > minPub {
			keepWins = append(keepWins, w)
		}
	}
	a.busoff = keepWins
	keepWins = a.holdover[:0]
	for _, w := range a.holdover {
		if w.to > minPub {
			keepWins = append(keepWins, w)
		}
	}
	a.holdover = keepWins
	// Drop stale open-order entries for already-finished chains.
	keepIDs := a.openOrder[:0]
	for _, id := range a.openOrder {
		if _, ok := a.open[id]; ok {
			keepIDs = append(keepIDs, id)
		}
	}
	a.openOrder = keepIDs
}

// finish closes one chain: attribute, aggregate, release.
func (a *Analyzer) finish(id uint64, c *chainState) {
	ch := a.attribute(c)
	delete(a.open, id)
	a.aggregate(ch)
}

// iv is a half-open interval [from, to).
type iv struct{ from, to sim.Time }

// carve subtracts window [wf, wt) from each interval, reporting carved
// pieces to hit and returning the remainder.
func carve(ivs []iv, wf, wt sim.Time, hit func(sim.Time, sim.Time)) []iv {
	if wt <= wf {
		return ivs
	}
	out := ivs[:0:0]
	for _, in := range ivs {
		f, t := wf, wt
		if f < in.from {
			f = in.from
		}
		if t > in.to {
			t = in.to
		}
		if f >= t { // no overlap
			out = append(out, in)
			continue
		}
		hit(f, t)
		if in.from < f {
			out = append(out, iv{in.from, f})
		}
		if t < in.to {
			out = append(out, iv{t, in.to})
		}
	}
	return out
}

// segAcc coalesces attributed slices per (cause, label) in first-touch
// order, preserving the exact nanosecond total.
type segAcc struct {
	order []string
	segs  map[string]*Segment
}

func newSegAcc() *segAcc { return &segAcc{segs: make(map[string]*Segment)} }

func (s *segAcc) add(cause Cause, label string, d sim.Duration) {
	if d <= 0 {
		return
	}
	key := string(cause) + "|" + label
	seg, ok := s.segs[key]
	if !ok {
		seg = &Segment{Cause: cause, Label: label}
		s.segs[key] = seg
		s.order = append(s.order, key)
	}
	seg.Debit += d
}

func (s *segAcc) list() []Segment {
	out := make([]Segment, 0, len(s.order))
	for _, key := range s.order {
		out = append(out, *s.segs[key])
	}
	return out
}

// attribute tiles one chain's record gaps into cause segments.
func (a *Analyzer) attribute(c *chainState) Chain {
	recs := c.recs
	first, last := recs[0], recs[len(recs)-1]
	ch := Chain{
		ID: first.ID, Class: first.Class, Subject: first.Subject,
		Node: first.Node, Published: first.At, End: last.At,
		Outcome: string(last.Stage), Latency: sim.Duration(last.At - first.At),
	}
	if last.Stage == obs.StageDelivered && last.Detail != "" {
		ch.Outcome = string(last.Stage)
	}
	if d := last.Detail; d != "" && last.Stage != obs.StageDelivered {
		ch.Outcome += "(" + d + ")"
	}
	// An admission withdrawal inside the chain's life reclassifies the
	// final wait of a non-delivered chain.
	admission := false
	if last.Stage != obs.StageDelivered {
		if at, ok := a.admShed[first.Subject]; ok && at > first.At && at <= last.At {
			admission = true
		}
	}
	acc := newSegAcc()
	for i := 1; i < len(recs); i++ {
		prev, next := recs[i-1], recs[i]
		gap := next.At - prev.At
		if gap <= 0 {
			continue
		}
		if admission && i == len(recs)-1 {
			acc.add(CauseAdmissionBackoff, "", sim.Duration(gap))
			continue
		}
		a.attributeGap(&ch, prev, next, acc)
	}
	ch.Segments = acc.list()
	if bound, ok := a.cfg.LateOver[ch.Class]; ok && bound > 0 &&
		last.Stage == obs.StageDelivered && ch.Latency > bound {
		ch.Late = true
	}
	// Top answers "why late" — chains that arrived on time have no why,
	// whatever minor abnormal debits they accrued along the way.
	if ch.Late || last.Stage != obs.StageDelivered {
		ch.Top = topCause(ch.Segments)
	} else {
		ch.Top = CauseNone
	}
	return ch
}

// topCause picks the abnormal cause with the largest total debit
// (first-touch order breaks ties deterministically).
func topCause(segs []Segment) Cause {
	totals := make(map[Cause]sim.Duration)
	var order []Cause
	for _, s := range segs {
		if !s.Cause.Abnormal() {
			continue
		}
		if _, ok := totals[s.Cause]; !ok {
			order = append(order, s.Cause)
		}
		totals[s.Cause] += s.Debit
	}
	top, best := CauseNone, sim.Duration(0)
	for _, c := range order {
		if totals[c] > best {
			top, best = c, totals[c]
		}
	}
	return top
}

// attributeGap charges the gap between two adjacent records of one chain.
func (a *Analyzer) attributeGap(ch *Chain, prev, next obs.Record, acc *segAcc) {
	gap := sim.Duration(next.At - prev.At)
	// Relay forwarding wait takes precedence: whatever local stage came
	// before, the time until the link accepted the event is relay queueing.
	if next.Stage == obs.StageRelayTx {
		acc.add(CauseRelayQueue, ch.Class, gap)
		return
	}
	switch prev.Stage {
	case obs.StagePublished:
		if next.Stage == obs.StageEnqueued {
			acc.add(CausePublish, "", gap)
			return
		}
		a.waitGap(ch, prev, next, acc)
	case obs.StageEnqueued, obs.StagePromoted, obs.StageArbWon, obs.StageArbLost:
		a.waitGap(ch, prev, next, acc)
	case obs.StageTxStart:
		if next.Stage == obs.StageTxErr {
			acc.add(CauseErrorRetransmit, fmt.Sprintf("k=%d", attemptOf(prev)), gap)
			return
		}
		acc.add(CauseWireTx, "", gap)
	case obs.StageTxErr:
		// Error-frame signalling, suspend transmission and re-arbitration
		// until the next attempt: all consequence of the corrupted attempt.
		acc.add(CauseErrorRetransmit, fmt.Sprintf("k=%d", attemptOf(prev)), gap)
	case obs.StageGuardMuted:
		acc.add(CauseGuardianMute, "", gap)
	case obs.StageTxOK:
		acc.add(CauseDelivery, "", gap)
	case obs.StageRx:
		if ch.Class == "HRT" && next.Stage == obs.StageDelivered {
			// Delivery-at-deadline hold; the slice spent under clock
			// holdover is the widening the failover cost us.
			a.carveWindows(a.holdover, -1, prev.At, next.At, CauseHoldoverWidening,
				CauseDejitterHold, acc)
			return
		}
		acc.add(CauseDelivery, "", gap)
	case obs.StageRelayTx:
		acc.add(CauseRelayLink, "", gap)
	case obs.StageRelayRx:
		acc.add(CausePublish, "relay", gap)
	default:
		a.waitGap(ch, prev, next, acc)
	}
}

func attemptOf(r obs.Record) int {
	if r.Attempt > 0 {
		return r.Attempt
	}
	return 1
}

// waitGap carves a queue/arbitration wait: bus-off windows of the
// holding node first (a detached controller cannot arbitrate at all),
// then observed foreign wire occupancy, remainder to the scheduled base.
func (a *Analyzer) waitGap(ch *Chain, prev, next obs.Record, acc *segAcc) {
	base := CauseQueueWait
	if ch.Class == "HRT" {
		base = CauseSlotWait
	}
	rem := []iv{{prev.At, next.At}}
	rem = a.carveNodeWins(rem, a.busoff, prev.Node, CauseBusoffRecovery, acc)
	// Foreign wire occupancy: every closed span of another frame that
	// overlaps the wait, plus the still-open one.
	rem = a.carveSpans(rem, ch.ID, prev.At, next.At, acc)
	for _, in := range rem {
		acc.add(base, "", sim.Duration(in.to-in.from))
	}
}

// carveWindows splits [from, to) against a window list filtered by node
// (-1 = any node), charging overlaps to hitCause and the rest to base.
func (a *Analyzer) carveWindows(wins []nodeWin, node int, from, to sim.Time,
	hitCause, base Cause, acc *segAcc) {
	rem := []iv{{from, to}}
	rem = a.carveNodeWins(rem, wins, node, hitCause, acc)
	for _, in := range rem {
		acc.add(base, "", sim.Duration(in.to-in.from))
	}
}

func (a *Analyzer) carveNodeWins(rem []iv, wins []nodeWin, node int,
	cause Cause, acc *segAcc) []iv {
	for _, w := range wins {
		if node >= 0 && w.node != node {
			continue
		}
		rem = carve(rem, w.from, w.to, func(f, t sim.Time) {
			acc.add(cause, "", sim.Duration(t-f))
		})
		if len(rem) == 0 {
			return rem
		}
	}
	// A still-open window (fault not yet recovered) counts too.
	check := func(openAt map[int]sim.Time) {
		for n, fromAt := range openAt {
			if node >= 0 && n != node {
				continue
			}
			rem = carve(rem, fromAt, sim.Time(1<<63-1), func(f, t sim.Time) {
				acc.add(cause, "", sim.Duration(t-f))
			})
		}
	}
	switch cause {
	case CauseBusoffRecovery:
		check(a.busoffAt)
	case CauseHoldoverWidening:
		check(a.holdAt)
	}
	return rem
}

// carveSpans subtracts foreign wire occupancy from the wait intervals.
func (a *Analyzer) carveSpans(rem []iv, selfID uint64, from, to sim.Time, acc *segAcc) []iv {
	// Spans close in time order: binary-search the first that can overlap.
	lo := sort.Search(len(a.spans), func(i int) bool { return a.spans[i].to > from })
	for i := lo; i < len(a.spans) && len(rem) > 0; i++ {
		s := a.spans[i]
		if s.from >= to {
			break
		}
		if s.id == selfID {
			continue
		}
		label := s.label()
		rem = carve(rem, s.from, s.to, func(f, t sim.Time) {
			acc.add(CauseArbInterference, label, sim.Duration(t-f))
		})
	}
	if a.spanOpen && a.openSpan.id != selfID && a.openSpan.from < to && len(rem) > 0 {
		label := a.openSpan.label()
		rem = carve(rem, a.openSpan.from, to, func(f, t sim.Time) {
			acc.add(CauseArbInterference, label, sim.Duration(t-f))
		})
	}
	return rem
}
