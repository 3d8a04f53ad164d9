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
//
// In steady state an on-time chain costs no allocation: stages and causes
// are small ints, segment labels are interned IDs rendered once, open
// chains live in a recycled slab of compact steps, wait carving runs in
// two scratch buffers, and the canec_why_* children are cached per
// (class, cause). A Chain value is built only for late or dropped chains
// and under KeepAll.
package causal

import (
	"fmt"

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

	// CauseNone is the top cause of a chain with zero abnormal debit.
	CauseNone Cause = "none"
)

// cause is the engine's form of a Cause: its index in Causes() order,
// with causeNone after the attributable ones.
type cause uint8

const (
	// causePublish is publish-side middleware processing
	// (published→enqueued).
	causePublish cause = iota
	// causeSlotWait is an HRT event waiting for its reserved calendar
	// slot — scheduled, not anomalous.
	causeSlotWait
	// causeWireTx is the frame's own successful wire occupancy.
	causeWireTx
	// causeDelivery is receive-side processing (tx_ok→rx→delivered).
	causeDelivery
	// causeDejitterHold is the HRT delivery-at-deadline hold (§3.2): the
	// subscriber-side wait that trades latency for zero jitter.
	causeDejitterHold
	// causeQueueWait is time spent behind the publisher's own queue with
	// the wire idle or unobserved — self-induced backlog.
	causeQueueWait
	causeArbInterference
	causeErrorRetransmit
	causeBusoffRecovery
	causeHoldoverWidening
	// causeGuardianMute is time lost after the bus guardian muted an
	// attempt before it reached the wire.
	causeGuardianMute
	// causeRelayQueue is time between the last local stage and the relay
	// link accepting the event for forwarding.
	causeRelayQueue
	// causeRelayLink is relay link transit (relay_tx→relay_rx).
	causeRelayLink
	// causeAdmissionBackoff is the tail of a chain withdrawn by the
	// probabilistic admission controller (admit_shed on its channel).
	causeAdmissionBackoff
	causeNone
	// numCauses sizes the per-cause arrays (causeNone included).
	numCauses = int(causeNone) + 1
)

// causeNames is the Cause of every cause index.
var causeNames = [numCauses]Cause{
	"publish", "slot_wait", "wire_tx", "delivery", "dejitter_hold",
	"queue_wait", CauseArbInterference, CauseErrorRetransmit,
	CauseBusoffRecovery, CauseHoldoverWidening, "guardian_mute",
	"relay_queue", "relay_link", "admission_backoff",
	CauseNone,
}

// abnormal is Cause.Abnormal on the index: everything after the five
// baseline causes except causeNone.
func (c cause) abnormal() bool { return c >= causeQueueWait && c < causeNone }

// Causes lists every cause in exposition order (baseline first).
func Causes() []Cause {
	return append([]Cause(nil), causeNames[:causeNone]...)
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

// terminal reports whether the stage closes a chain.
func terminal(s obs.Stage) bool {
	switch s {
	case obs.StageDelivered, obs.StageDropped, obs.StageExpired, obs.StageShed,
		obs.StageTxAbort, obs.StageRelayDrop:
		return true
	}
	return false
}

const maxTime = sim.Time(1<<63 - 1)

// span is one observed wire occupancy. label is its interned interference
// label, resolved by the first carve that charges it (-1 before).
type span struct {
	from, to sim.Time
	id       uint64
	subject  uint64
	etag     uint16
	band     obs.Band
	label    int32
}

// nodeWin is one node-state window (bus-off or holdover); a window still
// open runs to maxTime.
type nodeWin struct {
	node     int
	from, to sim.Time
}

// step is what the attribution reads of one record of an open chain. The
// steps of a chain are linked in record order through next; a free step
// links to the next free one.
type step struct {
	at      sim.Time
	node    int
	attempt int
	stage   obs.Stage
	next    int32
}

// chain is one open trace: the identity of its published record and the
// first and last of its steps. Open chains are linked oldest→newest for
// the MaxOpen and span-cap evictions; a free chain slot links to the next
// free one through next.
type chain struct {
	id          uint64
	class       obs.Class
	subject     uint64
	first, last int32
	prev, next  int32 // open-order neighbours, -1 at either end
}

// seg is one (cause, label) debit of the chain being attributed.
type seg struct {
	cause cause
	label int32
	debit sim.Duration
}

// iv is a half-open interval [from, to).
type iv struct{ from, to sim.Time }

// labelKey identifies one segment label before it is rendered.
type labelKey struct {
	kind byte
	n    uint64
	s    string
}

// Label kinds; the empty label is ID labelNone and "relay" labelRelay.
const (
	labelSubject byte = iota + 1 // interferer subject=0x…
	labelBand                    // untraced interferer band=…
	labelEtag                    // untraced, unbanded interferer etag=0x…
	labelAttempt                 // failing attempt k=N
	labelClass                   // the class of a relay wait
)

const (
	labelNone int32 = iota
	labelRelay
)

func (k labelKey) text() string {
	switch k.kind {
	case labelSubject:
		return fmt.Sprintf("subject=0x%x", k.n)
	case labelBand:
		return "band=" + obs.Band(k.n).String()
	case labelEtag:
		return fmt.Sprintf("etag=0x%x", k.n)
	case labelAttempt:
		return fmt.Sprintf("k=%d", k.n)
	}
	return k.s
}

// Analyzer is the streaming why-late engine. It implements
// obs.CausalSink; drive it with Add in kernel context only.
type Analyzer struct {
	cfg Config

	// Open chains and their records: two slabs recycled through free
	// lists, so steady state allocates nothing however long a chain is.
	open                map[uint64]int32 // trace ID → chains slot
	chains              []chain
	steps               []step
	freeChain, freeStep int32 // free-list heads, -1 when empty
	oldest, newest      int32 // open-order list ends, -1 when empty
	evicted             uint64

	spans    []span // closed wire occupancies, in close order
	openSpan span
	spanOpen bool
	pruneAt  int // retained-span count that triggers the next prune

	busoff, holdover         []nodeWin           // closed windows, in close order
	busoffOpen, holdoverOpen []nodeWin           // still open, one per node
	admShed                  map[uint64]sim.Time // subject → last admit_shed time

	labelText []string
	labelIDs  map[labelKey]int32

	// Per-chain scratch: the segment accumulator and the ping-pong
	// interval buffers of wait carving.
	segs      []seg
	rem, idle []iv

	aggs   []*classAgg // first-touch order
	total  uint64
	recent []Chain // last KeepRecent late/dropped chains
	all    []Chain // when KeepAll

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
		cfg:       cfg,
		open:      make(map[uint64]int32),
		freeChain: -1,
		freeStep:  -1,
		oldest:    -1,
		newest:    -1,
		pruneAt:   spanPruneLen,
		admShed:   make(map[uint64]sim.Time),
		labelText: []string{labelNone: "", labelRelay: "relay"},
		labelIDs:  make(map[labelKey]int32),
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
	for i := range recs {
		a.Add(recs[i])
	}
	return a
}

// Add feeds one stage record. Kernel context; implements obs.CausalSink.
func (a *Analyzer) Add(r obs.Record) {
	st := r.Stage
	// Global state first: wire occupancy and node-state windows come from
	// records of every trace ID (including 0).
	switch st {
	case obs.StageTxStart:
		a.openSpan = span{from: r.At, to: -1, id: r.ID,
			subject: r.Subject, etag: r.Etag, band: r.Band, label: -1}
		a.spanOpen = true
	case obs.StageTxOK, obs.StageTxErr:
		if a.spanOpen {
			a.openSpan.to = r.At
			if a.openSpan.to > a.openSpan.from {
				a.spans = append(a.spans, a.openSpan)
				if len(a.spans) >= a.pruneAt {
					a.prune()
				}
			}
			a.spanOpen = false
		}
	case obs.StageBusOff:
		a.busoffOpen = openWin(a.busoffOpen, int(r.Node), r.At)
	case obs.StageBusOffRecovered:
		a.busoffOpen, a.busoff = closeWin(a.busoffOpen, a.busoff, int(r.Node), r.At)
	case obs.StageHoldoverEnter:
		a.holdoverOpen = openWin(a.holdoverOpen, int(r.Node), r.At)
	case obs.StageHoldoverExit:
		a.holdoverOpen, a.holdover = closeWin(a.holdoverOpen, a.holdover, int(r.Node), r.At)
	case obs.StageAdmitShed:
		a.admShed[r.Subject] = r.At
	}
	if r.ID == 0 {
		return
	}
	slot, ok := a.open[r.ID]
	if !ok {
		if st != obs.StagePublished {
			return // mid-life record of an unknown chain (ring eviction)
		}
		slot = a.openChain(r.ID, r.Class, r.Subject)
		for len(a.open) > a.cfg.MaxOpen {
			a.evict(a.oldest)
		}
	}
	a.appendStep(slot, step{at: r.At, node: int(r.Node), attempt: int(r.Attempt), stage: st, next: -1})
	if terminal(st) {
		a.finish(slot, &r, st)
	}
}

// openWin starts (or restarts) node's window at at.
func openWin(open []nodeWin, node int, at sim.Time) []nodeWin {
	for i := range open {
		if open[i].node == node {
			open[i].from = at
			return open
		}
	}
	return append(open, nodeWin{node: node, from: at, to: maxTime})
}

// closeWin moves node's open window, if any, to the closed list.
func closeWin(open, closed []nodeWin, node int, at sim.Time) ([]nodeWin, []nodeWin) {
	for i, w := range open {
		if w.node == node {
			w.to = at
			open[i] = open[len(open)-1]
			return open[:len(open)-1], append(closed, w)
		}
	}
	return open, closed
}

// openChain takes a chain slot for a freshly published trace and links
// it as the newest open chain.
func (a *Analyzer) openChain(id uint64, class obs.Class, subject uint64) int32 {
	slot := a.freeChain
	if slot >= 0 {
		a.freeChain = a.chains[slot].next
	} else {
		slot = int32(len(a.chains))
		a.chains = append(a.chains, chain{})
	}
	a.chains[slot] = chain{id: id, class: class, subject: subject,
		first: -1, last: -1, prev: a.newest, next: -1}
	if a.newest >= 0 {
		a.chains[a.newest].next = slot
	} else {
		a.oldest = slot
	}
	a.newest = slot
	a.open[id] = slot
	return slot
}

// appendStep links one more record to an open chain.
func (a *Analyzer) appendStep(slot int32, s step) {
	i := a.freeStep
	if i >= 0 {
		a.freeStep = a.steps[i].next
		a.steps[i] = s
	} else {
		i = int32(len(a.steps))
		a.steps = append(a.steps, s)
	}
	c := &a.chains[slot]
	if c.last >= 0 {
		a.steps[c.last].next = i
	} else {
		c.first = i
	}
	c.last = i
}

// release unlinks a finished or evicted chain and recycles its slot and
// its steps.
func (a *Analyzer) release(slot int32) {
	c := &a.chains[slot]
	delete(a.open, c.id)
	if c.prev >= 0 {
		a.chains[c.prev].next = c.next
	} else {
		a.oldest = c.next
	}
	if c.next >= 0 {
		a.chains[c.next].prev = c.prev
	} else {
		a.newest = c.prev
	}
	a.steps[c.last].next = a.freeStep
	a.freeStep = c.first
	*c = chain{next: a.freeChain}
	a.freeChain = slot
}

func (a *Analyzer) evict(slot int32) {
	a.release(slot)
	a.evicted++
}

const (
	// spanPruneLen is the retained-span count of the first prune. Each
	// prune sets the next trigger at twice its survivors, so however long
	// one chain pins the spans the passes stay geometric.
	spanPruneLen = 8192
	// spanCap bounds the spans stalled chains can pin. A prune that leaves
	// more evicts (counted in Evicted) the open chains with no record
	// since the newest spanCap/2 spans began — in practice chains that
	// will never terminate, such as a publish nobody subscribes to. A
	// chain still making progress is kept, with every span since its
	// publish; the trigger then stays at twice the survivors.
	spanCap = 4 * spanPruneLen
)

// prune drops wire spans and windows no open chain can still need.
func (a *Analyzer) prune() {
	a.trim()
	if len(a.spans) > spanCap {
		cutoff := a.spans[len(a.spans)-spanCap/2-1].to
		for slot := a.oldest; slot >= 0; {
			next := a.chains[slot].next
			if a.steps[a.chains[slot].last].at < cutoff {
				a.evict(slot)
			}
			slot = next
		}
		a.trim()
	}
	a.pruneAt = max(2*len(a.spans), spanPruneLen)
	if len(a.spans) <= spanCap {
		a.pruneAt = min(a.pruneAt, spanCap+1)
	}
}

// trim keeps the spans and windows that end after the oldest open
// chain's publish.
func (a *Analyzer) trim() {
	minPub := maxTime
	for slot := a.oldest; slot >= 0; slot = a.chains[slot].next {
		if at := a.steps[a.chains[slot].first].at; at < minPub {
			minPub = at
		}
	}
	keep := a.spans[:0]
	for _, s := range a.spans {
		if s.to > minPub {
			keep = append(keep, s)
		}
	}
	a.spans = keep
	a.busoff = trimWins(a.busoff, minPub)
	a.holdover = trimWins(a.holdover, minPub)
}

func trimWins(wins []nodeWin, minPub sim.Time) []nodeWin {
	keep := wins[:0]
	for _, w := range wins {
		if w.to > minPub {
			keep = append(keep, w)
		}
	}
	return keep
}

// finish closes one chain: attribute, aggregate, release. r is its
// terminal record.
func (a *Analyzer) finish(slot int32, r *obs.Record, st obs.Stage) {
	c := &a.chains[slot]
	first, last := a.steps[c.first], a.steps[c.last]
	delivered := st == obs.StageDelivered
	// An admission withdrawal inside the chain's life reclassifies the
	// final wait of a non-delivered chain.
	admission := false
	if !delivered {
		if at, ok := a.admShed[c.subject]; ok && at > first.at && at <= last.at {
			admission = true
		}
	}
	hrt := c.class == obs.ClassHRT
	a.segs = a.segs[:0]
	for prev := first; prev.next >= 0; {
		next := a.steps[prev.next]
		switch gap := next.at - prev.at; {
		case gap <= 0:
		case admission && next.next < 0:
			a.charge(causeAdmissionBackoff, labelNone, gap)
		default:
			a.attributeGap(c, prev, next, hrt)
		}
		prev = next
	}
	latency := last.at - first.at
	late := false
	if bound, ok := a.cfg.LateOver[c.class.String()]; ok && bound > 0 && delivered && latency > bound {
		late = true
	}
	// Top answers "why late" — chains that arrived on time have no why,
	// whatever minor abnormal debits they accrued along the way.
	incident := late || !delivered
	totals := a.causeTotals()
	top := causeNone
	if incident {
		top = totals.top()
	}
	a.aggregate(a.classAgg(c.class), &totals, delivered, late, top)
	if incident || a.cfg.KeepAll {
		ch := Chain{
			ID: c.id, Class: c.class.String(), Subject: c.subject, Node: first.node,
			Published: first.at, End: last.at, Outcome: r.Stage.String(),
			Latency: latency, Late: late, Top: causeNames[top],
			Segments: a.segments(),
		}
		if r.Detail != 0 && !delivered {
			ch.Outcome += "(" + r.Detail.String() + ")"
		}
		if incident {
			a.recent = append(a.recent, ch)
			if len(a.recent) > a.cfg.KeepRecent {
				a.recent = a.recent[len(a.recent)-a.cfg.KeepRecent:]
			}
		}
		if a.cfg.KeepAll {
			a.all = append(a.all, ch)
		}
	}
	a.release(slot)
}

// segments materialises the attributed segments of a built chain.
func (a *Analyzer) segments() []Segment {
	out := make([]Segment, len(a.segs))
	for i, s := range a.segs {
		out[i] = Segment{Cause: causeNames[s.cause], Label: a.labelText[s.label], Debit: s.debit}
	}
	return out
}

// charge adds d to the chain's (cause, label) segment, creating it in
// first-touch order and preserving the exact nanosecond total.
func (a *Analyzer) charge(c cause, label int32, d sim.Duration) {
	if d <= 0 {
		return
	}
	for i := range a.segs {
		if a.segs[i].cause == c && a.segs[i].label == label {
			a.segs[i].debit += d
			return
		}
	}
	a.segs = append(a.segs, seg{cause: c, label: label, debit: d})
}

// causeTotals is one chain's debit per cause, with the causes in the
// order the chain first touched them.
type causeTotals struct {
	debit [numCauses]sim.Duration
	order [numCauses]cause
	n     int
}

func (a *Analyzer) causeTotals() (t causeTotals) {
	var seen uint32
	for _, s := range a.segs {
		if seen&(1<<s.cause) == 0 {
			seen |= 1 << s.cause
			t.order[t.n] = s.cause
			t.n++
		}
		t.debit[s.cause] += s.debit
	}
	return t
}

// top picks the abnormal cause with the largest total debit (first-touch
// order breaks ties deterministically).
func (t *causeTotals) top() cause {
	top, best := causeNone, sim.Duration(0)
	for _, c := range t.order[:t.n] {
		if c.abnormal() && t.debit[c] > best {
			top, best = c, t.debit[c]
		}
	}
	return top
}

// label returns the interned ID of a segment label, rendering its text
// on first use.
func (a *Analyzer) label(k labelKey) int32 {
	id, ok := a.labelIDs[k]
	if !ok {
		id = int32(len(a.labelText))
		a.labelText = append(a.labelText, k.text())
		a.labelIDs[k] = id
	}
	return id
}

// spanLabel names an interfering span: its subject, else its band, else
// its etag.
func (a *Analyzer) spanLabel(s *span) int32 {
	if s.label < 0 {
		switch {
		case s.subject != 0:
			s.label = a.label(labelKey{kind: labelSubject, n: s.subject})
		case s.band != 0:
			s.label = a.label(labelKey{kind: labelBand, n: uint64(s.band)})
		default:
			s.label = a.label(labelKey{kind: labelEtag, n: uint64(s.etag)})
		}
	}
	return s.label
}

// attributeGap charges the gap between two adjacent records of one chain.
func (a *Analyzer) attributeGap(c *chain, prev, next step, hrt bool) {
	gap := next.at - prev.at
	// Relay forwarding wait takes precedence: whatever local stage came
	// before, the time until the link accepted the event is relay queueing.
	if next.stage == obs.StageRelayTx {
		a.charge(causeRelayQueue, a.label(labelKey{kind: labelClass, s: c.class.String()}), gap)
		return
	}
	switch prev.stage {
	case obs.StagePublished:
		if next.stage == obs.StageEnqueued {
			a.charge(causePublish, labelNone, gap)
			return
		}
		a.waitGap(c, prev, next, hrt)
	case obs.StageEnqueued, obs.StagePromoted, obs.StageArbWon, obs.StageArbLost:
		a.waitGap(c, prev, next, hrt)
	case obs.StageTxStart:
		if next.stage == obs.StageTxErr {
			a.charge(causeErrorRetransmit, a.attemptLabel(prev), gap)
			return
		}
		a.charge(causeWireTx, labelNone, gap)
	case obs.StageTxErr:
		// Error-frame signalling, suspend transmission and re-arbitration
		// until the next attempt: all consequence of the corrupted attempt.
		a.charge(causeErrorRetransmit, a.attemptLabel(prev), gap)
	case obs.StageGuardMuted:
		a.charge(causeGuardianMute, labelNone, gap)
	case obs.StageTxOK:
		a.charge(causeDelivery, labelNone, gap)
	case obs.StageRx:
		if hrt && next.stage == obs.StageDelivered {
			// Delivery-at-deadline hold; the slice spent under clock
			// holdover is the widening the failover cost us.
			a.rem = append(a.rem[:0], iv{prev.at, next.at})
			a.carveWins(a.holdover, a.holdoverOpen, -1, causeHoldoverWidening)
			a.chargeRem(causeDejitterHold)
			return
		}
		a.charge(causeDelivery, labelNone, gap)
	case obs.StageRelayTx:
		a.charge(causeRelayLink, labelNone, gap)
	case obs.StageRelayRx:
		a.charge(causePublish, labelRelay, gap)
	default:
		a.waitGap(c, prev, next, hrt)
	}
}

// attemptLabel is the k=N label of a failing attempt (attempt 0, the
// unnumbered one, counts as the first).
func (a *Analyzer) attemptLabel(s step) int32 {
	k := s.attempt
	if k <= 0 {
		k = 1
	}
	return a.label(labelKey{kind: labelAttempt, n: uint64(k)})
}

// waitGap carves a queue/arbitration wait: bus-off windows of the
// holding node first (a detached controller cannot arbitrate at all),
// then observed foreign wire occupancy, remainder to the scheduled base.
func (a *Analyzer) waitGap(c *chain, prev, next step, hrt bool) {
	a.rem = append(a.rem[:0], iv{prev.at, next.at})
	a.carveWins(a.busoff, a.busoffOpen, prev.node, causeBusoffRecovery)
	a.carveSpans(c.id, prev.at, next.at)
	if hrt {
		a.chargeRem(causeSlotWait)
	} else {
		a.chargeRem(causeQueueWait)
	}
}

// chargeRem charges what carving left of the wait to its base cause.
func (a *Analyzer) chargeRem(base cause) {
	for _, in := range a.rem {
		a.charge(base, labelNone, in.to-in.from)
	}
}

// carve subtracts window [wf, wt) from the wait intervals, charging each
// overlap to (c, label). The remainder is built in the idle buffer, which
// then swaps places with rem.
func (a *Analyzer) carve(wf, wt sim.Time, c cause, label int32) {
	if wt <= wf {
		return
	}
	out := a.idle[:0]
	for _, in := range a.rem {
		f, t := max(wf, in.from), min(wt, in.to)
		if f >= t { // no overlap
			out = append(out, in)
			continue
		}
		a.charge(c, label, t-f)
		if in.from < f {
			out = append(out, iv{in.from, f})
		}
		if t < in.to {
			out = append(out, iv{t, in.to})
		}
	}
	a.rem, a.idle = out, a.rem
}

// carveWins carves node-state windows of node (-1: any node) out of the
// wait: the closed ones, then those still open.
func (a *Analyzer) carveWins(closed, open []nodeWin, node int, c cause) {
	for _, w := range closed {
		if node >= 0 && w.node != node {
			continue
		}
		a.carve(w.from, w.to, c, labelNone)
		if len(a.rem) == 0 {
			return
		}
	}
	for _, w := range open {
		if node < 0 || w.node == node {
			a.carve(w.from, w.to, c, labelNone)
		}
	}
}

// carveSpans subtracts foreign wire occupancy from the wait intervals.
func (a *Analyzer) carveSpans(self uint64, from, to sim.Time) {
	// Spans close in time order: binary-search the first that can overlap.
	lo, hi := 0, len(a.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a.spans[m].to > from {
			hi = m
		} else {
			lo = m + 1
		}
	}
	for i := lo; i < len(a.spans) && len(a.rem) > 0; i++ {
		s := &a.spans[i]
		if s.from >= to {
			break
		}
		if s.id != self {
			a.carveSpan(s, s.to)
		}
	}
	if a.spanOpen && a.openSpan.id != self && a.openSpan.from < to && len(a.rem) > 0 {
		a.carveSpan(&a.openSpan, to)
	}
}

// carveSpan carves [s.from, to) as interference, resolving the span's
// label only when it actually overlaps the wait.
func (a *Analyzer) carveSpan(s *span, to sim.Time) {
	for _, in := range a.rem {
		if max(s.from, in.from) < min(to, in.to) {
			a.carve(s.from, to, causeArbInterference, a.spanLabel(s))
			return
		}
	}
}
