package causal

import (
	"fmt"
	"sort"
	"strings"

	"canec/internal/obs"
	"canec/internal/sim"
)

// The causes the engine names only through Causes(); the oracle spells
// them out.
const (
	CausePublish          Cause = "publish"
	CauseSlotWait         Cause = "slot_wait"
	CauseWireTx           Cause = "wire_tx"
	CauseDelivery         Cause = "delivery"
	CauseDejitterHold     Cause = "dejitter_hold"
	CauseQueueWait        Cause = "queue_wait"
	CauseGuardianMute     Cause = "guardian_mute"
	CauseRelayQueue       Cause = "relay_queue"
	CauseRelayLink        Cause = "relay_link"
	CauseAdmissionBackoff Cause = "admission_backoff"
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

// The map-based why-late engine: every open chain kept as a slice of whole
// obs.Record copies in a map, segments coalesced in a string-keyed map,
// labels Sprintf'd on every carve, canec_why_* children looked up per
// chain. It was the production analyzer before the slab/interned/indexed
// engine in causal.go and profile.go, and is kept here unchanged (only
// renamed with a ref prefix) as the oracle the differential tests compare
// against. Its deliberate differences lie outside what they exercise: its
// span prune runs on every Add once 8,192 spans are retained and never
// evicts the chain that pins them (the engine prunes geometrically and,
// past spanCap, evicts open chains with no record in the newest spanCap/2
// spans), and its eviction FIFO is keyed by trace ID,
// so a re-published ID under MaxOpen pressure can be evicted through a
// stale entry (the engine evicts per chain).

// refSpan is one observed wire occupancy.
type refSpan struct {
	from, to sim.Time
	id       uint64
	subject  uint64
	etag     uint16
	band     string
}

func (s refSpan) label() string {
	if s.subject != 0 {
		return fmt.Sprintf("subject=0x%x", s.subject)
	}
	if s.band != "" {
		return "band=" + s.band
	}
	return fmt.Sprintf("etag=0x%x", s.etag)
}

// refNodeWin is one node-state window (bus-off or holdover).
type refNodeWin struct {
	node     int
	from, to sim.Time
}

// refChainState accumulates one open trace.
type refChainState struct {
	recs []obs.Record
}

// refClassAgg aggregates finished chains of one class.
type refClassAgg struct {
	chains, late, dropped uint64
	debit                 map[Cause]sim.Duration
	lateTop               map[Cause]uint64 // late+dropped chains by top cause
}

// refAnalyzer is the streaming why-late engine. It implements
// obs.CausalSink; drive it with Add in kernel context only.
type refAnalyzer struct {
	cfg Config

	open      map[uint64]*refChainState
	openOrder []uint64 // FIFO of open IDs for bounded eviction
	evicted   uint64

	spans    []refSpan // closed wire occupancies, in close order
	openSpan refSpan
	spanOpen bool

	busoff   []refNodeWin
	busoffAt map[int]sim.Time
	holdover []refNodeWin
	holdAt   map[int]sim.Time
	admShed  map[uint64]sim.Time // subject → last admit_shed time

	byClass map[string]*refClassAgg
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

// newRef builds an analyzer.
func newRef(cfg Config) *refAnalyzer {
	if cfg.BitTime <= 0 {
		cfg.BitTime = sim.Microsecond
	}
	if cfg.MaxOpen <= 0 {
		cfg.MaxOpen = 8192
	}
	if cfg.KeepRecent <= 0 {
		cfg.KeepRecent = 32
	}
	a := &refAnalyzer{
		cfg:      cfg,
		open:     make(map[uint64]*refChainState),
		busoffAt: make(map[int]sim.Time),
		holdAt:   make(map[int]sim.Time),
		admShed:  make(map[uint64]sim.Time),
		byClass:  make(map[string]*refClassAgg),
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

// refAnalyze replays a record slice (a tracer dump or a flight-recorder
// post-mortem) through a fresh analyzer — the batch entry point shared
// by canecwhy and the experiments. Records must be in emission order.
func refAnalyze(recs []obs.Record, cfg Config) *refAnalyzer {
	cfg.KeepAll = true
	a := newRef(cfg)
	for _, r := range recs {
		a.Add(r)
	}
	return a
}

// Add feeds one stage record. Kernel context; implements obs.CausalSink.
func (a *refAnalyzer) Add(r obs.Record) {
	// Global state first: wire occupancy and node-state windows come from
	// records of every trace ID (including 0).
	switch r.Stage {
	case obs.StageTxStart:
		a.openSpan = refSpan{from: r.At, to: -1, id: r.ID,
			subject: r.Subject, etag: r.Etag, band: r.Band.String()}
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
		a.busoffAt[int(r.Node)] = r.At
	case obs.StageBusOffRecovered:
		if from, ok := a.busoffAt[int(r.Node)]; ok {
			a.busoff = append(a.busoff, refNodeWin{int(r.Node), from, r.At})
			delete(a.busoffAt, int(r.Node))
		}
	case obs.StageHoldoverEnter:
		a.holdAt[int(r.Node)] = r.At
	case obs.StageHoldoverExit:
		if from, ok := a.holdAt[int(r.Node)]; ok {
			a.holdover = append(a.holdover, refNodeWin{int(r.Node), from, r.At})
			delete(a.holdAt, int(r.Node))
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
		c = &refChainState{}
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
	if len(a.spans) >= refSpanPruneLen {
		a.prune()
	}
}

const refSpanPruneLen = 8192

// evictOver drops the oldest open chains past MaxOpen.
func (a *refAnalyzer) evictOver() {
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
func (a *refAnalyzer) prune() {
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
func (a *refAnalyzer) finish(id uint64, c *refChainState) {
	ch := a.attribute(c)
	delete(a.open, id)
	a.aggregate(ch)
}

// refIV is a half-open interval [from, to).
type refIV struct{ from, to sim.Time }

// refCarve subtracts window [wf, wt) from each interval, reporting carved
// pieces to hit and returning the remainder.
func refCarve(ivs []refIV, wf, wt sim.Time, hit func(sim.Time, sim.Time)) []refIV {
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
			out = append(out, refIV{in.from, f})
		}
		if t < in.to {
			out = append(out, refIV{t, in.to})
		}
	}
	return out
}

// refSegAcc coalesces attributed slices per (cause, label) in first-touch
// order, preserving the exact nanosecond total.
type refSegAcc struct {
	order []string
	segs  map[string]*Segment
}

func newRefSegAcc() *refSegAcc { return &refSegAcc{segs: make(map[string]*Segment)} }

func (s *refSegAcc) add(cause Cause, label string, d sim.Duration) {
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

func (s *refSegAcc) list() []Segment {
	out := make([]Segment, 0, len(s.order))
	for _, key := range s.order {
		out = append(out, *s.segs[key])
	}
	return out
}

// attribute tiles one chain's record gaps into cause segments.
func (a *refAnalyzer) attribute(c *refChainState) Chain {
	recs := c.recs
	first, last := recs[0], recs[len(recs)-1]
	ch := Chain{
		ID: first.ID, Class: first.Class.String(), Subject: first.Subject,
		Node: int(first.Node), Published: first.At, End: last.At,
		Outcome: last.Stage.String(), Latency: sim.Duration(last.At - first.At),
	}
	if last.Stage == obs.StageDelivered && last.Detail.String() != "" {
		ch.Outcome = last.Stage.String()
	}
	if d := last.Detail.String(); d != "" && last.Stage != obs.StageDelivered {
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
	acc := newRefSegAcc()
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
		ch.Top = refTopCause(ch.Segments)
	} else {
		ch.Top = CauseNone
	}
	return ch
}

// refTopCause picks the abnormal cause with the largest total debit
// (first-touch order breaks ties deterministically).
func refTopCause(segs []Segment) Cause {
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
func (a *refAnalyzer) attributeGap(ch *Chain, prev, next obs.Record, acc *refSegAcc) {
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
			acc.add(CauseErrorRetransmit, fmt.Sprintf("k=%d", refAttemptOf(prev)), gap)
			return
		}
		acc.add(CauseWireTx, "", gap)
	case obs.StageTxErr:
		// Error-frame signalling, suspend transmission and re-arbitration
		// until the next attempt: all consequence of the corrupted attempt.
		acc.add(CauseErrorRetransmit, fmt.Sprintf("k=%d", refAttemptOf(prev)), gap)
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

func refAttemptOf(r obs.Record) int {
	if int(r.Attempt) > 0 {
		return int(r.Attempt)
	}
	return 1
}

// waitGap carves a queue/arbitration wait: bus-off windows of the
// holding node first (a detached controller cannot arbitrate at all),
// then observed foreign wire occupancy, remainder to the scheduled base.
func (a *refAnalyzer) waitGap(ch *Chain, prev, next obs.Record, acc *refSegAcc) {
	base := CauseQueueWait
	if ch.Class == "HRT" {
		base = CauseSlotWait
	}
	rem := []refIV{{prev.At, next.At}}
	rem = a.carveNodeWins(rem, a.busoff, int(prev.Node), CauseBusoffRecovery, acc)
	// Foreign wire occupancy: every closed span of another frame that
	// overlaps the wait, plus the still-open one.
	rem = a.carveSpans(rem, ch.ID, prev.At, next.At, acc)
	for _, in := range rem {
		acc.add(base, "", sim.Duration(in.to-in.from))
	}
}

// carveWindows splits [from, to) against a window list filtered by node
// (-1 = any node), charging overlaps to hitCause and the rest to base.
func (a *refAnalyzer) carveWindows(wins []refNodeWin, node int, from, to sim.Time,
	hitCause, base Cause, acc *refSegAcc) {
	rem := []refIV{{from, to}}
	rem = a.carveNodeWins(rem, wins, node, hitCause, acc)
	for _, in := range rem {
		acc.add(base, "", sim.Duration(in.to-in.from))
	}
}

func (a *refAnalyzer) carveNodeWins(rem []refIV, wins []refNodeWin, node int,
	cause Cause, acc *refSegAcc) []refIV {
	for _, w := range wins {
		if node >= 0 && w.node != node {
			continue
		}
		rem = refCarve(rem, w.from, w.to, func(f, t sim.Time) {
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
			rem = refCarve(rem, fromAt, sim.Time(1<<63-1), func(f, t sim.Time) {
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
func (a *refAnalyzer) carveSpans(rem []refIV, selfID uint64, from, to sim.Time, acc *refSegAcc) []refIV {
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
		rem = refCarve(rem, s.from, s.to, func(f, t sim.Time) {
			acc.add(CauseArbInterference, label, sim.Duration(t-f))
		})
	}
	if a.spanOpen && a.openSpan.id != selfID && a.openSpan.from < to && len(rem) > 0 {
		label := a.openSpan.label()
		rem = refCarve(rem, a.openSpan.from, to, func(f, t sim.Time) {
			acc.add(CauseArbInterference, label, sim.Duration(t-f))
		})
	}
	return rem
}

// aggregate folds one finished chain into the per-class profile, the
// canec_why_* metric families and the retained chain lists.
func (a *refAnalyzer) aggregate(ch Chain) {
	a.total++
	agg, ok := a.byClass[ch.Class]
	if !ok {
		agg = &refClassAgg{
			debit:   make(map[Cause]sim.Duration),
			lateTop: make(map[Cause]uint64),
		}
		a.byClass[ch.Class] = agg
		a.classes = append(a.classes, ch.Class)
	}
	agg.chains++
	dropped := ch.Outcome != obs.StageDelivered.String()
	if dropped {
		agg.dropped++
	}
	if ch.Late {
		agg.late++
	}
	for _, s := range ch.Segments {
		agg.debit[s.Cause] += s.Debit
	}
	incident := ch.Late || dropped
	if incident {
		agg.lateTop[ch.Top]++
	}
	if a.mChains != nil {
		a.metricChain(ch, dropped, incident)
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

// metricChain maintains the canec_why_* families for one chain.
func (a *refAnalyzer) metricChain(ch Chain, dropped, incident bool) {
	outcome := "delivered"
	if dropped {
		outcome = "dropped"
	} else if ch.Late {
		outcome = "late"
	}
	a.mChains.With(ch.Class, outcome).Inc()
	seen := make(map[Cause]sim.Duration)
	var order []Cause
	for _, s := range ch.Segments {
		if _, ok := seen[s.Cause]; !ok {
			order = append(order, s.Cause)
		}
		seen[s.Cause] += s.Debit
	}
	for _, cause := range order {
		a.mDebit.With(ch.Class, string(cause)).Add(float64(seen[cause]))
		a.mDebitHist.With(ch.Class, string(cause)).Observe(float64(seen[cause]) / 1e3)
	}
	if incident {
		a.mLate.With(ch.Class, string(ch.Top)).Inc()
	}
}

// Chains returns every finished chain (KeepAll runs only).
func (a *refAnalyzer) Chains() []Chain { return a.all }

// Snapshot assembles the current aggregate view. Kernel context.
func (a *refAnalyzer) Snapshot() Snapshot {
	s := Snapshot{
		Chains: a.total, Open: len(a.open), Evicted: a.evicted,
		BitTimeNS: a.cfg.BitTime,
	}
	for _, class := range a.classes {
		s.Classes = append(s.Classes, a.classProfile(class))
	}
	for _, ch := range a.recent {
		s.Recent = append(s.Recent, refSummarize(ch))
	}
	return s
}

func refSummarize(ch Chain) ChainSummary {
	subject := ""
	if ch.Subject != 0 {
		subject = fmt.Sprintf("0x%x", ch.Subject)
	}
	return ChainSummary{
		ID: ch.ID, Class: ch.Class, Subject: subject, Outcome: ch.Outcome,
		LatencyUS: float64(ch.Latency) / 1e3, Top: ch.Top,
		Segments: FormatSegments(ch.Segments), Published: ch.Published,
		Latency: ch.Latency,
	}
}

func (a *refAnalyzer) classProfile(class string) ClassProfile {
	agg := a.byClass[class]
	p := ClassProfile{Class: class, Chains: agg.chains, Late: agg.late,
		Dropped: agg.dropped, Top: a.topFor(agg)}
	for _, cause := range Causes() {
		d, ok := agg.debit[cause]
		if !ok {
			continue
		}
		p.TotalNS += d
		if cause.Abnormal() {
			p.AbnormalNS += d
		}
	}
	for _, cause := range Causes() {
		d, ok := agg.debit[cause]
		if !ok {
			continue
		}
		st := CauseStat{Cause: cause, DebitNS: d, Late: agg.lateTop[cause]}
		if p.TotalNS > 0 {
			st.Share = float64(d) / float64(p.TotalNS)
		}
		p.Causes = append(p.Causes, st)
	}
	sort.SliceStable(p.Causes, func(i, j int) bool {
		return p.Causes[i].DebitNS > p.Causes[j].DebitNS
	})
	return p
}

// topFor ranks one class's incident top causes: count desc, debit desc,
// name asc — fully deterministic.
func (a *refAnalyzer) topFor(agg *refClassAgg) Cause {
	best := CauseNone
	var bestN uint64
	for _, cause := range Causes() {
		n := agg.lateTop[cause]
		if n == 0 || !cause.Abnormal() {
			continue
		}
		if n > bestN || (n == bestN && agg.debit[cause] > agg.debit[best]) {
			best, bestN = cause, n
		}
	}
	return best
}

// TopCause returns the dominant incident cause for one class ("" = all
// classes merged), CauseNone without incidents. Kernel context.
func (a *refAnalyzer) TopCause(class string) Cause {
	if class != "" {
		agg, ok := a.byClass[class]
		if !ok {
			return CauseNone
		}
		return a.topFor(agg)
	}
	merged := &refClassAgg{debit: make(map[Cause]sim.Duration), lateTop: make(map[Cause]uint64)}
	for _, c := range a.classes {
		agg := a.byClass[c]
		for k, v := range agg.debit {
			merged.debit[k] += v
		}
		for k, v := range agg.lateTop {
			merged.lateTop[k] += v
		}
	}
	return a.topFor(merged)
}

// BreachSummary renders the top-n incident causes for one class ("" =
// every class) — attached by the SLO engine to breach post-mortems.
// Empty when no late or dropped chain was attributed yet. Implements
// obs.CausalSink; kernel context.
func (a *refAnalyzer) BreachSummary(class string, n int) string {
	classes := a.classes
	if class != "" {
		classes = []string{class}
	}
	counts := make(map[Cause]uint64)
	debits := make(map[Cause]sim.Duration)
	for _, cl := range classes {
		agg, ok := a.byClass[cl]
		if !ok {
			continue
		}
		for cause, c := range agg.lateTop {
			if !cause.Abnormal() {
				continue
			}
			counts[cause] += c
		}
		for cause, d := range agg.debit {
			if !cause.Abnormal() {
				continue
			}
			debits[cause] += d
		}
	}
	type ranked struct {
		cause Cause
		n     uint64
		d     sim.Duration
	}
	var rs []ranked
	for _, cause := range Causes() {
		if counts[cause] == 0 {
			continue
		}
		rs = append(rs, ranked{cause, counts[cause], debits[cause]})
	}
	if len(rs) == 0 {
		return ""
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].n != rs[j].n {
			return rs[i].n > rs[j].n
		}
		return rs[i].d > rs[j].d
	})
	if n > 0 && len(rs) > n {
		rs = rs[:n]
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s×%d(%s)", r.cause, r.n, FormatDur(r.d))
	}
	return "top causes: " + strings.Join(parts, " ")
}
