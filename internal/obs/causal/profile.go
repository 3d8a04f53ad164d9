package causal

import (
	"fmt"
	"sort"
	"strings"

	"canec/internal/obs"
	"canec/internal/sim"
)

// classAgg aggregates finished chains of one class, indexed by cause.
type classAgg struct {
	class                 obs.Class
	chains, late, dropped uint64
	debit                 [numCauses]sim.Duration
	touched               uint32            // causes ever debited: the ones a profile lists
	lateTop               [numCauses]uint64 // late+dropped chains by top cause

	// The class's canec_why_* children, each taken with With on its
	// first use so exposition order stays first-use order.
	mChains    [numOutcomes]*obs.Counter
	mDebit     [numCauses]*obs.Counter
	mDebitHist [numCauses]*obs.Histogram
	mLate      [numCauses]*obs.Counter
}

// Chain outcomes of canec_why_chains_total.
const (
	outcomeDelivered = iota
	outcomeDropped
	outcomeLate
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"delivered", "dropped", "late"}

// classAgg returns the aggregate of one class, creating it on first use.
func (a *Analyzer) classAgg(class obs.Class) *classAgg {
	for _, agg := range a.aggs {
		if agg.class == class {
			return agg
		}
	}
	agg := &classAgg{class: class}
	a.aggs = append(a.aggs, agg)
	return agg
}

// aggregate folds one attributed chain into its class profile and the
// canec_why_* metric families.
func (a *Analyzer) aggregate(agg *classAgg, t *causeTotals, delivered, late bool, top cause) {
	a.total++
	agg.chains++
	if !delivered {
		agg.dropped++
	}
	if late {
		agg.late++
	}
	for _, c := range t.order[:t.n] {
		agg.debit[c] += t.debit[c]
		agg.touched |= 1 << c
	}
	incident := late || !delivered
	if incident {
		agg.lateTop[top]++
	}
	if a.mChains == nil {
		return
	}
	outcome := outcomeDelivered
	if !delivered {
		outcome = outcomeDropped
	} else if late {
		outcome = outcomeLate
	}
	if agg.mChains[outcome] == nil {
		agg.mChains[outcome] = a.mChains.With(agg.class.String(), outcomeNames[outcome])
	}
	agg.mChains[outcome].Inc()
	// One debit sample per cause, in the order the chain first touched it.
	for _, c := range t.order[:t.n] {
		if agg.mDebit[c] == nil {
			agg.mDebit[c] = a.mDebit.With(agg.class.String(), string(causeNames[c]))
			agg.mDebitHist[c] = a.mDebitHist.With(agg.class.String(), string(causeNames[c]))
		}
		agg.mDebit[c].Add(float64(t.debit[c]))
		agg.mDebitHist[c].Observe(float64(t.debit[c]) / 1e3)
	}
	if incident {
		if agg.mLate[top] == nil {
			agg.mLate[top] = a.mLate.With(agg.class.String(), string(causeNames[top]))
		}
		agg.mLate[top].Inc()
	}
}

// Chains returns every finished chain (KeepAll runs only).
func (a *Analyzer) Chains() []Chain { return a.all }

// CauseStat is one cause's aggregate within a class profile.
type CauseStat struct {
	Cause Cause `json:"cause"`
	// DebitNS is the total attributed time, Share its fraction of the
	// class's attributed total.
	DebitNS sim.Duration `json:"debit_ns"`
	Share   float64      `json:"share"`
	// Late counts late/dropped chains whose top cause this is.
	Late uint64 `json:"late,omitempty"`
}

// ClassProfile is one class's aggregated why-late view.
type ClassProfile struct {
	Class   string `json:"class"`
	Chains  uint64 `json:"chains"`
	Late    uint64 `json:"late"`
	Dropped uint64 `json:"dropped"`
	// TotalNS / AbnormalNS are the attributed debit sums.
	TotalNS    sim.Duration `json:"total_ns"`
	AbnormalNS sim.Duration `json:"abnormal_ns"`
	// Top is the dominant top cause over late/dropped chains (ranked by
	// incident count, then abnormal debit), "none" without incidents.
	Top    Cause       `json:"top"`
	Causes []CauseStat `json:"causes,omitempty"`
}

// ChainSummary is a compact rendering of one incident chain for /why.
type ChainSummary struct {
	ID        uint64       `json:"id"`
	Class     string       `json:"class,omitempty"`
	Subject   string       `json:"subject,omitempty"`
	Outcome   string       `json:"outcome"`
	LatencyUS float64      `json:"latency_us"`
	Top       Cause        `json:"top"`
	Segments  string       `json:"segments"`
	Published sim.Time     `json:"published"`
	Latency   sim.Duration `json:"-"`
}

// Snapshot is the /why payload: totals, per-class cause profiles and
// recent incident chains. Kernel context to build; safe to serve after.
type Snapshot struct {
	Chains  uint64 `json:"chains"`
	Open    int    `json:"open"`
	Evicted uint64 `json:"evicted"`
	// BitTimeNS converts debits to bus bit times.
	BitTimeNS sim.Duration   `json:"bit_time_ns"`
	Classes   []ClassProfile `json:"classes,omitempty"`
	Recent    []ChainSummary `json:"recent,omitempty"`
}

// Snapshot assembles the current aggregate view. Kernel context.
func (a *Analyzer) Snapshot() Snapshot {
	s := Snapshot{
		Chains: a.total, Open: len(a.open), Evicted: a.evicted,
		BitTimeNS: a.cfg.BitTime,
	}
	for _, agg := range a.aggs {
		s.Classes = append(s.Classes, agg.profile())
	}
	for _, ch := range a.recent {
		s.Recent = append(s.Recent, summarize(ch))
	}
	return s
}

func summarize(ch Chain) ChainSummary {
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

// FormatSegments renders segments as "cause(label)=duration" joined by
// " + " — the compact per-chain why string.
func FormatSegments(segs []Segment) string {
	parts := make([]string, 0, len(segs))
	for _, s := range segs {
		name := string(s.Cause)
		if s.Label != "" {
			name += "(" + s.Label + ")"
		}
		parts = append(parts, fmt.Sprintf("%s=%s", name, FormatDur(s.Debit)))
	}
	return strings.Join(parts, " + ")
}

// FormatDur renders a virtual duration compactly (µs below 1 ms).
func FormatDur(d sim.Duration) string {
	switch {
	case d >= sim.Second:
		return fmt.Sprintf("%.3gs", float64(d)/1e9)
	case d >= sim.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.3gus", float64(d)/1e3)
	}
}

func (agg *classAgg) profile() ClassProfile {
	p := ClassProfile{Class: agg.class.String(), Chains: agg.chains, Late: agg.late,
		Dropped: agg.dropped, Top: causeNames[agg.top()]}
	for c := cause(0); c < causeNone; c++ {
		if agg.touched&(1<<c) == 0 {
			continue
		}
		p.TotalNS += agg.debit[c]
		if c.abnormal() {
			p.AbnormalNS += agg.debit[c]
		}
	}
	for c := cause(0); c < causeNone; c++ {
		if agg.touched&(1<<c) == 0 {
			continue
		}
		st := CauseStat{Cause: causeNames[c], DebitNS: agg.debit[c], Late: agg.lateTop[c]}
		if p.TotalNS > 0 {
			st.Share = float64(agg.debit[c]) / float64(p.TotalNS)
		}
		p.Causes = append(p.Causes, st)
	}
	sort.SliceStable(p.Causes, func(i, j int) bool {
		return p.Causes[i].DebitNS > p.Causes[j].DebitNS
	})
	return p
}

// top ranks the class's incident top causes: count desc, debit desc,
// name asc — fully deterministic.
func (agg *classAgg) top() cause {
	best := causeNone
	var bestN uint64
	for c := cause(0); c < causeNone; c++ {
		n := agg.lateTop[c]
		if n == 0 || !c.abnormal() {
			continue
		}
		if n > bestN || (n == bestN && agg.debit[c] > agg.debit[best]) {
			best, bestN = c, n
		}
	}
	return best
}

// merged sums the aggregates of one class (0 = every class).
func (a *Analyzer) merged(class obs.Class) classAgg {
	var m classAgg
	for _, agg := range a.aggs {
		if class != 0 && agg.class != class {
			continue
		}
		for c := range m.debit {
			m.debit[c] += agg.debit[c]
			m.lateTop[c] += agg.lateTop[c]
		}
	}
	return m
}

// BreachSummary renders the top-n incident causes for one class (0 =
// every class) — attached by the SLO engine to breach post-mortems.
// Empty when no late or dropped chain was attributed yet. Implements
// obs.CausalSink; kernel context.
func (a *Analyzer) BreachSummary(class obs.Class, n int) string {
	m := a.merged(class)
	type ranked struct {
		cause Cause
		n     uint64
		d     sim.Duration
	}
	var rs []ranked
	for c := cause(0); c < causeNone; c++ {
		if m.lateTop[c] == 0 || !c.abnormal() {
			continue
		}
		rs = append(rs, ranked{causeNames[c], m.lateTop[c], m.debit[c]})
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
