package causal

import (
	"fmt"
	"sort"
	"strings"

	"canec/internal/obs"
	"canec/internal/sim"
)

// aggregate folds one finished chain into the per-class profile, the
// canec_why_* metric families and the retained chain lists.
func (a *Analyzer) aggregate(ch Chain) {
	a.total++
	agg, ok := a.byClass[ch.Class]
	if !ok {
		agg = &classAgg{
			debit:   make(map[Cause]sim.Duration),
			lateTop: make(map[Cause]uint64),
		}
		a.byClass[ch.Class] = agg
		a.classes = append(a.classes, ch.Class)
	}
	agg.chains++
	dropped := ch.Outcome != string(obs.StageDelivered)
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
func (a *Analyzer) metricChain(ch Chain, dropped, incident bool) {
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
	for _, class := range a.classes {
		s.Classes = append(s.Classes, a.classProfile(class))
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

func (a *Analyzer) classProfile(class string) ClassProfile {
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
func (a *Analyzer) topFor(agg *classAgg) Cause {
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
func (a *Analyzer) TopCause(class string) Cause {
	if class != "" {
		agg, ok := a.byClass[class]
		if !ok {
			return CauseNone
		}
		return a.topFor(agg)
	}
	merged := &classAgg{debit: make(map[Cause]sim.Duration), lateTop: make(map[Cause]uint64)}
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
func (a *Analyzer) BreachSummary(class string, n int) string {
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
