package experiments

import (
	"encoding/binary"
	"fmt"

	"canec/internal/binding"
	"canec/internal/core"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/value"
)

// a3ValueShedding evaluates the overload-management extension the paper
// points to via Jensen's value functions (ref [11], §2.2.2): during a
// sustained overload burst, compare
//
//	none    — unbounded queues, no expiration: everything is eventually
//	          sent, mostly far too late;
//	expire  — the paper's expiration mechanism (validity = 2×deadline);
//	value   — bounded queue with least-residual-value shedding.
//
// The metric is accrued value: Σ over delivered events of their value
// function evaluated at delivery lateness. Value-aware shedding spends
// the scarce bandwidth on events that still matter.
func a3ValueShedding(seed uint64) Result {
	tbl := stats.Table{
		Title:   "overload burst (≈2× capacity for 200 ms): accrued value by policy",
		Headers: []string{"policy", "published", "delivered", "shed", "expired", "accruedValue", "value/published%"},
	}
	for _, policy := range []string{"none", "expire", "value"} {
		tbl.Rows = append(tbl.Rows, a3Run(seed, policy))
	}
	return Result{
		ID:    "A3",
		Title: "extension: value-based load shedding (ref [11], §2.2.2)",
		Table: tbl,
		Notes: []string{
			"three stream classes share the node: hard (step value), sensor (linear decay 10 ms),",
			"report (plateau 0.5 for 100 ms); the burst offers ~2× the bus capacity",
			"expected ordering: value ≥ expire > none in accrued value — stale hard events",
			"waste bandwidth unless shed, and value shedding targets exactly those",
		},
	}
}

func a3Run(seed uint64, policy string) []string {
	sys := must(core.NewSystem(core.SystemConfig{Nodes: 2, Seed: seed}))
	classes := []struct {
		subj binding.Subject
		fn   core.ValueFunc
	}{
		{0x31, value.Step{}},
		{0x32, value.Linear{Grace: 10 * sim.Millisecond}},
		{0x33, value.Plateau{After: 0.5, Grace: 100 * sim.Millisecond}},
	}
	shed, expired, delivered := 0, 0, 0
	var accrued float64

	if policy == "value" {
		sys.Node(0).MW.MaxQueuedSRT = 16
	}
	pubs := make([]core.Channel, len(classes))
	for i, c := range classes {
		attrs := core.ChannelAttrs{}
		if policy == "value" {
			attrs.Value = c.fn
		}
		pubs[i] = pair(sys, core.SRT, c.subj, 0, attrs, func(e core.Exception) {
			switch e.Kind {
			case core.ExcLoadShed:
				shed++
			case core.ExcValidityExpired:
				expired++
			}
		}, 1, core.ChannelAttrs{}, func(ev core.Event, di core.DeliveryInfo) {
			delivered++
			deadline := sim.Time(binary.LittleEndian.Uint64(ev.Payload))
			accrued += c.fn.At(di.DeliveredAt - deadline)
		}, nil)
	}

	// Burst: each class publishes every 200 µs for 200 ms — three streams
	// of ~125 µs frames ≈ 1.9× the bus. Deadlines 5 ms out; the payload
	// carries the deadline.
	const burst = 200 * sim.Millisecond
	var expiration sim.Duration
	if policy == "expire" {
		expiration = 10 * sim.Millisecond
	}
	feeds := make([]*scenario.SRTPub, len(classes))
	for i, c := range classes {
		feeds[i] = (&scenario.SRTPub{Sys: sys, Node: 0, Subject: c.subj, Ch: pubs[i], Gap: 200 * sim.Microsecond,
			Deadline: 5 * sim.Millisecond, Expiration: expiration, End: burst + 1,
			Payload: func(now sim.Time) []byte {
				p := make([]byte, 8)
				binary.LittleEndian.PutUint64(p, uint64(now+5*sim.Millisecond))
				return p
			}}).Start(sim.Time(i) * 66 * sim.Microsecond)
	}
	sys.Run(2 * sim.Second) // let queues drain after the burst

	published := 0
	for _, f := range feeds {
		published += f.Accepted
	}
	frac := 0.0
	if published > 0 {
		frac = accrued / float64(published)
	}
	return []string{
		policy,
		fmt.Sprint(published),
		fmt.Sprint(delivered),
		fmt.Sprint(shed),
		fmt.Sprint(expired),
		fmt.Sprintf("%.1f", accrued),
		stats.Pct(frac),
	}
}
