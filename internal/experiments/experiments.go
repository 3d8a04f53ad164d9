// Package experiments regenerates every quantitative claim of the paper
// as a table (the paper itself reports no measured tables — its Figures 1
// and 2 are API listings and Figure 3 is the slot geometry — so each
// experiment operationalises a stated claim; see DESIGN.md §4 for the
// mapping and EXPERIMENTS.md for recorded outcomes).
package experiments

import (
	"fmt"
	"strings"

	"canec/internal/obs"
	"canec/internal/stats"
)

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	Table stats.Table
	// Notes explain how to read the table against the paper's claim.
	Notes []string
	// Prom carries per-run metrics registry snapshots (Prometheus text
	// format) for the experiments that support it, when EnableMetrics was
	// called before the run. Aggregate drops them (snapshots of different
	// seeds are not meaningfully averageable).
	Prom []PromSnapshot
}

// PromSnapshot is one simulation run's metrics registry rendered in the
// Prometheus text exposition format.
type PromSnapshot struct {
	// Label distinguishes runs within one experiment (e.g. "nodes16").
	Label string
	Text  string
}

// observeMetrics is write-once: EnableMetrics must be called before any
// experiment runs. RunSeeds executes runs on parallel goroutines, so the
// flag must not change while runs are in flight.
var observeMetrics bool

// EnableMetrics makes the supporting experiments (E3, E9) build their
// systems with the observability metrics registry and attach registry
// snapshots to their Results. Call once, before running any experiment.
func EnableMetrics() { observeMetrics = true }

// metricsConfig returns the system observability config for experiment
// runs (nil when EnableMetrics was not called).
func metricsConfig() *obs.Config {
	if !observeMetrics {
		return nil
	}
	return &obs.Config{Metrics: true}
}

// promText renders an observer's registry, or "" without one.
func promText(o *obs.Observer) string {
	if o == nil {
		return ""
	}
	var b strings.Builder
	if err := o.Registry().WriteText(&b); err != nil {
		return ""
	}
	return b.String()
}

// String renders the result for terminal output.
func (r Result) String() string {
	s := fmt.Sprintf("=== %s: %s ===\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		s += "  " + n + "\n"
	}
	return s
}

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Name  string
	Short string
	Run   func(seed uint64) Result
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "slot-geometry", "Fig. 3 slot geometry and delivery de-jittering", e1SlotGeometry},
		{"E2", "fault-tolerance", "HRT latency bound under omission faults (§3.2)", e2FaultTolerance},
		{"E3", "reclamation", "bandwidth reclamation vs TTCAN-style TDMA (§3.2, §5)", e3Reclamation},
		{"E4", "edf-vs-dm", "EDF via priority slots vs fixed priority vs oracle (§3.3-3.4)", e4EDFvsDM},
		{"E5", "prio-slot-tradeoff", "priority-slot length Δt_p trade-off (§3.4)", e5PrioritySlotTradeoff},
		{"E6", "fragmentation", "NRT bulk transfer non-interference (§2.2.3)", e6Fragmentation},
		{"E7", "promotion-overhead", "dynamic priority promotion overhead (§3.4)", e7PromotionOverhead},
		{"E8", "clock-sync", "sync precision vs ΔG_min gap (§3.2)", e8ClockSync},
		{"E9", "integration", "full mixed-class integration (§2.2, §5)", e9Integration},
		{"E10", "wcrt-analysis", "Tindell WCRT analysis vs simulation (§4)", e10WCRTAnalysis},
		{"E11", "crash-recovery", "crash recovery latency and outage reclamation (§3.2, §5)", e11Recovery},
		{"E12", "master-failover", "time-master failover: takeover latency and holdover jitter (§3.2)", e12MasterFailover},
		{"E16", "busoff-attack", "bus-off adversary sweep: attack rate vs confinement and isolation (Bosch §8)", e16BusOffAttack},
		{"E17", "prob-validation", "probabilistic WCRT predictions vs seeded chaos campaigns (§4 extension)", e17ProbValidation},
		{"E18", "control-qoc", "closed-loop quality of control vs load, class and faults (§2.2 application view)", e18ControlQoC},
		{"E19", "why-late", "causal lateness attribution: injected faults vs root-cause verdicts (observability extension)", e19WhyLate},
		{"A1", "promotion-ablation", "ablation: dynamic priority promotion on/off (§3.4)", a1PromotionAblation},
		{"A2", "dejitter-ablation", "ablation: delivery-at-deadline on/off (§3.2)", a2DejitterAblation},
		{"A3", "value-shedding", "extension: value-based load shedding (ref [11])", a3ValueShedding},
	}
}

// Find returns the experiment with the given ID or name.
func Find(key string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == key || e.Name == key {
			return e, true
		}
	}
	return Experiment{}, false
}
