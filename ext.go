package canec

// Extensions beyond the paper's core model, built on the same substrate:
// multi-network gateways (§2.2.1's spanning channels), Jensen-style
// time-value functions (the paper's ref [11], used to derive expiration
// attributes), and candump-style bus tracing.

import (
	"io"

	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/obs"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/value"
)

// Gateway is one end of a gateway between two bus segments: Forward
// ships a subject's events to the other end, which republishes the
// subjects it Announces under its own TxNode.
type Gateway = gateway.RemoteBridge

// Channel classes, as Middleware.Channel, Gateway.Forward and
// Gateway.Announce take them.
const (
	HRT = core.HRT
	SRT = core.SRT
	NRT = core.NRT
)

// JoinSegments creates a gateway between two middleware endpoints whose
// segments share one simulation kernel (build the second System with the
// first one's Kernel in SystemConfig.Kernel); segA and segB name the
// segments. It fails when the endpoints do not share a kernel (segments
// on different kernels — typically different processes — are federated
// over an IP transport instead; see internal/relay and cmd/canecd).
func JoinSegments(a, b *Middleware, segA, segB string, delay Duration) (*Gateway, *Gateway, error) {
	return gateway.Join(a, b, segA, segB, delay)
}

// Time-value functions (Jensen): the worth of completing a transmission
// as a function of its lateness.
type (
	// ValueFunc maps lateness to completion value (1 = on time).
	ValueFunc = value.Function
	// StepValue is the hard-deadline function.
	StepValue = value.Step
	// LinearValue decays linearly over a grace interval.
	LinearValue = value.Linear
	// ExponentialValue halves every half-life after the deadline.
	ExponentialValue = value.Exponential
	// PlateauValue grants a reduced constant value while late.
	PlateauValue = value.Plateau
)

// ExpirationFor derives an event's Expiration attribute from its value
// function, deadline and a residual-value threshold (§2.2.2: "the
// expiration time ... may be defined according to some value function").
func ExpirationFor(f ValueFunc, deadline Time, threshold float64, horizon Duration) Time {
	return value.ExpirationFor(f, deadline, threshold, horizon)
}

// Observability: end-to-end event life-cycle tracing and a metrics
// registry, enabled per system via SystemConfig.Observe (nil keeps the
// instrumentation dormant). The resulting Observer is on System.Obs.
type (
	// ObserveConfig selects which observability features a system runs
	// with; canec.ObserveAll() enables everything.
	ObserveConfig = obs.Config
	// Observer collects life-cycle records and metrics for one system.
	Observer = obs.Observer
	// TraceRecord is one timestamped stage of one event's life cycle.
	TraceRecord = obs.Record
	// MetricsRegistry holds the counters, gauges and histograms and
	// renders them in the Prometheus text exposition format (WriteText).
	MetricsRegistry = obs.Registry
)

// ObserveAll returns an ObserveConfig with tracing and metrics enabled.
func ObserveAll() *ObserveConfig { return obs.Default() }

// WriteTraceJSONL writes life-cycle records as JSON Lines.
func WriteTraceJSONL(w io.Writer, recs []TraceRecord) error { return obs.WriteJSONL(w, recs) }

// WriteChromeTrace writes life-cycle records in the Chrome trace_event
// format (load in chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, recs []TraceRecord, nodes int) error {
	return obs.WriteChromeTrace(w, recs, nodes)
}

// Kernel re-export so multi-segment systems can share a time base.
type Kernel = sim.Kernel

// NewKernel creates a standalone simulation kernel (for multi-segment
// topologies; single-segment systems get one implicitly from NewSystem).
func NewKernel(seed uint64) *Kernel { return sim.NewKernel(seed) }

// Node liveness (§2.2.1 early failure detection).
type (
	// Watchdog tracks publisher liveness from the known slot schedule.
	Watchdog = core.Watchdog
	// NodeState is a watchdog verdict.
	NodeState = core.NodeState
	// ChannelInfo is a read-only channel snapshot (Middleware.Channels).
	ChannelInfo = core.ChannelInfo
)

// Watchdog states.
const (
	NodeAlive     = core.NodeAlive
	NodeSuspected = core.NodeSuspected
	NodeFailed    = core.NodeFailed
)

// Declarative scenarios (JSON): see internal/scenario for the format and
// cmd/canecsim -config for the CLI entry point.
type (
	// Scenario is a declarative mixed-traffic description.
	Scenario = scenario.Scenario
	// ScenarioReport summarises a scenario run.
	ScenarioReport = scenario.Report
)

// LoadScenario parses and validates a JSON scenario.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }
