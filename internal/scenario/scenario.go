// Package scenario runs declarative, JSON-described mixed-traffic
// scenarios on the simulated CAN segment: node count, fault model, hard
// real-time streams (turned into a planned calendar), soft real-time
// streams and bulk transfers, with a per-class report. It is the
// config-driven face of the library — canecsim's -config flag loads these
// files — and doubles as a compact integration-test vehicle.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/clock"
	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/prob"
	"canec/internal/sim"
	"canec/internal/stats"
)

// HRTStream describes one hard real-time channel.
type HRTStream struct {
	Subject    uint64 `json:"subject"`
	Publisher  int    `json:"publisher"`
	Subscriber int    `json:"subscriber"`
	PeriodUs   int64  `json:"periodUs"`
	Payload    int    `json:"payload"` // application bytes (≤ 7)
	// RoundPayload, when set from Go, is round r's payload; nil publishes
	// a Stamp of Payload bytes. The bytes set the frame's bit stuffing.
	RoundPayload func(r int64) []byte `json:"-"`
}

// SRTStream describes one soft real-time stream.
type SRTStream struct {
	Subject      uint64 `json:"subject"`
	Publisher    int    `json:"publisher"`
	Subscriber   int    `json:"subscriber"`
	MeanPeriodUs int64  `json:"meanPeriodUs"`
	DeadlineUs   int64  `json:"deadlineUs"`
	ExpirationUs int64  `json:"expirationUs"`
	Payload      int    `json:"payload"`
	Sporadic     bool   `json:"sporadic"`
}

// NRTBulk describes a repeated bulk transfer.
type NRTBulk struct {
	Subject    uint64 `json:"subject"`
	Publisher  int    `json:"publisher"`
	Subscriber int    `json:"subscriber"`
	Bytes      int    `json:"bytes"`
	RepeatMs   int64  `json:"repeatMs"` // 0: send once
	Prio       int    `json:"prio"`     // 0: lowest
}

// ControlLoop describes one closed sensor → controller → actuator loop
// (internal/control): a discrete-time plant stepped on the kernel whose
// sample, command and ack frames ride real event channels of the given
// class, with per-loop quality-of-control reported after the run.
type ControlLoop struct {
	Name string `json:"name"`
	// Plant is "double_integrator" or "thermal"; Controller "pid" or
	// "mpc".
	Plant      string `json:"plant"`
	Controller string `json:"controller"`
	// Class ("hrt", "srt" or "nrt") is the channel class of the sensor
	// and command legs; AckClass enables nothing by itself — the ack leg
	// exists when AckSubject is set, riding AckClass (default: Class).
	Class    string `json:"class"`
	AckClass string `json:"ackClass,omitempty"`
	// Sensor, ControllerNode and Actuator are the hosting stations.
	Sensor         int `json:"sensor"`
	ControllerNode int `json:"controllerNode"`
	Actuator       int `json:"actuator"`
	// SensorSubject and CommandSubject name the loop's two channels;
	// AckSubject (0: off) adds the actuator-ack leg.
	SensorSubject  uint64 `json:"sensorSubject"`
	CommandSubject uint64 `json:"commandSubject"`
	AckSubject     uint64 `json:"ackSubject,omitempty"`
	// PeriodUs is the sampling period.
	PeriodUs int64 `json:"periodUs"`
	// Setpoint and Initial parameterise the regulation transient.
	Setpoint float64 `json:"setpoint"`
	Initial  float64 `json:"initial"`
}

// loopConfig lowers the JSON spec into the control package's config.
func (c ControlLoop) loopConfig() (control.LoopConfig, error) {
	class, err := core.ParseClass(c.Class)
	if err != nil {
		return control.LoopConfig{}, err
	}
	ackClass := class
	if c.AckClass != "" {
		if ackClass, err = core.ParseClass(c.AckClass); err != nil {
			return control.LoopConfig{}, err
		}
	}
	cfg := control.LoopConfig{
		Name: c.Name, Plant: c.Plant, Controller: c.Controller,
		Class: class, AckClass: ackClass,
		Sensor: c.Sensor, ControllerNode: c.ControllerNode, Actuator: c.Actuator,
		SensorSubject: c.SensorSubject, CommandSubject: c.CommandSubject,
		AckSubject: c.AckSubject,
		Period:     sim.Duration(c.PeriodUs) * sim.Microsecond,
		Setpoint:   c.Setpoint, Initial: c.Initial,
	}
	return cfg, cfg.Validate()
}

// AdmissionSpec enables the probabilistic admission controller for the
// run: SRT (and optionally NRT) channels are analyzed at announce time
// against the per-class deadline-miss targets under the planned error
// model, and the admitted set is re-evaluated when fault-confinement
// transitions raise the measured error rate. HRT channels stay
// calendar-dimensioned and bypass the controller.
type AdmissionSpec struct {
	// SRTTarget is the SRT-class deadline-miss probability ceiling
	// (required, in (0, 1]); NRTTarget likewise for NRT, 0 leaving the
	// NRT class uncontrolled (bulk traffic needs no deadline law).
	SRTTarget float64 `json:"srtTarget"`
	NRTTarget float64 `json:"nrtTarget,omitempty"`
	// ErrorRate is the planned per-attempt corruption probability the
	// channels are admitted against; OmissionRate/VictimProb
	// parameterise the inconsistent-omission leg of the model.
	ErrorRate    float64 `json:"errorRate"`
	OmissionRate float64 `json:"omissionRate,omitempty"`
	VictimProb   float64 `json:"victimProb,omitempty"`
}

// SLOSpec starts the objective engine for the run. Zero fields inherit
// the production defaults (obs.DefaultSLOConfig); enabling it forces
// metrics on.
type SLOSpec struct {
	// SRTMissBudget is the SRT miss fraction (0: default 0.05).
	SRTMissBudget float64 `json:"srtMissBudget,omitempty"`
	// IntervalMs, ShortWindowMs and LongWindowMs override the burn-rate
	// engine's tick and windows (0: defaults 100 ms / 1 s / 10 s).
	IntervalMs    int64 `json:"intervalMs,omitempty"`
	ShortWindowMs int64 `json:"shortWindowMs,omitempty"`
	LongWindowMs  int64 `json:"longWindowMs,omitempty"`
}

// sloConfig lowers the spec onto the engine's config.
func (s SLOSpec) sloConfig() *obs.SLOConfig {
	cfg := obs.DefaultSLOConfig()
	if s.SRTMissBudget > 0 {
		cfg.SRTMissBudget = s.SRTMissBudget
	}
	if s.IntervalMs > 0 {
		cfg.Interval = sim.Duration(s.IntervalMs) * sim.Millisecond
	}
	if s.ShortWindowMs > 0 {
		cfg.ShortWindow = sim.Duration(s.ShortWindowMs) * sim.Millisecond
	}
	if s.LongWindowMs > 0 {
		cfg.LongWindow = sim.Duration(s.LongWindowMs) * sim.Millisecond
	}
	return &cfg
}

// WhySpec attaches the causal lateness ("why-late") engine to the run:
// every delivered-late or dropped event chain is attributed to typed
// root causes, aggregated into Report.Why and the canec_why_* metric
// families, and — with an SLO — stamped onto breach post-mortems.
type WhySpec struct {
	// LateOverUs maps a class (HRT/SRT/NRT) to the publish→deliver
	// latency, in microseconds, beyond which a delivered chain counts as
	// late. Classes without a bound only contribute drop incidents.
	LateOverUs map[string]int64 `json:"lateOverUs,omitempty"`
	// KeepRecent bounds the retained worst-chain list (0: default 32).
	KeepRecent int `json:"keepRecent,omitempty"`
}

// causalConfig lowers the spec onto the analyzer's config.
func (w WhySpec) causalConfig(reg *obs.Registry) causal.Config {
	cfg := causal.Config{Registry: reg, KeepRecent: w.KeepRecent}
	if len(w.LateOverUs) > 0 {
		cfg.LateOver = make(map[string]sim.Duration, len(w.LateOverUs))
		for class, us := range w.LateOverUs {
			cfg.LateOver[strings.ToUpper(class)] = sim.Duration(us) * sim.Microsecond
		}
	}
	return cfg
}

// Scenario is the top-level description.
type Scenario struct {
	Name           string  `json:"name"`
	Nodes          int     `json:"nodes"`
	Seed           uint64  `json:"seed"`
	DurationMs     int64   `json:"durationMs"`
	MaxDriftPPM    float64 `json:"maxDriftPPM"`
	FaultRate      float64 `json:"faultRate"`
	OmissionDegree int     `json:"omissionDegree"`
	// ConfineFaults enables CAN 2.0 fault confinement on the bus: TEC/REC
	// error counters, error-passive degradation (which sheds NRT traffic)
	// and bus-off with the 128×11-recessive-bit recovery rule. Off by
	// default, matching the paper's error-active assumption. A bus-off
	// controller rejoins by itself after the observation time; under a
	// chaos campaign the lifecycle's supervisor owns recovery instead
	// (capped exponential re-join backoff, anti-flap).
	ConfineFaults bool `json:"confineFaults,omitempty"`
	// SyncMaster selects the initial time master (default station 0);
	// SyncBackups ranks the backup masters for failover.
	SyncMaster  int         `json:"syncMaster,omitempty"`
	SyncBackups []int       `json:"syncBackups,omitempty"`
	HRT         []HRTStream `json:"hrt"`
	SRT         []SRTStream `json:"srt"`
	NRT         []NRTBulk   `json:"nrt"`

	// Control closes plant/controller loops over the segment's event
	// channels; each loop's quality-of-control lands in Report.Control.
	Control []ControlLoop `json:"controlLoops,omitempty"`

	// Admission, when present, installs the probabilistic admission
	// controller with the given error model and per-class targets. SRT
	// channels then declare their period and deadline at announce time;
	// rejected channels are reported (typed reason), not fatal.
	Admission *AdmissionSpec `json:"admission,omitempty"`

	// Chaos, when present, runs the scenario under a seeded fault campaign:
	// node crashes and restarts, error bursts, omission windows and
	// babbling-idiot attacks, optionally contained by the bus guardian. The
	// run is forced to record a trace and the campaign's invariant checkers
	// replay it into Report.Chaos.
	Chaos *chaos.Script `json:"chaos,omitempty"`

	// SLO, when present, runs the burn-rate objective engine during the
	// scenario (forcing metrics on); breaches dump flight-recorder
	// post-mortems when FlightRecords is set too. Final objective states
	// land in Report.SLO.
	SLO *SLOSpec `json:"slo,omitempty"`

	// Why, when present, attaches the causal lateness engine: per-chain
	// root-cause attribution into Report.Why, canec_why_* metrics, and
	// breach post-mortems annotated with their top causes.
	Why *WhySpec `json:"why,omitempty"`

	// FlightRecords, when positive, attaches a flight recorder retaining
	// that many trace records per node; a chaos campaign that ends with
	// invariant violations then dumps a post-mortem (JSONL + Chrome
	// trace) into FlightDir, reported in Report.Chaos.PostMortem.
	FlightRecords int    `json:"flightRecords,omitempty"`
	FlightDir     string `json:"flightDir,omitempty"`

	// Observe enables the observability layer for the run. It is set
	// programmatically (canecsim -export, tests), not from the JSON file.
	Observe *obs.Config `json:"-"`
}

// Load parses a scenario from JSON.
func Load(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// NodeRefError is the typed validation error for a spec entry that
// references a station outside the scenario's node range. It is returned
// (never silently skipped) by Validate, Load and Run; callers unwrap it
// with errors.As to tell a malformed reference from other spec errors.
type NodeRefError struct {
	// Field names the offending spec entry ("hrt.publisher",
	// "controlLoops.sensor", …); Index is its position in that list.
	Field string
	Index int
	// Node is the referenced station; Nodes the scenario's node count.
	Node  int
	Nodes int
}

func (e *NodeRefError) Error() string {
	return fmt.Sprintf("scenario: %s[%d] references node %d of %d", e.Field, e.Index, e.Node, e.Nodes)
}

// Validate checks structural consistency.
func (s *Scenario) Validate() error {
	if s.Nodes < 2 || s.Nodes > can.MaxTxNode {
		return fmt.Errorf("scenario: nodes %d out of range", s.Nodes)
	}
	if s.DurationMs <= 0 {
		return fmt.Errorf("scenario: non-positive duration")
	}
	node := func(n int, what string, i int) error {
		if n < 0 || n >= s.Nodes {
			return &NodeRefError{Field: what, Index: i, Node: n, Nodes: s.Nodes}
		}
		return nil
	}
	// A subscriber tells the streams of one channel apart by publisher
	// (Build's inbox), so no stream may repeat.
	seen := make(map[[4]uint64]bool)
	dup := func(class core.Class, subject uint64, pub, sub int, what string, i int) error {
		k := [4]uint64{uint64(class), subject, uint64(pub), uint64(sub)}
		if seen[k] {
			return fmt.Errorf("scenario: %s[%d] repeats the stream of subject 0x%x from node %d to node %d", what, i, subject, pub, sub)
		}
		seen[k] = true
		return nil
	}
	for i, h := range s.HRT {
		if err := node(h.Publisher, "hrt.publisher", i); err != nil {
			return err
		}
		if err := node(h.Subscriber, "hrt.subscriber", i); err != nil {
			return err
		}
		if h.PeriodUs <= 0 || h.Payload < 1 || h.Payload > 7 {
			return fmt.Errorf("scenario: hrt[%d] invalid period/payload", i)
		}
		if err := dup(core.HRT, h.Subject, h.Publisher, h.Subscriber, "hrt", i); err != nil {
			return err
		}
	}
	for i, r := range s.SRT {
		if err := node(r.Publisher, "srt.publisher", i); err != nil {
			return err
		}
		if err := node(r.Subscriber, "srt.subscriber", i); err != nil {
			return err
		}
		if r.MeanPeriodUs <= 0 || r.DeadlineUs <= 0 || r.Payload < 1 || r.Payload > 8 {
			return fmt.Errorf("scenario: srt[%d] invalid parameters", i)
		}
		if err := dup(core.SRT, r.Subject, r.Publisher, r.Subscriber, "srt", i); err != nil {
			return err
		}
	}
	for i, b := range s.NRT {
		if err := node(b.Publisher, "nrt.publisher", i); err != nil {
			return err
		}
		if err := node(b.Subscriber, "nrt.subscriber", i); err != nil {
			return err
		}
		if b.Bytes <= 0 {
			return fmt.Errorf("scenario: nrt[%d] invalid size", i)
		}
		if err := dup(core.NRT, b.Subject, b.Publisher, b.Subscriber, "nrt", i); err != nil {
			return err
		}
	}
	names := make(map[string]bool, len(s.Control))
	subjects := make(map[uint64]bool, 3*len(s.Control))
	for i, c := range s.Control {
		if err := node(c.Sensor, "controlLoops.sensor", i); err != nil {
			return err
		}
		if err := node(c.ControllerNode, "controlLoops.controllerNode", i); err != nil {
			return err
		}
		if err := node(c.Actuator, "controlLoops.actuator", i); err != nil {
			return err
		}
		if _, err := c.loopConfig(); err != nil {
			return fmt.Errorf("scenario: controlLoops[%d]: %w", i, err)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario: controlLoops[%d]: duplicate loop name %q", i, c.Name)
		}
		names[c.Name] = true
		for _, subj := range []uint64{c.SensorSubject, c.CommandSubject, c.AckSubject} {
			if subj == 0 {
				continue
			}
			if subjects[subj] {
				return fmt.Errorf("scenario: controlLoops[%d]: subject 0x%x used by another loop", i, subj)
			}
			subjects[subj] = true
		}
	}
	if s.SyncMaster < 0 || s.SyncMaster >= s.Nodes {
		return fmt.Errorf("scenario: syncMaster %d of %d", s.SyncMaster, s.Nodes)
	}
	for i, b := range s.SyncBackups {
		if b < 0 || b >= s.Nodes || b == s.SyncMaster {
			return fmt.Errorf("scenario: syncBackups[%d] = %d invalid", i, b)
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(s.Nodes); err != nil {
			return err
		}
		for i, e := range s.Chaos.Events {
			if e.Kind == "busoff_attack" && !s.ConfineFaults {
				return fmt.Errorf("scenario: chaos event %d is a busoff_attack but confineFaults is off (no error counters to attack)", i)
			}
		}
	}
	if a := s.Admission; a != nil {
		if a.SRTTarget <= 0 || a.SRTTarget > 1 {
			return fmt.Errorf("scenario: admission.srtTarget %v out of (0, 1]", a.SRTTarget)
		}
		if a.NRTTarget < 0 || a.NRTTarget > 1 {
			return fmt.Errorf("scenario: admission.nrtTarget %v out of [0, 1]", a.NRTTarget)
		}
		if err := (prob.ErrorModel{ErrorRate: a.ErrorRate, OmissionRate: a.OmissionRate,
			VictimProb: a.VictimProb, Receivers: s.Nodes}).Validate(); err != nil {
			return fmt.Errorf("scenario: admission: %w", err)
		}
	}
	return nil
}

// Report summarises a run.
type Report struct {
	Name        string
	Counters    core.Counters
	Utilization float64
	HRTLatency  *stats.Series
	HRTJitter   sim.Duration
	SRTLatency  *stats.Series
	NRTBytes    int
	Elapsed     sim.Duration
	// Obs is the run's observability layer (nil unless Scenario.Observe
	// was set): stage records via Obs.Records(), metrics via Obs.Registry().
	Obs *obs.Observer
	// Chaos is the fault-campaign report (nil unless Scenario.Chaos ran).
	Chaos *chaos.Report
	// Admission is the controller's final snapshot (nil unless
	// Scenario.Admission was set); Rejected lists the channels refused
	// at startup announce with their typed reasons, in scenario order.
	Admission *prob.Snapshot
	Rejected  []string
	// Control holds each closed loop's quality-of-control report, in
	// scenario order.
	Control []control.QoC
	// SLO holds the final objective states (nil unless Scenario.SLO ran).
	SLO []obs.Objective
	// Why is the causal lateness engine's final snapshot (nil unless
	// Scenario.Why ran).
	Why *causal.Snapshot
}

// String renders the report for terminals.
func (r *Report) String() string {
	c := r.Counters
	out := fmt.Sprintf("scenario %q: %v simulated, bus utilization %.1f%%\n",
		r.Name, r.Elapsed, 100*r.Utilization)
	if r.HRTLatency.N() > 0 {
		out += fmt.Sprintf("HRT: %d delivered, latency %s/%s µs (mean/p99), period jitter %d µs, late %d, missed %d\n",
			c.DeliveredHRT, stats.Micros(r.HRTLatency.Mean()), stats.Micros(r.HRTLatency.Quantile(0.99)),
			r.HRTJitter.Micros(), c.LateHRTDeliveries, c.SlotMissed)
	}
	if r.SRTLatency.N() > 0 {
		out += fmt.Sprintf("SRT: %d delivered, latency %s/%s µs, deadlineMissed %d, expired %d, promotions %d\n",
			c.DeliveredSRT, stats.Micros(r.SRTLatency.Mean()), stats.Micros(r.SRTLatency.Quantile(0.99)),
			c.DeadlineMissed, c.Expired, c.PromotionsApplied)
	}
	out += fmt.Sprintf("NRT: %d messages, %d KiB transferred, fragErrors %d\n",
		c.DeliveredNRT, r.NRTBytes/1024, c.FragErrors)
	for i := range r.Control {
		out += r.Control[i].String() + "\n"
	}
	if ch := r.Chaos; ch != nil {
		out += fmt.Sprintf("chaos: %d crashes, %d restarts, guardian muted %d frames (isolated %d nodes), babbler sent %d / muted %d\n",
			ch.Crashes, ch.Restarts, ch.GuardianMuted, ch.GuardianIsolated, ch.BabbleSent, ch.BabbleMuted)
		if ch.AgentTakeovers > 0 || ch.MasterTakeovers > 0 {
			out += fmt.Sprintf("chaos: control plane: %d agent takeover(s), %d master takeover(s)\n",
				ch.AgentTakeovers, ch.MasterTakeovers)
		}
		if ch.BusOffEvents > 0 || ch.AttackSent > 0 || ch.AttackMuted > 0 {
			out += fmt.Sprintf("chaos: bus-off: %d event(s), %d supervised recovery(ies), attacker sent %d / muted %d\n",
				ch.BusOffEvents, ch.BusOffRecovered, ch.AttackSent, ch.AttackMuted)
		}
		if len(ch.Violations) == 0 {
			out += "chaos: all trace invariants hold\n"
		}
		for _, v := range ch.Violations {
			out += fmt.Sprintf("chaos: INVARIANT VIOLATED: %v\n", v)
		}
		for _, p := range ch.PostMortem {
			out += fmt.Sprintf("chaos: post-mortem written: %s\n", p)
		}
		for _, e := range ch.Errors {
			out += fmt.Sprintf("chaos: event failed: %s\n", e)
		}
	}
	if a := r.Admission; a != nil {
		out += fmt.Sprintf("admission: %d admitted, %d rejected, %d shed; SRT target %.3g, predicted miss %.3g\n",
			a.AdmittedTotal, a.RejectedTotal, a.ShedTotal, a.Targets.SRT, a.PredictedMissSRT)
		out += fmt.Sprintf("admission: error rate planned %.3g, measured %.3g, effective %.3g\n",
			a.PlannedRate, a.MeasuredRate, a.EffectiveRate)
		reasons := make([]string, 0, len(a.Rejected))
		for reason := range a.Rejected {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			out += fmt.Sprintf("admission: rejections by reason: %s ×%d\n", reason, a.Rejected[reason])
		}
		for _, line := range r.Rejected {
			out += fmt.Sprintf("admission: rejected %s\n", line)
		}
	}
	for _, o := range r.SLO {
		if o.Breaches > 0 {
			out += fmt.Sprintf("slo: %s breached ×%d, burn %.3g (long window)\n",
				o.Name, o.Breaches, o.LongBurn)
		}
	}
	if w := r.Why; w != nil {
		out += fmt.Sprintf("why: %d chains attributed (%d evicted)\n", w.Chains, w.Evicted)
		for _, cp := range w.Classes {
			if cp.Late == 0 && cp.Dropped == 0 {
				continue
			}
			out += fmt.Sprintf("why: %s: %d late, %d dropped, top cause %s\n",
				cp.Class, cp.Late, cp.Dropped, cp.Top)
		}
	}
	return out
}

// Run executes the scenario free-running and returns the report.
func (s *Scenario) Run() (*Report, error) {
	in, err := s.Build()
	if err != nil {
		return nil, err
	}
	in.Sys.Run(in.End)
	return in.Finish(), nil
}

// Instance is a built scenario: the system with every stream, control
// loop and fault campaign wired and scheduled, not yet advanced. The
// caller drives Sys to End — Sys.Run(End), or a sim.Paced over Sys.K with
// an admin plane beside it — and then calls Finish.
type Instance struct {
	Sys *core.System
	// End is the kernel time the run stops at.
	End sim.Time
	// Loops are the installed control loops, in scenario order.
	Loops []*control.Loop

	rep  *Report
	camp *chaos.Campaign
	why  *causal.Analyzer
	// The first HRT stream's delivery times and slot period: the report's
	// period jitter.
	firstHRT  []sim.Time
	hrtPeriod sim.Duration
}

// stream is one publisher → subscriber relation of the scenario, whatever
// its class: what Build wires at start-up and re-wires when a chaos
// restart hands a station a fresh middleware (the old handles die with
// the crash).
type stream struct {
	class     core.Class
	subject   binding.Subject
	pub, sub  int
	announce  core.ChannelAttrs
	subscribe core.ChannelAttrs
	notify    core.NotificationHandler
	// inbox lists the streams of the stream's class and subject that end
	// at its subscriber, itself included (see wireSub).
	inbox *[]*stream
	// ch is an SRT or NRT publisher's current handle, one per stream so
	// that several publishers of one subject each send from their own
	// station; nil until announced (an admission-rejected stream never
	// is). The HRT round publisher keeps its own.
	ch core.Channel
	// restart re-announces on the publisher's fresh middleware: wirePub,
	// or the HRT round publisher's Restart, which also re-anchors it.
	restart func(*core.Middleware) error
}

// wirePub announces the stream on its publisher's middleware and keeps
// the handle.
func (st *stream) wirePub(mw *core.Middleware) error {
	ch, err := Announce(mw, st.class, st.subject, st.announce, nil)
	if err == nil {
		st.ch = ch
	}
	return err
}

// wireSub subscribes on the stream's subscriber station. core keeps one
// notification handler per channel and station, so every stream of the
// inbox subscribes the same dispatch: it hands a delivery to the stream
// whose publisher sent it.
func (st *stream) wireSub(mw *core.Middleware) error {
	return Subscribe(mw, st.class, st.subject, st.subscribe, func(ev core.Event, di core.DeliveryInfo) {
		for _, o := range *st.inbox {
			if can.TxNode(o.pub) == di.Publisher {
				o.notify(ev, di)
				return
			}
		}
	}, nil)
}

// Build validates the scenario and turns it into a wired Instance: the
// calendar planned from the HRT streams, the system, one publish loop per
// stream, the control loops and the chaos campaign.
func (s *Scenario) Build() (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// A chaos campaign needs the stage trace: the invariant checkers replay
	// it after the run.
	if s.Chaos != nil {
		if s.Observe == nil {
			s.Observe = obs.Default()
		} else if !s.Observe.Trace {
			cp := *s.Observe
			cp.Trace = true
			s.Observe = &cp
		}
	}
	if s.FlightRecords > 0 {
		if s.Observe == nil {
			s.Observe = &obs.Config{}
		}
		cp := *s.Observe
		cp.FlightRecords = s.FlightRecords
		cp.FlightDir = s.FlightDir
		s.Observe = &cp
	}
	// The SLO engine reads every input from the metrics side; the why
	// engine needs the registry for its canec_why_* families. Both force
	// metrics on.
	if s.SLO != nil || s.Why != nil {
		if s.Observe == nil {
			s.Observe = &obs.Config{}
		}
		cp := *s.Observe
		cp.Metrics = true
		if s.SLO != nil {
			cp.SLO = s.SLO.sloConfig()
		}
		s.Observe = &cp
	}
	// Calendar from the HRT streams via the planner.
	var cal *calendar.Calendar
	calCfg := calendar.DefaultConfig()
	if s.OmissionDegree > 0 {
		calCfg.OmissionDegree = s.OmissionDegree
	}
	reqs := make([]calendar.Request, len(s.HRT))
	for i, h := range s.HRT {
		reqs[i] = calendar.Request{
			Subject:   h.Subject,
			Publisher: can.TxNode(h.Publisher),
			Payload:   h.Payload + 1, // middleware header byte
			Period:    sim.Duration(h.PeriodUs) * sim.Microsecond,
			Periodic:  true,
		}
	}
	// Control loops riding HRT channels reserve their own slots.
	loopCfgs := make([]control.LoopConfig, len(s.Control))
	for i, c := range s.Control {
		lc, err := c.loopConfig()
		if err != nil {
			return nil, err
		}
		loopCfgs[i] = lc
		reqs = append(reqs, lc.CalendarRequests()...)
	}
	if len(reqs) > 0 {
		var err error
		cal, err = calendar.Plan(calCfg, reqs)
		if err != nil {
			return nil, err
		}
	}
	var admCfg *prob.AdmissionConfig
	if a := s.Admission; a != nil {
		admCfg = &prob.AdmissionConfig{
			Targets: prob.ClassTargets{SRT: a.SRTTarget, NRT: a.NRTTarget},
			Analyzer: prob.Analyzer{Model: prob.ErrorModel{
				ErrorRate: a.ErrorRate, OmissionRate: a.OmissionRate,
				VictimProb: a.VictimProb, Receivers: s.Nodes,
			}},
		}
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: s.Nodes, Seed: s.Seed, Calendar: cal,
		Admission:        admCfg,
		Sync:             clock.DefaultSyncConfig(),
		Master:           s.SyncMaster,
		SyncBackups:      s.SyncBackups,
		MaxDriftPPM:      s.MaxDriftPPM,
		MaxInitialOffset: 200 * sim.Microsecond,
		ConfineFaults:    s.ConfineFaults,
		Observe:          s.Observe,
	})
	if err != nil {
		return nil, err
	}
	if s.FaultRate > 0 {
		sys.Bus.Injector = can.RandomErrors{Rate: s.FaultRate}
	}
	dur := sim.Duration(s.DurationMs) * sim.Millisecond
	end := sys.Cfg.Epoch + dur
	rep := &Report{
		Name:       s.Name,
		HRTLatency: stats.NewSeries("hrt"),
		SRTLatency: stats.NewSeries("srt"),
		Elapsed:    dur,
	}
	in := &Instance{Sys: sys, End: end - 600*sim.Microsecond, rep: rep}
	if s.Why != nil {
		in.why = causal.New(s.Why.causalConfig(sys.Obs.Registry()))
		sys.Obs.AttachCausal(in.why)
	}
	var lc *core.Lifecycle
	if s.Chaos != nil {
		lc = core.NewLifecycle(sys)
		in.camp, err = chaos.NewCampaign(sys, lc, *s.Chaos)
		if err != nil {
			return nil, err
		}
		if s.ConfineFaults {
			// Under a chaos campaign the lifecycle supervisor owns bus-off
			// recovery: the spec observation time plus anti-flap backoff,
			// whose declared bound the invariant checkers assert against.
			lc.EnableBusOffRecovery(core.DefaultBusOffPolicy())
		}
	}
	// down gates application publishing: the application on a crashed
	// station is dead with it.
	down := func(n int) bool { return lc != nil && lc.Down(n) }
	mw := func(n int) *core.Middleware { return sys.Node(n).MW }
	// rejected reports a typed admission rejection, an expected outcome of
	// an over-admission scenario: the stream or loop runs out of the mix
	// instead of failing the whole scenario.
	rejected := func(err error, what string) bool {
		var admErr *core.AdmissionError
		if !errors.As(err, &admErr) {
			return false
		}
		rep.Rejected = append(rep.Rejected, fmt.Sprintf("%s: %s (predicted miss %.3g, target %.3g)",
			what, admErr.Reason, admErr.MissProb, admErr.Target))
		return true
	}

	var streams []*stream
	// add lists a stream and joins the inbox of the streams of its
	// channel that end at the same station.
	add := func(st *stream) {
		st.inbox = new([]*stream)
		for _, o := range streams {
			if o.class == st.class && o.subject == st.subject && o.sub == st.sub {
				st.inbox = o.inbox
				break
			}
		}
		*st.inbox = append(*st.inbox, st)
		streams = append(streams, st)
	}
	for i, h := range s.HRT {
		attrs := core.ChannelAttrs{Payload: h.Payload, Periodic: true}
		// The stream's own slot times it: a subject with several
		// publishers has one slot per publisher (§3.1).
		self := can.TxNode(h.Publisher)
		var slot calendar.Slot
		for _, sl := range cal.SlotsForSubject(h.Subject) {
			if sl.Publisher == self {
				slot = sl
				break
			}
		}
		st := &stream{
			class: core.HRT, subject: binding.Subject(h.Subject), pub: h.Publisher, sub: h.Subscriber,
			subscribe: attrs,
			notify: func(_ core.Event, di core.DeliveryInfo) {
				if h.Payload >= 7 {
					rep.HRTLatency.ObserveDuration(di.DeliveredAt - di.PublishedAt)
				}
				if i == 0 {
					in.firstHRT = append(in.firstHRT, di.DeliveredAt)
				}
			},
		}
		add(st)
		if i == 0 {
			in.hrtPeriod = slot.Period(cal.Round)
		}
		// The publish task is host software on the publisher's clock, 300 µs
		// before its slot: it dies with a crash and restart re-anchors it.
		p := &RoundPub{Sys: sys, Slot: slot, Attrs: attrs, At: slot.Ready - 300*sim.Microsecond, End: end, Lifecycle: lc,
			Payload: h.RoundPayload}
		if p.Payload == nil {
			p.Payload = func(int64) []byte { return Stamp(sys.K, h.Payload) }
		}
		if err := p.Start(); err != nil {
			return nil, err
		}
		st.restart = p.Restart
		if err := st.wireSub(mw(st.sub)); err != nil {
			return nil, err
		}
	}

	for _, r := range s.SRT {
		st := &stream{
			class: core.SRT, subject: binding.Subject(r.Subject), pub: r.Publisher, sub: r.Subscriber,
			notify: func(ev core.Event, di core.DeliveryInfo) {
				if len(ev.Payload) >= 7 {
					rep.SRTLatency.ObserveDuration(di.DeliveredAt - di.PublishedAt)
				}
			},
		}
		st.restart = st.wirePub // a rejected stream is retried, with no loop
		if s.Admission != nil {
			// Under admission control the channel must declare its law:
			// the analyzer admits it against this period and deadline.
			st.announce = core.ChannelAttrs{
				Payload:     r.Payload,
				Period:      sim.Duration(r.MeanPeriodUs) * sim.Microsecond,
				RelDeadline: sim.Duration(r.DeadlineUs) * sim.Microsecond,
			}
		}
		add(st)
		if err := st.wirePub(mw(st.pub)); rejected(err, fmt.Sprintf("srt 0x%x", r.Subject)) {
			continue
		} else if err != nil {
			return nil, err
		}
		if err := st.wireSub(mw(st.sub)); err != nil {
			return nil, err
		}
		f := &SRTPub{Sys: sys, Node: st.pub, Subject: st.subject, Ch: st.ch,
			Gap: sim.Duration(r.MeanPeriodUs) * sim.Microsecond, Poisson: r.Sporadic,
			Deadline: sim.Duration(r.DeadlineUs) * sim.Microsecond, Expiration: sim.Duration(r.ExpirationUs) * sim.Microsecond,
			End: end, Lifecycle: lc,
			Payload: func(sim.Time) []byte {
				if r.Payload < 7 {
					return make([]byte, r.Payload)
				}
				return Stamp(sys.K, r.Payload)
			}}
		f.Start(sys.Cfg.Epoch)
		// The loop publishes on the handle a restart re-announced.
		st.restart = func(fresh *core.Middleware) error {
			err := st.wirePub(fresh)
			f.Ch = st.ch
			return err
		}
	}

	for _, b := range s.NRT {
		st := &stream{
			class: core.NRT, subject: binding.Subject(b.Subject), pub: b.Publisher, sub: b.Subscriber,
			announce:  core.ChannelAttrs{Prio: can.Prio(b.Prio), Fragmentation: true},
			subscribe: core.ChannelAttrs{Fragmentation: true},
			notify:    func(ev core.Event, _ core.DeliveryInfo) { rep.NRTBytes += len(ev.Payload) },
		}
		st.restart = st.wirePub
		add(st)
		if err := st.wirePub(mw(st.pub)); err != nil {
			return nil, err
		}
		if err := st.wireSub(mw(st.sub)); err != nil {
			return nil, err
		}
		var send func()
		send = func() {
			if sys.K.Now() >= end {
				return
			}
			if !down(st.pub) {
				st.ch.Publish(core.Event{Subject: st.subject, Payload: make([]byte, b.Bytes)})
			}
			if b.RepeatMs > 0 {
				sys.K.After(sim.Duration(b.RepeatMs)*sim.Millisecond, send)
			}
		}
		sys.K.At(sys.Cfg.Epoch, send)
	}

	// Closed control loops: the plant physics tick on the kernel for the
	// whole run, while the sensor/controller/actuator software legs ride
	// real channels and die/rewire with their stations like any other
	// scenario application.
	for _, lcfg := range loopCfgs {
		lp, err := control.NewLoop(lcfg, sys.Obs)
		if err != nil {
			return nil, err
		}
		if err := lp.Install(sys.K, sys.Cfg.Epoch, end, mw, down); rejected(err, "control "+lcfg.Name) {
			continue
		} else if err != nil {
			return nil, err
		}
		in.Loops = append(in.Loops, lp)
	}

	if lc != nil {
		lc.OnRestart = func(n int, fresh *core.Middleware) {
			for _, st := range streams {
				if st.pub == n {
					_ = st.restart(fresh)
				}
				if st.sub == n {
					_ = st.wireSub(fresh)
				}
			}
			for _, lp := range in.Loops {
				if lp.Hosts(n) {
					lp.Rewire(n, fresh)
				}
			}
		}
		in.camp.Install()
	}
	return in, nil
}

// Finish collects the report once the caller has driven Sys to End.
func (in *Instance) Finish() *Report {
	sys, rep := in.Sys, in.rep
	rep.Counters = sys.TotalCounters()
	rep.Utilization = sys.Utilization()
	rep.Obs = sys.Obs
	if in.camp != nil {
		cr := in.camp.Finish(0)
		rep.Chaos = &cr
	}
	if sys.Admission != nil {
		snap := sys.Admission.Snapshot()
		rep.Admission = &snap
	}
	for _, lp := range in.Loops {
		rep.Control = append(rep.Control, lp.Report())
	}
	if sys.SLO != nil {
		rep.SLO = sys.SLO.Snapshot()
	}
	if in.why != nil {
		snap := in.why.Snapshot()
		rep.Why = &snap
	}
	if len(in.firstHRT) > 1 {
		rep.HRTJitter = stats.PeriodJitter(in.firstHRT, in.hrtPeriod)
	}
	return rep
}
