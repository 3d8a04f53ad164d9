package control

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
	"canec/internal/stats"
)

// Wire encoding: signed 24-bit fixed point, scale 2048 (≈0.5 milli-unit
// resolution, range ±4096), little endian. The sensor frame fits an HRT
// channel's 7 application bytes: sequence byte + position + rate.
const (
	fixScale = 2048.0
	fixLimit = float64(1<<23-1) / fixScale

	sensorPayload  = 7 // seq + fixed24 position + fixed24 rate
	commandPayload = 4 // seq + fixed24 input
	ackPayload     = 4 // seq + fixed24 applied input
)

// Quadratic cost weights shared by the QoC measure and the MPC objective:
// position error dominates, rate and input are regularised.
const (
	costQPos = 1.0
	costQVel = 0.01
	costRU   = 1e-4
)

// Loop dimensions. substeps is the number of plant integration ticks per
// sampling period: commands latch at substep resolution, so sub-period
// delivery latency is visible in the cost. mpcHorizon is the MPC
// prediction horizon — the input's authority over position grows with
// the square of the lookahead, so short horizons leave a double
// integrator underactuated (PID has none). uMax saturates the commanded
// input.
const (
	substeps   = 4
	mpcHorizon = 16
	uMax       = 200
)

func putFix24(dst []byte, v float64) {
	if v > fixLimit {
		v = fixLimit
	} else if v < -fixLimit {
		v = -fixLimit
	}
	n := int32(v * fixScale)
	dst[0] = byte(n)
	dst[1] = byte(n >> 8)
	dst[2] = byte(n >> 16)
}

func getFix24(src []byte) float64 {
	n := int32(src[0]) | int32(src[1])<<8 | int32(src[2])<<16
	n = n << 8 >> 8 // sign extend
	return float64(n) / fixScale
}

// LoopConfig describes one closed sensor → controller → actuator loop.
type LoopConfig struct {
	// Name labels the loop in reports, metrics and trace records.
	Name string
	// Plant selects the physical model (PlantDoubleIntegrator or
	// plantThermal); Controller the control law (ControllerPID or
	// controllerMPC).
	Plant      string
	Controller string
	// Class is the channel class the sensor and command legs ride;
	// AckClass the class of the optional actuator-ack leg.
	Class    core.Class
	AckClass core.Class
	// Sensor, ControllerNode and Actuator are the hosting stations. The
	// plant itself is physics: it keeps evolving even while its stations
	// are crashed — only the loop around it goes blind.
	Sensor, ControllerNode, Actuator int
	// SensorSubject and CommandSubject are the two event channels the
	// loop requires; AckSubject (0 disables) adds the actuator ack leg.
	SensorSubject, CommandSubject, AckSubject uint64
	// Period is the sensor sampling period (and the HRT slot period when
	// the loop rides HRT channels).
	Period sim.Duration
	// Setpoint is the reference for the plant output; Initial the
	// plant's starting output (rate starts at zero).
	Setpoint, Initial float64
}

// Validate checks everything except node ranges (the caller knows the
// segment size; scenario validates node references with NodeRefError).
func (cfg *LoopConfig) Validate() error {
	if cfg.Name == "" {
		return fmt.Errorf("control: loop needs a name")
	}
	if cfg.Period <= 0 {
		return fmt.Errorf("control: loop %q: non-positive period", cfg.Name)
	}
	if cfg.SensorSubject == 0 || cfg.CommandSubject == 0 {
		return fmt.Errorf("control: loop %q: sensor and command subjects required", cfg.Name)
	}
	if cfg.SensorSubject == cfg.CommandSubject || cfg.SensorSubject == cfg.AckSubject ||
		cfg.CommandSubject == cfg.AckSubject {
		return fmt.Errorf("control: loop %q: subjects must be distinct", cfg.Name)
	}
	switch cfg.Plant {
	case PlantDoubleIntegrator, plantThermal:
	default:
		return fmt.Errorf("control: loop %q: unknown plant %q", cfg.Name, cfg.Plant)
	}
	switch cfg.Controller {
	case ControllerPID, controllerMPC:
	default:
		return fmt.Errorf("control: loop %q: unknown controller %q", cfg.Name, cfg.Controller)
	}
	switch cfg.Class {
	case core.HRT, core.SRT, core.NRT:
	default:
		return fmt.Errorf("control: loop %q: invalid class", cfg.Name)
	}
	return nil
}

// CalendarRequests returns the HRT slot reservations the loop's legs
// need; nil when no leg rides HRT. Callers merge these into the slot
// calendar before building the system.
func (cfg LoopConfig) CalendarRequests() []calendar.Request {
	var reqs []calendar.Request
	if cfg.Class == core.HRT {
		reqs = append(reqs,
			calendar.Request{Subject: cfg.SensorSubject, Publisher: can.TxNode(cfg.Sensor),
				Payload: sensorPayload + 1, Period: cfg.Period, Periodic: true},
			calendar.Request{Subject: cfg.CommandSubject, Publisher: can.TxNode(cfg.ControllerNode),
				Payload: commandPayload + 1, Period: cfg.Period, Periodic: true})
	}
	if cfg.AckSubject != 0 && cfg.AckClass == core.HRT {
		reqs = append(reqs, calendar.Request{Subject: cfg.AckSubject, Publisher: can.TxNode(cfg.Actuator),
			Payload: ackPayload + 1, Period: cfg.Period, Periodic: true})
	}
	return reqs
}

// Loop is one installed closed loop. All methods run in kernel context.
type Loop struct {
	cfg LoopConfig
	o   *obs.Observer
	// name is the loop's name as the detail of its stage records.
	name obs.Detail

	k     *sim.Kernel
	epoch sim.Time
	end   sim.Time
	down  func(int) bool

	model Model // substep-dt integration model
	x     [2]float64
	ctl   controller

	// Zero-order hold: the actuator drives the plant with the last
	// latched command until a newer one arrives.
	heldU        float64
	heldSampleAt sim.Time

	seq      uint8
	sampleAt [256]sim.Time // kernel publish time per sequence number

	pubSensor  func(p []byte) error
	pubCommand func(p []byte) error
	pubAck     func(p []byte) error

	qoc     QoC
	band    float64 // settling band around the setpoint
	hold    sim.Duration
	lastOut sim.Time // last substep the output was outside the band
	e0      float64  // initial error (overshoot normalisation)
}

// NewLoop builds a loop from its config. The observer may be nil.
func NewLoop(cfg LoopConfig, o *obs.Observer) (*Loop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dtSub := cfg.Period / substeps
	model, err := plantModel(cfg.Plant, dtSub)
	if err != nil {
		return nil, err
	}
	l := &Loop{
		cfg:   cfg,
		o:     o,
		name:  obs.Text(cfg.Name),
		model: model,
		x:     [2]float64{cfg.Initial, 0},
		band:  0.02 * maxf(absf(cfg.Setpoint-cfg.Initial), 1),
		hold:  maxd(10*cfg.Period, 50*sim.Millisecond),
		e0:    cfg.Setpoint - cfg.Initial,
	}
	l.qoc.Loop = cfg.Name
	l.qoc.Class = cfg.Class.String()
	l.qoc.Latency = stats.NewLogHistogram("lat_us_"+cfg.Name, 1, 1e6, 60)
	switch cfg.Controller {
	case ControllerPID:
		// Gains tuned per plant for a fast, well-damped nominal loop.
		// The double-integrator bandwidth scales with the sampling rate
		// (ωn = 0.25/T, ζ = 0.7): the loop tolerates the ~1–2 periods of
		// transport delay a healthy channel adds, while delays of many
		// periods — a congested or attacked bus — visibly erode the
		// phase margin, which is exactly what the QoC measure exposes.
		if cfg.Plant == PlantDoubleIntegrator {
			wn := 0.25 / secs(cfg.Period)
			l.ctl = &pid{kp: wn * wn, kd: 1.4 * wn, dt: secs(cfg.Period), umax: uMax, rate: true}
		} else {
			l.ctl = &pid{kp: 8, ki: 30, dt: secs(cfg.Period), umax: uMax}
		}
	case controllerMPC:
		// The MPC predicts over the sampling period, not the substep.
		pm, err := plantModel(cfg.Plant, cfg.Period)
		if err != nil {
			return nil, err
		}
		l.ctl, err = newMPC(pm, mpcHorizon, [2]float64{costQPos, costQVel}, costRU, uMax)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Deviation returns the instantaneous absolute deviation of the plant
// output from the setpoint (kernel context; wired as a metrics gauge).
func (l *Loop) Deviation() float64 { return absf(l.cfg.Setpoint - l.x[0]) }

// Install announces and subscribes all legs on their hosting stations
// (mw maps a station index to its middleware — indices may span bridged
// segments), registers the deviation gauge, and starts the plant ticker:
// physics run from epoch to end regardless of station crashes, while
// down gates the software legs like any scenario application.
func (l *Loop) Install(k *sim.Kernel, epoch, end sim.Time, mw func(int) *core.Middleware, down func(int) bool) error {
	l.k, l.epoch, l.end = k, epoch, end
	l.lastOut = epoch
	l.heldSampleAt = epoch
	l.down = down
	if l.down == nil {
		l.down = func(int) bool { return false }
	}
	if err := l.wireSensor(mw(l.cfg.Sensor)); err != nil {
		return err
	}
	if err := l.wireController(mw(l.cfg.ControllerNode)); err != nil {
		return err
	}
	if err := l.wireActuator(mw(l.cfg.Actuator)); err != nil {
		return err
	}
	l.o.RegisterControlLoop(l.cfg.Name, l.Deviation)

	dtSub := l.cfg.Period / substeps
	step := 0
	var tick func()
	tick = func() {
		now := k.Now()
		if now >= end {
			return
		}
		if step > 0 {
			l.substep(now, dtSub)
		}
		if step%substeps == 0 {
			l.sample(now)
		}
		step++
		k.After(dtSub, tick)
	}
	k.At(epoch, tick)
	return nil
}

// Rewire re-announces and re-subscribes every leg hosted on station n
// after a chaos restart handed it a fresh middleware.
func (l *Loop) Rewire(n int, mw *core.Middleware) {
	if l.cfg.Sensor == n {
		_ = l.wireSensor(mw)
	}
	if l.cfg.ControllerNode == n {
		_ = l.wireController(mw)
	}
	if l.cfg.Actuator == n {
		_ = l.wireActuator(mw)
	}
}

// Hosts reports whether the loop has a leg on station n (callers use it
// to route restart notifications).
func (l *Loop) Hosts(n int) bool {
	return l.cfg.Sensor == n || l.cfg.ControllerNode == n || l.cfg.Actuator == n
}

// substep advances the plant by dt under the held command and accrues
// the quadratic cost and staleness accounting.
func (l *Loop) substep(now sim.Time, dt sim.Duration) {
	l.model.step(&l.x, l.heldU)
	l.qoc.Steps++
	e := l.cfg.Setpoint - l.x[0]
	delta := (costQPos*e*e + costQVel*l.x[1]*l.x[1] + costRU*l.heldU*l.heldU) * secs(dt)
	l.qoc.Cost += delta
	l.o.ControlCost(l.cfg.Name, delta)

	dev := absf(e)
	if dev > l.qoc.MaxDev {
		l.qoc.MaxDev = dev
	}
	// Overshoot: excursion past the setpoint on the far side of the
	// initial error.
	if l.e0 != 0 {
		exc := -e
		if l.e0 < 0 {
			exc = e
		}
		if exc > l.qoc.Overshoot*absf(l.e0) {
			l.qoc.Overshoot = exc / absf(l.e0)
		}
	}
	if dev > l.band {
		l.lastOut = now
	}
	// A command held for more than two sampling periods is stale.
	if now-l.heldSampleAt > sim.Time(2*l.cfg.Period) {
		l.qoc.Stale++
		l.o.Emit(0, obs.StageCtrlStale, l.cfg.Class.Obs(), l.cfg.Actuator, 0, now, l.name)
	}
}

// sample publishes the current plant state on the sensor channel.
func (l *Loop) sample(now sim.Time) {
	if l.down(l.cfg.Sensor) || l.pubSensor == nil {
		return
	}
	l.seq++
	l.sampleAt[l.seq] = now
	p := make([]byte, sensorPayload)
	p[0] = l.seq
	putFix24(p[1:], l.x[0])
	putFix24(p[4:], l.x[1])
	if l.pubSensor(p) == nil {
		l.qoc.Samples++
		l.o.Emit(0, obs.StageCtrlSample, l.cfg.Class.Obs(), l.cfg.Sensor, 0, now, l.name)
	}
}

// onSample is the controller's notification handler: compute the input
// from the delivered state and publish the command, echoing the sample's
// sequence number so the actuator can attribute latency to the sample.
func (l *Loop) onSample(ev core.Event, _ core.DeliveryInfo) {
	if l.down(l.cfg.ControllerNode) || len(ev.Payload) < sensorPayload || l.pubCommand == nil {
		return
	}
	x := [2]float64{getFix24(ev.Payload[1:]), getFix24(ev.Payload[4:])}
	u := l.ctl.command(x, l.cfg.Setpoint)
	p := make([]byte, commandPayload)
	p[0] = ev.Payload[0]
	putFix24(p[1:], u)
	if l.pubCommand(p) == nil {
		l.qoc.Commands++
		l.o.Emit(0, obs.StageCtrlCommand, l.cfg.Class.Obs(), l.cfg.ControllerNode, 0, l.k.Now(), l.name)
	}
}

// onCommand is the actuator's notification handler — the zero-order-hold
// hot path, allocation-free when the ack leg is off: latch the command,
// attribute the sample→actuate latency through the sequence ring.
func (l *Loop) onCommand(ev core.Event, _ core.DeliveryInfo) {
	if l.down(l.cfg.Actuator) || len(ev.Payload) < commandPayload {
		return
	}
	now := l.k.Now()
	seq := ev.Payload[0]
	l.heldU = getFix24(ev.Payload[1:])
	l.qoc.Applied++
	if at := l.sampleAt[seq]; at > 0 && now >= at {
		us := float64(now-at) / 1e3
		l.qoc.Latency.Observe(us)
		l.o.ControlLatency(l.cfg.Name, us)
		l.heldSampleAt = at
	}
	l.o.Emit(0, obs.StageCtrlApply, l.cfg.Class.Obs(), l.cfg.Actuator, 0, now, l.name)
	if l.pubAck != nil {
		p := make([]byte, ackPayload)
		p[0] = seq
		putFix24(p[1:], l.heldU)
		_ = l.pubAck(p) // counted on delivery at the controller (qoc.Acks)
	}
}

// onAck counts ack deliveries back at the controller.
func (l *Loop) onAck(ev core.Event, _ core.DeliveryInfo) {
	if len(ev.Payload) >= 1 {
		l.qoc.Acks++
	}
}

func (l *Loop) wireSensor(mw *core.Middleware) error {
	pub, err := l.announce(mw, l.cfg.SensorSubject, l.cfg.Class, sensorPayload)
	if err != nil {
		return err
	}
	l.pubSensor = pub
	return nil
}

func (l *Loop) wireController(mw *core.Middleware) error {
	if err := l.subscribe(mw, l.cfg.SensorSubject, l.cfg.Class, sensorPayload, l.onSample); err != nil {
		return err
	}
	pub, err := l.announce(mw, l.cfg.CommandSubject, l.cfg.Class, commandPayload)
	if err != nil {
		return err
	}
	l.pubCommand = pub
	if l.cfg.AckSubject != 0 {
		if err := l.subscribe(mw, l.cfg.AckSubject, l.cfg.AckClass, ackPayload, l.onAck); err != nil {
			return err
		}
	}
	return nil
}

func (l *Loop) wireActuator(mw *core.Middleware) error {
	if err := l.subscribe(mw, l.cfg.CommandSubject, l.cfg.Class, commandPayload, l.onCommand); err != nil {
		return err
	}
	if l.cfg.AckSubject != 0 {
		pub, err := l.announce(mw, l.cfg.AckSubject, l.cfg.AckClass, ackPayload)
		if err != nil {
			return err
		}
		l.pubAck = pub
	}
	return nil
}

// announce opens and announces one publishing leg and returns its publish
// closure. The class decides what the leg declares and stamps: SRT events
// carry the loop period as deadline (and twice it as expiration — a command
// two periods old is worthless, shed it on the wire), HRT rides its
// calendar slot, NRT runs best-effort at the band's default priority.
func (l *Loop) announce(mw *core.Middleware, subject uint64, class core.Class, payload int) (func(p []byte) error, error) {
	subj := binding.Subject(subject)
	ch, err := mw.Channel(class, subj)
	if err != nil {
		return nil, err
	}
	period := l.cfg.Period
	attrs := core.ChannelAttrs{Payload: payload, Periodic: class == core.HRT}
	if class == core.SRT {
		attrs.Period, attrs.RelDeadline = period, period
	}
	if err := ch.Announce(attrs, nil); err != nil {
		return nil, err
	}
	return func(p []byte) error {
		ev := core.Event{Subject: subj, Payload: p}
		if class == core.SRT {
			now := mw.LocalTime()
			ev.Attrs = core.EventAttrs{Deadline: now + period, Expiration: now + 2*period}
		}
		return ch.Publish(ev)
	}, nil
}

func (l *Loop) subscribe(mw *core.Middleware, subject uint64, class core.Class, payload int, notify core.NotificationHandler) error {
	ch, err := mw.Channel(class, binding.Subject(subject))
	if err != nil {
		return err
	}
	// An SRT subscriber declares nothing: deadlines are the publisher's.
	var attrs core.ChannelAttrs
	if class != core.SRT {
		attrs = core.ChannelAttrs{Payload: payload, Periodic: class == core.HRT}
	}
	return ch.Subscribe(attrs, core.SubscribeAttrs{}, notify, nil)
}

// Report returns the loop's QoC snapshot: final after the run, live when
// read mid-run (kernel context — admin handlers route through
// sim.Paced.Call).
func (l *Loop) Report() QoC {
	q := l.qoc
	now := l.end
	if l.k != nil && l.k.Now() < now {
		now = l.k.Now()
	}
	span := now - l.epoch
	if span > 0 {
		q.CostPerSec = q.Cost / secs(sim.Duration(span))
	}
	q.FinalDev = l.Deviation()
	q.Settled = now-l.lastOut >= sim.Time(l.hold)
	q.SettlingTime = sim.Duration(l.lastOut - l.epoch)
	q.Latency = l.qoc.Latency.Clone()
	return q
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxd(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}
