package core

import (
	"fmt"

	"canec/internal/binding"
	"canec/internal/calendar"
	"canec/internal/can"
	"canec/internal/clock"
	"canec/internal/obs"
	"canec/internal/prob"
	"canec/internal/sim"
)

// SystemConfig assembles a complete simulated CAN segment: bus, drifting
// clocks with synchronization, the hard real-time calendar and one
// middleware per node.
type SystemConfig struct {
	// Nodes is the number of stations (TxNode i for station i).
	Nodes int
	// Seed drives all randomness (clock drifts, fault injection,
	// workloads using the kernel RNG). Ignored when Kernel is supplied.
	Seed uint64
	// Kernel, if non-nil, hosts this segment on an existing simulation
	// kernel so that several bus segments (e.g. bridged by a gateway)
	// share one virtual time base.
	Kernel *sim.Kernel
	// Bands is the priority layout; zero value selects DefaultBands.
	Bands Bands
	// Calendar is the validated HRT schedule (nil if no HRT channels).
	Calendar *calendar.Calendar
	// Epoch is the synchronized local time of calendar round 0. It should
	// leave room for clock synchronization to converge; defaultEpoch is
	// used when zero and synchronization is enabled.
	Epoch sim.Time
	// Sync configures clock synchronization; a zero Period disables it
	// (all clocks then free-run, which is only sensible with zero drift).
	Sync clock.SyncConfig
	// Master is the station acting as initial time master (default 0).
	Master int
	// SyncBackups ranks the backup time masters for failover; empty keeps
	// the single-master configuration of the paper.
	SyncBackups []int
	// MaxDriftPPM bounds the per-node clock rate error; each node draws
	// uniformly from ±MaxDriftPPM.
	MaxDriftPPM float64
	// MaxInitialOffset bounds the initial clock offsets (uniform ±).
	MaxInitialOffset sim.Duration
	// NoSuppressRedundancy disables the paper's bandwidth reclamation of
	// redundant HRT copies (then OmissionDegree+1 copies are always sent,
	// TTP-style).
	NoSuppressRedundancy bool
	// ConfineFaults enables CAN 2.0 fault confinement on the bus: TEC/REC
	// error counters, error-passive degradation and bus-off with the
	// 128×11-recessive-bit recovery rule. Off by default — the paper's
	// experiments assume error-active controllers throughout.
	ConfineFaults bool
	// Injector is the fault model (nil = fault-free).
	Injector can.Injector
	// Admission, if non-nil, installs the probabilistic admission
	// controller: SRT/NRT channels are analyzed at announce time against
	// the configured per-class deadline-miss targets, and the admitted
	// set is re-evaluated when error-state transitions (error-passive,
	// bus-off, guardian isolation) raise the measured error rate. HRT
	// channels stay deterministic (calendar-dimensioned) and bypass it.
	// The analyzer's reserved HRT interference defaults from Calendar when
	// left empty.
	Admission *prob.AdmissionConfig
	// Observe opts the system into the observability layer (life-cycle
	// tracing and/or metrics); nil keeps every instrumentation point a
	// single nil check.
	Observe *obs.Config
}

// defaultEpoch leaves three synchronization periods for convergence
// before calendar round 0.
func defaultEpoch(sync clock.SyncConfig) sim.Time {
	return 3 * sync.Period
}

// System is a fully wired simulation instance.
type System struct {
	K      *sim.Kernel
	Bus    *can.Bus
	Nodes  []*Node
	Clocks []*clock.Clock
	Syncer *clock.Syncer
	Cfg    SystemConfig
	// Bindings is the shared (statically distributed) subject→etag table.
	Bindings *binding.Table
	// Obs is the observability layer (nil unless Cfg.Observe was set).
	Obs *obs.Observer
	// SLO is the objective engine (nil unless Cfg.Observe.SLO was set).
	SLO *obs.SLO
	// Admission is the probabilistic admission controller (nil unless
	// Cfg.Admission was set).
	Admission *prob.Controller
}

// NewSystem builds and validates a system. The caller typically announces
// and subscribes channels next, then calls Run.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("core: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Nodes > can.MaxTxNode {
		return nil, fmt.Errorf("core: %d nodes exceed the 7-bit TxNode space", cfg.Nodes)
	}
	if (cfg.Bands == Bands{}) {
		cfg.Bands = DefaultBands()
	}
	if err := cfg.Bands.Validate(); err != nil {
		return nil, err
	}
	if cfg.Calendar != nil {
		if err := cfg.Calendar.Admit(); err != nil {
			return nil, err
		}
	}
	if cfg.Sync.Period > 0 {
		cfg.Sync.Prio = cfg.Bands.SyncPrio
		cfg.Sync.Etag = binding.SyncEtag
		if cfg.Sync.MaxDriftPPM == 0 {
			cfg.Sync.MaxDriftPPM = cfg.MaxDriftPPM
		}
		if cfg.Epoch == 0 {
			cfg.Epoch = defaultEpoch(cfg.Sync)
		}
		if cfg.Master < 0 || cfg.Master >= cfg.Nodes {
			return nil, fmt.Errorf("core: sync master station %d of %d", cfg.Master, cfg.Nodes)
		}
		for _, b := range cfg.SyncBackups {
			if b < 0 || b >= cfg.Nodes || b == cfg.Master {
				return nil, fmt.Errorf("core: sync backup station %d invalid", b)
			}
		}
	}

	k := cfg.Kernel
	if k == nil {
		k = sim.NewKernel(cfg.Seed)
	}
	bus := can.NewBus(k, can.DefaultBitRate)
	bus.ConfineFaults = cfg.ConfineFaults
	if cfg.Injector != nil {
		bus.Injector = cfg.Injector
	}
	sys := &System{K: k, Bus: bus, Cfg: cfg, Bindings: binding.NewTable()}
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if err := ac.Analyzer.Model.Validate(); err != nil {
			return nil, fmt.Errorf("core: admission error model: %w", err)
		}
		if len(ac.Reserved) == 0 && cfg.Calendar != nil {
			// The calendar's HRT slots are deterministic interference every
			// probabilistic channel must yield to (P_HRT < P_SRT < P_NRT).
			ac.Reserved = ReservedFromCalendar(cfg.Calendar)
		}
		sys.Admission = prob.NewController(ac, k.Now)
	}
	if cfg.Observe != nil {
		sys.Obs = obs.New(*cfg.Observe, k.Now, obs.BandMap{
			HRT: cfg.Bands.HRTPrio, Sync: cfg.Bands.SyncPrio,
			SRTMin: cfg.Bands.SRT.Min, SRTMax: cfg.Bands.SRT.Max,
			NRTMin: cfg.Bands.NRTMin, NRTMax: cfg.Bands.NRTMax,
		})
		sys.Obs.SubjectOf = func(e can.Etag) (uint64, bool) {
			s, ok := sys.Bindings.SubjectOf(e)
			return uint64(s), ok
		}
		sys.Obs.InstallBus(bus)
		if cfg.Observe.SLO != nil {
			// Note: the engine keeps a tick pending, so SLO-enabled systems
			// must be driven with Run(horizon), never RunUntilIdle.
			sloCfg := *cfg.Observe.SLO
			if sys.Admission != nil && sloCfg.SRTPredictedMiss == nil {
				// Close the admission loop: the analyzer's predicted SRT
				// miss probability becomes the dynamic burn-rate budget
				// the measured miss rate is checked against.
				sloCfg.SRTPredictedMiss = func() float64 {
					return sys.Admission.PredictedMiss("SRT")
				}
			}
			sys.SLO = sys.Obs.StartSLO(k, sloCfg)
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		drift := 0.0
		if cfg.MaxDriftPPM > 0 {
			drift = (k.RNG().Float64()*2 - 1) * cfg.MaxDriftPPM
		}
		var off sim.Duration
		if cfg.MaxInitialOffset > 0 {
			off = k.RNG().Jitter(cfg.MaxInitialOffset)
		}
		clk := clock.New(drift, off)
		sys.Nodes = append(sys.Nodes, &Node{Index: i, Ctrl: bus.Attach(can.TxNode(i)), Clock: clk})
		sys.Clocks = append(sys.Clocks, clk)
	}

	if cfg.Sync.Period > 0 {
		sys.Syncer = clock.NewSyncer(k, bus, cfg.Sync, cfg.Master, sys.Clocks)
		if len(cfg.SyncBackups) > 0 {
			sys.Syncer.SetBackups(cfg.SyncBackups)
		}
		sys.Syncer.OnTakeover = func(m int, at sim.Time) {
			sys.Obs.Emit(0, obs.StageMasterTakeover, 0, m, 0, at, obs.DetailTimeMaster)
		}
		sys.Syncer.OnHoldover = func(n int, enter bool, at sim.Time) {
			stage := obs.StageHoldoverExit
			if enter {
				stage = obs.StageHoldoverEnter
			}
			sys.Obs.Emit(0, stage, 0, n, 0, at, 0)
		}
	}

	for i, node := range sys.Nodes {
		sys.newMiddleware(node).Bindings = sys.Bindings
		if sys.Obs != nil {
			// The gauges close over the node, not the middleware: a node
			// restart installs a fresh middleware and the metrics must
			// follow it.
			ctrl := node.Ctrl
			sys.Obs.RegisterQueueDepth(i, "hrt", func() int { return node.MW.hrtQueuedTotal() })
			sys.Obs.RegisterQueueDepth(i, "srt", func() int { return node.MW.srtQueuedTotal() })
			sys.Obs.RegisterQueueDepth(i, "nrt", func() int { return node.MW.nrtQueuedTotal() })
			sys.Obs.RegisterErrorState(i,
				func() int { return ctrl.TEC() },
				func() int { return ctrl.REC() },
				func() int { return int(ctrl.State()) })
		}
	}

	if sys.Admission != nil {
		// Re-evaluate the admitted set when the wire stops behaving like
		// the planned error model: fault-confinement state transitions
		// (error-passive, bus-off — degradations only) and guardian
		// isolation. Both hooks chain whatever was installed before them.
		prevES := bus.OnErrorState
		bus.OnErrorState = func(ctrl int, old, new can.ErrorState, at sim.Time) {
			if prevES != nil {
				prevES(ctrl, old, new, at)
			}
			if new > old {
				sys.reviseAdmission()
			}
		}
		prevTrace := bus.Trace
		bus.Trace = func(e can.TraceEvent) {
			if prevTrace != nil {
				prevTrace(e)
			}
			if e.Kind == can.TraceGuardIsolate {
				sys.reviseAdmission()
			}
		}
	}

	if sys.Syncer != nil {
		sys.Syncer.Start()
	}
	return sys, nil
}

// newMiddleware installs a fresh middleware on station node with the
// settings every incarnation of it shares: NewSystem builds the first one,
// Lifecycle.Restart the one after each crash.
func (s *System) newMiddleware(node *Node) *Middleware {
	mw := &Middleware{
		K:                  s.K,
		node:               node,
		bands:              s.Cfg.Bands,
		Bindings:           binding.NewTable(),
		Cal:                s.Cfg.Calendar,
		Epoch:              s.Cfg.Epoch,
		SuppressRedundancy: !s.Cfg.NoSuppressRedundancy,
		Obs:                s.Obs,
		Admission:          s.Admission,
	}
	node.MW = mw
	node.Ctrl.OnReceive = mw.dispatch
	// The controller filter starts selective with the two system channels
	// admitted; each Subscribe adds its channel's etag. Subject filtering
	// thus happens in the communication controller, not the node CPU —
	// the dynamic-binding optimisation of §2.1.
	node.Ctrl.AddFilter(binding.SyncEtag)
	node.Ctrl.AddFilter(binding.ConfigEtag)
	if s.Syncer != nil {
		mw.Syncer = s.Syncer
		mw.Health = s.Syncer
	}
	return mw
}

// Node returns station i.
func (s *System) Node(i int) *Node { return s.Nodes[i] }

// Run advances the simulation to the given kernel time.
func (s *System) Run(until sim.Time) { s.K.Run(until) }

// TotalCounters sums the per-node middleware counters.
func (s *System) TotalCounters() Counters {
	var t Counters
	for _, n := range s.Nodes {
		c := n.MW.Counters()
		t.PublishedHRT += c.PublishedHRT
		t.PublishedSRT += c.PublishedSRT
		t.PublishedNRT += c.PublishedNRT
		t.DeliveredHRT += c.DeliveredHRT
		t.DeliveredSRT += c.DeliveredSRT
		t.DeliveredNRT += c.DeliveredNRT
		t.SlotsFired += c.SlotsFired
		t.SlotsUnused += c.SlotsUnused
		t.RedundantCopiesSent += c.RedundantCopiesSent
		t.CopiesSuppressed += c.CopiesSuppressed
		t.DuplicatesDropped += c.DuplicatesDropped
		t.SlotMissed += c.SlotMissed
		t.DeadlineMissed += c.DeadlineMissed
		t.Expired += c.Expired
		t.Shed += c.Shed
		t.Overflows += c.Overflows
		t.TxFailures += c.TxFailures
		t.FragErrors += c.FragErrors
		t.LateHRTDeliveries += c.LateHRTDeliveries
		t.PromotionsApplied += c.PromotionsApplied
		t.HoldoverWidened += c.HoldoverWidened
		t.AdmissionAdmitted += c.AdmissionAdmitted
		t.AdmissionRejected += c.AdmissionRejected
		t.AdmissionShed += c.AdmissionShed
	}
	return t
}

// Utilization returns the fraction of elapsed time the bus was busy.
func (s *System) Utilization() float64 {
	if s.K.Now() == 0 {
		return 0
	}
	return float64(s.Bus.Stats().BusyTime) / float64(s.K.Now())
}
