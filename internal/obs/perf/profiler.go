// Package perf provides performance observability for the canec stack:
// a kernel profiler that attributes wall-clock cost of the
// publish→deliver chain to named stages, and a benchmark trajectory
// recorder with a regression gate (see bench.go / compare.go).
//
// The profiler follows the same zero-cost-when-nil discipline as
// obs.Observer: every instrumented site performs exactly one nil check
// when no profiler is attached, and the methods on a nil *Profiler are
// safe no-ops, so a typed-nil accidentally stored in an interface still
// cannot crash the kernel.
package perf

import (
	"runtime"

	"canec/internal/obs"
	"canec/internal/sim"
)

// stageCell aggregates one (stage, class) bucket. Padding is deliberately
// absent: the kernel is single-threaded, so there is no false sharing to
// defend against, and a compact array keeps the whole table in one or two
// cache lines.
type stageCell struct {
	ops    uint64
	wallNs int64
}

// Profiler implements sim.Probe. It attributes the wall-clock cost of the
// publish→deliver chain to named stages (enqueue, heap, arbitration,
// codec, dispatch, delivery), split by traffic class where the stage
// knows it, and keeps kernel health counters: events per second, heap
// depth high-water, idle-vs-busy virtual time, and allocations per
// delivered frame. Op counts are exact; stage times are the kernel's
// sampled, exclusive estimates (see sim.Probe).
//
// A Profiler is strictly single-toucher, like everything else that runs
// in kernel context. Attach it with AttachKernel from outside the run
// (or under Paced.Call), and read Snapshot the same way.
type Profiler struct {
	cells [sim.NumProbeStages][sim.NumProbeClasses]stageCell

	k    *sim.Kernel
	busy func() sim.Duration // optional: bus-busy virtual time source

	// Baselines captured at AttachKernel so a profiler attached to a
	// long-lived kernel reports rates for its own observation window.
	epochWallNs int64
	epochSteps  uint64
	mallocs0    uint64
	totals0     sim.ProbeTotals
}

// StageNs records wallNs nanoseconds of wall-clock time spent in stage s
// for traffic class c, and counts one operation. Delivery-stage calls
// double as the delivered-frame counter. Nil-receiver safe.
func (p *Profiler) StageNs(s sim.ProbeStage, c sim.ProbeClass, wallNs int64) {
	if p == nil {
		return
	}
	cell := &p.cells[s][c]
	cell.ops++
	cell.wallNs += wallNs
}

// AttachKernel installs the profiler as the kernel's probe and captures
// rate baselines (wall clock, kernel steps, cumulative mallocs). It is
// the single wiring point: the bus and the middleware discover the probe
// through the kernel, so attaching here instruments the whole chain.
func (p *Profiler) AttachKernel(k *sim.Kernel) {
	if p == nil || k == nil {
		return
	}
	p.k = k
	p.epochWallNs = sim.ProbeNow()
	p.epochSteps = k.Profile().Steps
	p.totals0 = k.ProbeTotals()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs0 = ms.Mallocs
	k.SetProbe(p)
}

// SetBusySource supplies a function reporting cumulative bus-busy virtual
// time, used to split virtual time into busy vs idle in Snapshot. The
// can.Bus BusyTime method is the intended source.
func (p *Profiler) SetBusySource(fn func() sim.Duration) {
	if p == nil {
		return
	}
	p.busy = fn
}

// StageSnap is the aggregate for one (stage, class) bucket: every op
// counted, WallNs the sampled estimate of its exclusive wall time and
// Samples the timed ops behind it. For the heap stage, Ops counts
// pushes, cancels and pops but WallNs covers pops only (see
// sim.ProbeHeap).
type StageSnap struct {
	Stage   string `json:"stage"`
	Class   string `json:"class"`
	Ops     uint64 `json:"ops"`
	Samples uint64 `json:"samples"`
	WallNs  int64  `json:"wall_ns"`
}

// Snapshot is a point-in-time view of the profiler, cheap enough to take
// on every admin-plane poll. All rates are computed over the window since
// AttachKernel.
type Snapshot struct {
	Stages []StageSnap `json:"stages"`
	// StepWallNs estimates the wall time of the kernel's steps (plus
	// the stage windows timed outside any step) and UnattributedNs the
	// part of it no stage covers. The stages' WallNs and UnattributedNs
	// add up to StepWallNs. TimedSteps is the number of samples behind
	// both.
	StepWallNs     int64  `json:"step_wall_ns"`
	UnattributedNs int64  `json:"unattributed_ns"`
	TimedSteps     uint64 `json:"timed_steps"`

	// Kernel health.
	Steps         uint64  `json:"steps"`
	EventsPerSec  float64 `json:"events_per_sec"`
	HeapHighWater int     `json:"heap_high_water"`
	Pending       int     `json:"pending"`
	NowVirtualNs  int64   `json:"now_virtual_ns"`
	IdleVirtualNs int64   `json:"idle_virtual_ns"`
	BusyVirtualNs int64   `json:"busy_virtual_ns"`

	// Delivery accounting. Delivered counts delivery-stage probe ops;
	// AllocsPerDelivered is cumulative heap allocations (all causes, the
	// profiler cannot attribute them) divided by delivered frames.
	Delivered          uint64  `json:"delivered"`
	AllocsPerDelivered float64 `json:"allocs_per_delivered"`
	WindowWallNs       int64   `json:"window_wall_ns"`
}

// Snapshot captures the current profile. Call from kernel context (or
// while the kernel is quiescent); the profiler is single-toucher.
// A nil profiler returns a zero Snapshot.
func (p *Profiler) Snapshot() Snapshot {
	var snap Snapshot
	if p == nil {
		return snap
	}
	var tot sim.ProbeTotals
	if p.k != nil {
		tot = p.k.ProbeTotals()
		snap.StepWallNs = tot.WallNs - p.totals0.WallNs
		snap.UnattributedNs = tot.UnattributedNs - p.totals0.UnattributedNs
		snap.TimedSteps = tot.TimedSteps - p.totals0.TimedSteps
	}
	for s := 0; s < int(sim.NumProbeStages); s++ {
		for c := 0; c < int(sim.NumProbeClasses); c++ {
			cell := p.cells[s][c]
			if cell.ops == 0 {
				continue
			}
			snap.Stages = append(snap.Stages, StageSnap{
				Stage:   sim.ProbeStage(s).String(),
				Class:   sim.ProbeClass(c).String(),
				Ops:     cell.ops,
				Samples: tot.Samples[s][c] - p.totals0.Samples[s][c],
				WallNs:  cell.wallNs,
			})
			if sim.ProbeStage(s) == sim.ProbeDelivery {
				snap.Delivered += cell.ops
			}
		}
	}
	snap.WindowWallNs = sim.ProbeNow() - p.epochWallNs
	if p.k != nil {
		kp := p.k.Profile()
		snap.Steps = kp.Steps - p.epochSteps
		snap.HeapHighWater = kp.HeapHighWater
		snap.Pending = kp.Pending
		snap.NowVirtualNs = int64(kp.Now)
		snap.IdleVirtualNs = int64(kp.IdleVirtual)
		if p.busy != nil {
			snap.BusyVirtualNs = int64(p.busy())
		}
		if snap.WindowWallNs > 0 {
			snap.EventsPerSec = float64(snap.Steps) / (float64(snap.WindowWallNs) / 1e9)
		}
	}
	if snap.Delivered > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		snap.AllocsPerDelivered = float64(ms.Mallocs-p.mallocs0) / float64(snap.Delivered)
	}
	return snap
}

// Register exposes the profiler through an obs.Registry so the admin
// plane's /metrics endpoint (and canecstat) can see it. The gauges are
// GaugeFuncs over Snapshot-equivalent reads, so registration is done once
// and the values stay live.
func (p *Profiler) Register(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	for s := 0; s < int(sim.NumProbeStages); s++ {
		for c := 0; c < int(sim.NumProbeClasses); c++ {
			cell := &p.cells[s][c]
			labels := obs.Labels{
				"stage": sim.ProbeStage(s).String(),
				"class": sim.ProbeClass(c).String(),
			}
			reg.GaugeFunc("canec_profile_stage_busy_nanoseconds",
				"Wall-clock nanoseconds attributed to a publish→deliver stage.",
				labels, func() float64 { return float64(cell.wallNs) })
			reg.GaugeFunc("canec_profile_stage_ops",
				"Operations counted in a publish→deliver stage.",
				labels, func() float64 { return float64(cell.ops) })
		}
	}
	reg.GaugeFunc("canec_profile_events_per_second",
		"Kernel events processed per wall-clock second since profiler attach.",
		nil, func() float64 { return p.Snapshot().EventsPerSec })
	reg.GaugeFunc("canec_profile_heap_high_water",
		"High-water mark of the kernel event-heap depth.",
		nil, func() float64 {
			if p.k == nil {
				return 0
			}
			return float64(p.k.Profile().HeapHighWater)
		})
	reg.GaugeFunc("canec_profile_idle_virtual_nanoseconds",
		"Virtual nanoseconds the kernel spent idle (clock jumps with no due event).",
		nil, func() float64 {
			if p.k == nil {
				return 0
			}
			return float64(p.k.Profile().IdleVirtual)
		})
	reg.GaugeFunc("canec_profile_allocs_per_frame",
		"Cumulative heap allocations divided by delivered frames.",
		nil, func() float64 { return p.Snapshot().AllocsPerDelivered })
}
