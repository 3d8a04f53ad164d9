package obs

import (
	"os"
	"strings"
	"testing"

	"canec/internal/sim"
)

// sloHarness drives an Observer + SLO engine on a bare kernel: a
// repeating task publishes SRT events and delivers a configurable
// fraction, missing the rest.
func sloHarness(t *testing.T, cfg SLOConfig, dir string) (*sim.Kernel, *Observer, *SLO) {
	t.Helper()
	k := sim.NewKernel(1)
	o := New(Config{Metrics: true, FlightRecords: 64, FlightDir: dir},
		k.Now, BandMap{})
	s := o.StartSLO(k, cfg)
	if s == nil {
		t.Fatal("StartSLO returned nil on a metrics-enabled observer")
	}
	return k, o, s
}

func TestSLOSRTMissBreachAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := SLOConfig{
		Interval:      10 * sim.Millisecond,
		ShortWindow:   100 * sim.Millisecond,
		LongWindow:    sim.Second,
		SRTMissBudget: 0.05,
	}
	k, o, s := sloHarness(t, cfg, dir)

	missing := false
	var step func()
	step = func() {
		id := o.Begin("SRT", 0, 0x42, k.Now())
		if missing {
			o.ExceptionRaised("DeadlineMissed")
			o.Emit(id, StageExpired, "SRT", 0, 0x42, k.Now(), "validity")
		} else {
			o.Delivered(id, "SRT", 1, 0x42, k.Now()+200*sim.Microsecond, "")
		}
		k.After(5*sim.Millisecond, step)
	}
	step()

	// Healthy phase: run past the long window, nothing may breach.
	k.Run(sim.Time(2 * sim.Second))
	for _, ob := range s.Snapshot() {
		if !ob.Evaluable || ob.Breached {
			t.Fatalf("healthy phase: objective %+v", ob)
		}
	}

	// Fault phase: every event misses; both windows must saturate.
	missing = true
	k.Run(sim.Time(4 * sim.Second))
	obs := s.Snapshot()
	if len(obs) != 1 {
		t.Fatalf("objectives = %d, want 1 (srt-miss-rate)", len(obs))
	}
	ob := obs[0]
	if !ob.Breached || ob.Breaches == 0 {
		t.Fatalf("srt-miss-rate did not breach: %+v", ob)
	}
	if ob.Long < 0.9 {
		t.Fatalf("long-window miss rate = %v, want ~1.0", ob.Long)
	}
	if !s.Breached() {
		t.Fatal("SLO.Breached() should be true")
	}

	// Breach evidence: counter, trace record, post-mortem dump.
	var sawBreachRec bool
	for _, r := range o.Flight().Snapshot() {
		if r.Stage == StageSLOBreach {
			sawBreachRec = true
			if !strings.Contains(r.Detail, "srt-miss-rate") {
				t.Fatalf("breach record detail = %q", r.Detail)
			}
		}
	}
	if !sawBreachRec {
		t.Fatal("no slo_breach record reached the flight recorder")
	}
	if len(s.LastDump) != 2 {
		t.Fatalf("LastDump = %v, want jsonl+trace pair", s.LastDump)
	}
	for _, p := range s.LastDump {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("post-mortem missing: %v", err)
		}
	}
	var promOut strings.Builder
	if err := o.Registry().WriteText(&promOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(promOut.String(), `canec_slo_breaches_total{objective="srt-miss-rate"}`) {
		t.Fatal("breach counter missing from exposition")
	}

	// Recovery phase: stop missing; after the long window drains the
	// breach must clear without another enter-transition.
	missing = false
	breaches := ob.Breaches
	k.Run(sim.Time(8 * sim.Second))
	ob = s.Snapshot()[0]
	if ob.Breached {
		t.Fatalf("breach did not clear after recovery: %+v", ob)
	}
	if ob.Breaches != breaches {
		t.Fatalf("breach flapped during recovery: %d -> %d", breaches, ob.Breaches)
	}
}

func TestSLOHRTJitterObjective(t *testing.T) {
	cfg := SLOConfig{
		Interval:          10 * sim.Millisecond,
		ShortWindow:       100 * sim.Millisecond,
		LongWindow:        sim.Second,
		HRTJitterBound:    50 * sim.Microsecond,
		HRTJitterQuantile: 0.99,
	}
	k, o, s := sloHarness(t, cfg, t.TempDir())

	jittery := false
	n := 0
	var step func()
	step = func() {
		n++
		id := o.Begin("HRT", 0, 0x10, k.Now())
		lat := 100 * sim.Microsecond // perfectly regular
		if jittery && n%2 == 0 {
			lat += 400 * sim.Microsecond // alternating: every delta is 400 µs
		}
		o.Delivered(id, "HRT", 1, 0x10, k.Now()+sim.Time(lat), "")
		k.After(2*sim.Millisecond, step)
	}
	step()

	k.Run(sim.Time(2 * sim.Second))
	ob := s.Snapshot()[0]
	if ob.Breached {
		t.Fatalf("regular delivery breached jitter objective: %+v", ob)
	}
	if ob.Short > 1 { // regular delivery: p99 jitter at the histogram floor
		t.Fatalf("short jitter = %v µs, want sub-µs", ob.Short)
	}

	jittery = true
	k.Run(sim.Time(4 * sim.Second))
	ob = s.Snapshot()[0]
	if !ob.Breached {
		t.Fatalf("jitter objective did not breach: %+v", ob)
	}
	if ob.Long < 300 {
		t.Fatalf("long-window p99 jitter = %v µs, want ~400", ob.Long)
	}
}

func TestSLONRTFloorAndWarmup(t *testing.T) {
	cfg := SLOConfig{
		Interval:       10 * sim.Millisecond,
		ShortWindow:    100 * sim.Millisecond,
		LongWindow:     sim.Second,
		NRTFloorPerSec: 50,
	}
	k, o, s := sloHarness(t, cfg, t.TempDir())

	// Warm-up: before the long window has a baseline nothing is
	// evaluable, even though zero NRT traffic flows.
	k.Run(sim.Time(500 * sim.Millisecond))
	ob := s.Snapshot()[0]
	if ob.Evaluable || ob.Breached {
		t.Fatalf("objective evaluable during warm-up: %+v", ob)
	}

	stop := false
	var step func()
	step = func() {
		if !stop {
			id := o.Begin("NRT", 0, 0x99, k.Now())
			o.Delivered(id, "NRT", 1, 0x99, k.Now()+sim.Time(sim.Millisecond), "")
		}
		k.After(5*sim.Millisecond, step) // 200/s while flowing
	}
	step()
	k.Run(sim.Time(3 * sim.Second))
	ob = s.Snapshot()[0]
	if !ob.Evaluable || ob.Breached {
		t.Fatalf("healthy NRT flow breached floor: %+v", ob)
	}
	if ob.Long < 150 || ob.Long > 250 {
		t.Fatalf("long NRT rate = %v ev/s, want ~200", ob.Long)
	}

	stop = true
	k.Run(sim.Time(6 * sim.Second))
	ob = s.Snapshot()[0]
	if !ob.Breached {
		t.Fatalf("NRT starvation did not breach floor: %+v", ob)
	}
}

func TestSLONilSafety(t *testing.T) {
	var s *SLO
	if s.Snapshot() != nil || s.Breached() {
		t.Fatal("nil SLO must be inert")
	}
	var o *Observer
	if o.StartSLO(sim.NewKernel(1), SLOConfig{}) != nil {
		t.Fatal("nil observer must not start an engine")
	}
	if o.Flight() != nil || o.JitterHist("HRT") != nil {
		t.Fatal("nil observer accessors must return nil")
	}
}
