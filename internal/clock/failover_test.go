package clock

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// failoverCfg is a fast sync configuration for failover tests: 20 ms
// rounds, 2 missed rounds tolerated.
func failoverCfg(maxDriftPPM float64) SyncConfig {
	cfg := DefaultSyncConfig()
	cfg.Period = 20 * sim.Millisecond
	cfg.MaxDriftPPM = maxDriftPPM
	cfg.FailoverRounds = 2
	return cfg
}

// detach simulates a master crash at kernel time at.
func detach(k *sim.Kernel, bus *can.Bus, node int, at sim.Time) {
	k.At(at, func() { bus.Controller(node).Detach() })
}

// failoverRig is syncRig plus access to the bus for detaching stations.
func failoverRig(t *testing.T, n int, cfg SyncConfig, maxDriftPPM float64, seed uint64) (*sim.Kernel, *can.Bus, []*Clock, *Syncer) {
	t.Helper()
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	clocks := make([]*Clock, n)
	for i := 0; i < n; i++ {
		drift := (k.RNG().Float64()*2 - 1) * maxDriftPPM
		off := k.RNG().Jitter(500 * sim.Microsecond)
		clocks[i] = New(drift, off)
		bus.Attach(can.TxNode(i))
	}
	s := NewSyncer(k, bus, cfg, 0, clocks)
	for i := 0; i < n; i++ {
		i := i
		bus.Controller(i).OnReceive = func(f can.Frame, at sim.Time) {
			if f.ID.Etag() == cfg.Etag {
				s.HandleFrame(i, f, at)
			}
		}
	}
	return k, bus, clocks, s
}

// TestFailoverPromotesHighestRankedBackup: after the master falls silent,
// the rank-0 backup takes over within (FailoverRounds+1) periods plus one
// watchdog tick, and followers re-converge on the new master.
func TestFailoverPromotesHighestRankedBackup(t *testing.T) {
	cfg := failoverCfg(100)
	k, bus, clocks, s := failoverRig(t, 6, cfg, 100, 21)
	s.SetBackups([]int{3, 4})
	var takeAt sim.Time
	var takeMaster int
	s.OnTakeover = func(m int, at sim.Time) { takeMaster, takeAt = m, at }
	s.Start()

	kill := sim.Time(500 * sim.Millisecond)
	detach(k, bus, 0, kill)
	k.Run(2 * sim.Second)

	if s.Takeovers != 1 || s.Master != 3 {
		t.Fatalf("takeovers=%d master=%d, want 1 / 3", s.Takeovers, s.Master)
	}
	if takeMaster != 3 {
		t.Fatalf("OnTakeover master = %d, want 3", takeMaster)
	}
	window := sim.Duration(cfg.FailoverRounds+2) * cfg.Period
	if takeAt-kill > window {
		t.Fatalf("takeover %v after kill, want ≤ %v", takeAt-kill, window)
	}
	// Followers re-converged under the new master: pairwise skew within the
	// precision bound again.
	bound := PrecisionBound(cfg, 100)
	live := []*Clock{clocks[1], clocks[2], clocks[3], clocks[4], clocks[5]}
	if sk := MaxSkew(2*sim.Second, live); sk > bound {
		t.Fatalf("post-failover skew %v exceeds precision bound %v", sk, bound)
	}
}

// TestFailoverSkipsDeadBackup: with the first backup dead too, the second
// backup takes over after its (one round longer) threshold.
func TestFailoverSkipsDeadBackup(t *testing.T) {
	cfg := failoverCfg(100)
	k, bus, _, s := failoverRig(t, 6, cfg, 100, 22)
	s.SetBackups([]int{3, 4})
	s.Down = func(i int) bool { return i == 3 && k.Now() >= 500*sim.Millisecond }
	s.Start()

	detach(k, bus, 0, 500*sim.Millisecond)
	detach(k, bus, 3, 500*sim.Millisecond)
	k.Run(2 * sim.Second)

	if s.Takeovers != 1 || s.Master != 4 {
		t.Fatalf("takeovers=%d master=%d, want 1 / 4", s.Takeovers, s.Master)
	}
}

// TestHoldoverEntryAndExit: followers enter holdover after the master goes
// silent and leave it with the first correction from the new master.
func TestHoldoverEntryAndExit(t *testing.T) {
	cfg := failoverCfg(100)
	cfg.FailoverRounds = 5 // long window so holdover is observable first
	k, bus, _, s := failoverRig(t, 4, cfg, 100, 23)
	s.SetBackups([]int{2})
	enters := make(map[int]int)
	exits := make(map[int]int)
	s.OnHoldover = func(node int, enter bool, _ sim.Time) {
		if enter {
			enters[node]++
		} else {
			exits[node]++
		}
	}
	s.Start()

	kill := sim.Time(500 * sim.Millisecond)
	detach(k, bus, 0, kill)
	probe := kill + 4*cfg.Period
	k.Run(probe)
	for _, n := range []int{1, 2, 3} {
		if !s.inHoldover[n] {
			t.Fatalf("node %d not in holdover %v after master silence", n, 4*cfg.Period)
		}
	}
	// Uncertainty grows beyond the steady-state precision during holdover.
	if u := s.Uncertainty(1, probe); u <= PrecisionBound(cfg, cfg.MaxDriftPPM) {
		t.Fatalf("holdover uncertainty %v did not grow past the precision bound", u)
	}
	k.Run(2 * sim.Second)
	if s.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", s.Takeovers)
	}
	for _, n := range []int{1, 3} { // 2 became master; it exits via takeover
		if s.inHoldover[n] {
			t.Fatalf("node %d still in holdover after failover", n)
		}
		if enters[n] != 1 || exits[n] != 1 {
			t.Fatalf("node %d holdover enter/exit = %d/%d, want 1/1", n, enters[n], exits[n])
		}
	}
}

// TestNoBackwardStepAcrossTakeover: follower clocks never step backward
// across a master switch — the new master pre-steps its own clock by the
// holdover uncertainty, so every follower's first correction under it is
// forward. Quantization is disabled to make the property exact rather than
// statistical.
func TestNoBackwardStepAcrossTakeover(t *testing.T) {
	cfg := failoverCfg(100)
	cfg.Quantization = 0
	k, bus, clocks, s := failoverRig(t, 6, cfg, 100, 24)
	s.SetBackups([]int{3})
	s.Start()

	kill := sim.Time(500 * sim.Millisecond)
	detach(k, bus, 0, kill)
	// Sample every follower's local clock densely across the failover; any
	// backward step between consecutive samples is a violation.
	prev := make([]sim.Time, len(clocks))
	for at := kill - 10*sim.Millisecond; at <= kill+10*cfg.Period; at += 100 * sim.Microsecond {
		at := at
		k.At(at, func() {
			for i, c := range clocks {
				if i == 0 {
					continue
				}
				now := c.Read(k.Now())
				if now < prev[i] {
					t.Errorf("node %d local clock stepped backward at %v: %v -> %v", i, k.Now(), prev[i], now)
				}
				prev[i] = now
			}
		})
	}
	k.Run(2 * sim.Second)
	if s.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1 (failover never exercised)", s.Takeovers)
	}
}

// TestHoldoverUncertaintyModel pins the formula: flat at the precision
// bound through one period, then linear growth at 2·d_max.
func TestHoldoverUncertaintyModel(t *testing.T) {
	cfg := SyncConfig{Period: 100 * sim.Millisecond, Quantization: sim.Microsecond, MaxDriftPPM: 100}
	base := PrecisionBound(cfg, 100)
	if got := HoldoverUncertainty(cfg, 0); got != base {
		t.Fatalf("U(0) = %v, want %v", got, base)
	}
	if got := HoldoverUncertainty(cfg, cfg.Period); got != base {
		t.Fatalf("U(Period) = %v, want %v", got, base)
	}
	elapsed := cfg.Period + 500*sim.Millisecond
	// 2·d_max·(elapsed−Period) = 100 µs of extra uncertainty; the runtime
	// float product may truncate by up to 1 ns.
	want := base + sim.Duration(2*100e-6*float64(500*sim.Millisecond))
	if got := HoldoverUncertainty(cfg, elapsed); got < want-sim.Duration(1) || got > want {
		t.Fatalf("U(Period+500ms) = %v, want %v (±1ns)", got, want)
	}
}
