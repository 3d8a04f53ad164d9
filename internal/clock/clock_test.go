package clock

import (
	"math"
	"testing"
	"testing/quick"

	"canec/internal/can"
	"canec/internal/sim"
)

// OffsetAt returns local − true at the given true time: the clock's
// instantaneous error against the reference time base.
func (c *Clock) OffsetAt(now sim.Time) sim.Duration {
	return c.Read(now) - now
}

func TestClockDriftAdvance(t *testing.T) {
	c := New(100, 0) // +100 ppm
	got := c.Read(1 * sim.Second)
	want := sim.Time(1*sim.Second) + 100*sim.Microsecond
	if got != want {
		t.Fatalf("Read(1s) = %v, want %v", got, want)
	}
}

func TestClockInitialOffset(t *testing.T) {
	c := New(0, 5*sim.Millisecond)
	if c.Read(0) != 5*sim.Millisecond {
		t.Fatalf("Read(0) = %v", c.Read(0))
	}
	if c.OffsetAt(0) != 5*sim.Millisecond {
		t.Fatalf("OffsetAt = %v", c.OffsetAt(0))
	}
}

func TestClockAdjustBy(t *testing.T) {
	c := New(50, 2*sim.Millisecond)
	c.AdjustBy(1*sim.Second, -c.OffsetAt(1*sim.Second))
	if off := c.OffsetAt(1 * sim.Second); off != 0 {
		t.Fatalf("offset after correction = %v", off)
	}
	// Drift keeps accumulating after the adjustment.
	off := c.OffsetAt(2 * sim.Second)
	if off < 49*sim.Microsecond || off > 51*sim.Microsecond {
		t.Fatalf("offset 1s after correction = %v, want ≈50µs", off)
	}
}

func TestWhenLocalInverse(t *testing.T) {
	f := func(driftPPM int16, offMs int16, targetMs uint16) bool {
		c := New(float64(driftPPM%500), sim.Duration(offMs)*sim.Millisecond)
		local := sim.Time(targetMs)*sim.Millisecond + 10*sim.Second
		tt := c.WhenLocal(0, local)
		if tt == 0 {
			// Clamped: the local target already passed.
			return c.Read(0) >= local-2
		}
		// Reading at the returned true time must be within 1 ns·(1+drift)
		// of the target (ceil rounding).
		diff := float64(c.Read(tt) - local)
		return diff >= 0 && diff <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWhenLocalNeverPast(t *testing.T) {
	c := New(0, 1*sim.Second) // local runs 1s ahead
	if got := c.WhenLocal(500, 100); got != 500 {
		t.Fatalf("WhenLocal for past local time = %v, want now", got)
	}
}

func TestMaxSkew(t *testing.T) {
	clocks := []*Clock{New(0, 0), New(0, 30*sim.Microsecond), New(0, -10*sim.Microsecond)}
	if got := MaxSkew(0, clocks); got != 40*sim.Microsecond {
		t.Fatalf("MaxSkew = %v, want 40µs", got)
	}
	if MaxSkew(0, nil) != 0 {
		t.Fatal("MaxSkew(nil) != 0")
	}
}

func TestScheduleLocalFiresAtLocalTime(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(200, 0) // fast clock: local 10ms arrives before true 10ms
	var fired sim.Time
	scheduleLocal(k, c, 10*sim.Millisecond, func() { fired = k.Now() })
	k.RunUntilIdle()
	if fired == 0 {
		t.Fatal("never fired")
	}
	if c.Read(fired) < 10*sim.Millisecond {
		t.Fatalf("fired before local target: local=%v", c.Read(fired))
	}
	if fired >= 10*sim.Millisecond {
		t.Fatalf("fast clock should fire before true 10ms, fired at %v", fired)
	}
}

func TestScheduleLocalSurvivesAdjustment(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 5*sim.Millisecond) // local ahead: naive target would fire early
	var fired sim.Time
	scheduleLocal(k, c, 10*sim.Millisecond, func() { fired = k.Now() })
	// At true 2ms, sync pulls the clock back to true time.
	k.At(2*sim.Millisecond, func() { c.AdjustBy(k.Now(), -c.OffsetAt(k.Now())) })
	k.RunUntilIdle()
	if c.Read(fired) < 10*sim.Millisecond {
		t.Fatalf("fired at local %v, before target", c.Read(fired))
	}
	if fired < 9*sim.Millisecond {
		t.Fatalf("fired at true %v despite correction", fired)
	}
}

// syncRig builds a bus with n nodes, random drifts/offsets, and a running
// syncer whose frames are routed back into HandleFrame.
func syncRig(t *testing.T, n int, cfg SyncConfig, maxDriftPPM float64, seed uint64) (*sim.Kernel, []*Clock, *Syncer) {
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
	return k, clocks, s
}

func TestSyncConvergesToPrecisionBound(t *testing.T) {
	cfg := DefaultSyncConfig()
	const maxDrift = 100.0
	k, clocks, s := syncRig(t, 8, cfg, maxDrift, 7)
	s.Start()
	bound := PrecisionBound(cfg, maxDrift)
	// Sample the skew *during* the run (clock state is piecewise linear
	// since the last adjustment, so only live sampling is meaningful).
	var worst sim.Duration
	for at := sim.Time(500 * sim.Millisecond); at <= 2*sim.Second; at += 10 * sim.Millisecond {
		k.At(at, func() {
			if sk := MaxSkew(k.Now(), clocks); sk > worst {
				worst = sk
			}
		})
	}
	k.Run(2 * sim.Second)
	if s.Rounds < 10 {
		t.Fatalf("only %d sync rounds completed", s.Rounds)
	}
	if worst > bound {
		t.Fatalf("worst live skew %v exceeds analytical bound %v", worst, bound)
	}
}

func TestSyncPrecisionScalesWithPeriod(t *testing.T) {
	const maxDrift = 100.0
	measure := func(period sim.Duration) sim.Duration {
		cfg := DefaultSyncConfig()
		cfg.Period = period
		k, clocks, s := syncRig(t, 6, cfg, maxDrift, 11)
		s.Start()
		var worst sim.Duration
		// Sample skew at 1 ms intervals during the second half of the run.
		for at := sim.Time(2 * sim.Second); at <= 4*sim.Second; at += sim.Millisecond {
			at := at
			k.At(at, func() {
				if sk := MaxSkew(k.Now(), clocks); sk > worst {
					worst = sk
				}
			})
		}
		k.Run(4 * sim.Second)
		return worst
	}
	fast := measure(50 * sim.Millisecond)
	slow := measure(800 * sim.Millisecond)
	if fast >= slow {
		t.Fatalf("precision should improve with sync rate: fast=%v slow=%v", fast, slow)
	}
}

func TestSyncMasterIsReference(t *testing.T) {
	cfg := DefaultSyncConfig()
	k, clocks, s := syncRig(t, 4, cfg, 100, 13)
	s.Start()
	k.Run(1 * sim.Second)
	// All slaves track the master, so slave-vs-master offsets stay within
	// the precision bound even though master-vs-true may wander.
	bound := PrecisionBound(cfg, 100)
	m := clocks[0].Read(1 * sim.Second)
	for i := 1; i < 4; i++ {
		d := clocks[i].Read(1*sim.Second) - m
		if d < 0 {
			d = -d
		}
		if d > bound {
			t.Fatalf("slave %d skew vs master = %v > %v", i, d, bound)
		}
	}
}

func TestPrecisionBoundFormula(t *testing.T) {
	cfg := SyncConfig{Period: 100 * sim.Millisecond, Quantization: 1 * sim.Microsecond}
	got := PrecisionBound(cfg, 100)
	want := 4*sim.Microsecond + sim.Duration(2*100e-6*float64(100*sim.Millisecond)) + sim.Microsecond
	if got != want {
		t.Fatalf("PrecisionBound = %v, want %v", got, want)
	}
	// The paper's ΔG_min = 40 µs assumption must hold for the default
	// configuration: precision below the gap.
	if got > 40*sim.Microsecond {
		t.Fatalf("default-config precision %v exceeds the paper's 40µs gap", got)
	}
}

func TestClockReadMonotoneNoAdjust(t *testing.T) {
	f := func(driftPPM int16, a, b uint32) bool {
		c := New(float64(driftPPM%900), 0)
		ta, tb := sim.Time(a), sim.Time(b)
		if ta > tb {
			ta, tb = tb, ta
		}
		return c.Read(ta) <= c.Read(tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDriftPPMRoundTrip: New takes the rate error in ppm.
func TestDriftPPMRoundTrip(t *testing.T) {
	c := New(75.5, 0)
	if math.Abs(c.drift*1e6-75.5) > 1e-9 {
		t.Fatalf("drift = %v ppm", c.drift*1e6)
	}
}
