package clock

import (
	"testing"

	"canec/internal/sim"
)

func TestScheduleLocalUnregistersAfterFiring(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	fired := 0
	scheduleLocal(k, c, 10*sim.Millisecond, func() { fired++ })
	k.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Adjustments after firing must not re-trigger the callback.
	c.AdjustBy(k.Now(), 50*sim.Millisecond)
	k.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("fired again after unregistration: %d", fired)
	}
	if live := liveTimers(c); live != 0 {
		t.Fatalf("timers leaked: %d", live)
	}
}

func TestScheduleLocalForwardJumpFiresPromptly(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	var fired sim.Time
	scheduleLocal(k, c, 10*sim.Millisecond, func() { fired = k.Now() })
	// At 2 ms true time the clock jumps forward past the target.
	k.At(2*sim.Millisecond, func() { c.AdjustBy(k.Now(), 20*sim.Millisecond) })
	k.RunUntilIdle()
	if fired != 2*sim.Millisecond {
		t.Fatalf("fired at %v, want immediately at the jump (2ms)", fired)
	}
}

func TestScheduleLocalManyTimersOneAdjustment(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	fired := make([]sim.Time, 0, 10)
	for i := 1; i <= 10; i++ {
		target := sim.Time(i) * 10 * sim.Millisecond
		scheduleLocal(k, c, target, func() { fired = append(fired, k.Now()) })
	}
	// A backward adjustment at 35 ms delays everything by 5 ms of local
	// time; all pending timers must re-arm and still fire in order, at or
	// after their local targets.
	k.At(35*sim.Millisecond, func() { c.AdjustBy(k.Now(), -5*sim.Millisecond) })
	k.RunUntilIdle()
	if len(fired) != 10 {
		t.Fatalf("fired = %d", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatal("timers fired out of order after adjustment")
		}
	}
	// Timers past the adjustment fire 5 ms later in true time.
	if fired[9] != 105*sim.Millisecond {
		t.Fatalf("last timer at %v, want 105ms", fired[9])
	}
	if live := liveTimers(c); live != 0 {
		t.Fatalf("timers leaked: %d", live)
	}
}

func TestSetToNotifiesWatchers(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	var fired sim.Time
	scheduleLocal(k, c, 10*sim.Millisecond, func() { fired = k.Now() })
	k.At(sim.Millisecond, func() { c.SetTo(k.Now(), 9500*sim.Microsecond) })
	k.RunUntilIdle()
	// After SetTo, local lags true by 8.5ms... local(1ms)=9.5ms, target
	// 10ms arrives 0.5ms later in true time.
	if fired != 1500*sim.Microsecond {
		t.Fatalf("fired at %v, want 1.5ms", fired)
	}
}

func TestWatcherAddDuringNotify(t *testing.T) {
	// A watcher that schedules a new local timer (adding a watcher) while
	// being notified must not corrupt the notification pass.
	k := sim.NewKernel(1)
	c := New(0, 0)
	fired := 0
	scheduleLocal(k, c, 5*sim.Millisecond, func() {
		fired++
		scheduleLocal(k, c, 15*sim.Millisecond, func() { fired++ })
	})
	k.At(sim.Millisecond, func() { c.AdjustBy(k.Now(), 10*sim.Millisecond) })
	k.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
}
