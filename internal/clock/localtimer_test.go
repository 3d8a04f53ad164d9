package clock

import (
	"reflect"
	"testing"

	"canec/internal/sim"
)

// scheduleLocal arms a fresh one-shot timer: fn runs when c reads local.
func scheduleLocal(k *sim.Kernel, c *Clock, local sim.Time, fn func()) *LocalTimer {
	lt := new(LocalTimer)
	lt.Init(k, c, fn)
	lt.Arm(local)
	return lt
}

// liveTimers counts the timers the clock still tracks.
func liveTimers(c *Clock) int {
	n := 0
	for _, lt := range c.timers {
		if lt != nil {
			n++
		}
	}
	return n
}

func TestLocalTimerSemantics(t *testing.T) {
	const ms = sim.Millisecond
	cases := []struct {
		name   string
		offset sim.Duration // initial local − true
		target sim.Time
		adjAt  sim.Time // 0 = no correction
		adjBy  sim.Duration
		want   sim.Time // true time of the firing
	}{
		{name: "already due fires synchronously", offset: 20 * ms, target: 10 * ms, want: 0},
		{name: "undisturbed", target: 10 * ms, want: 10 * ms},
		{name: "backward correction re-arms", target: 10 * ms, adjAt: 4 * ms, adjBy: -3 * ms, want: 13 * ms},
		{name: "forward correction fires at the corrected instant", target: 10 * ms, adjAt: 4 * ms, adjBy: 3 * ms, want: 7 * ms},
		{name: "forward jump past the target fires at the jump", target: 10 * ms, adjAt: 2 * ms, adjBy: 20 * ms, want: 2 * ms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			c := New(0, tc.offset)
			fired := sim.Time(-1)
			var lt LocalTimer
			lt.Init(k, c, func() {
				if lt.Armed() {
					t.Error("Armed() inside the callback")
				}
				fired = k.Now()
			})
			if tc.adjAt > 0 {
				k.At(tc.adjAt, func() { c.AdjustBy(k.Now(), tc.adjBy) })
			}
			lt.Arm(tc.target)
			if tc.want == 0 && fired != 0 {
				t.Fatal("due target did not fire before Arm returned")
			}
			if tc.want != 0 && !lt.Armed() {
				t.Fatal("not armed after Arm")
			}
			k.RunUntilIdle()
			if fired != tc.want {
				t.Fatalf("fired at %v, want %v", fired, tc.want)
			}
			if lt.Armed() || liveTimers(c) != 0 || k.Pending() != 0 {
				t.Fatalf("left behind: armed %v, tracked %d, kernel %d", lt.Armed(), liveTimers(c), k.Pending())
			}
		})
	}
}

func TestLocalTimerStopAndRearm(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	fired := 0
	var lt LocalTimer
	lt.Init(k, c, func() { fired++ })
	lt.Arm(10 * sim.Millisecond)
	lt.Stop()
	lt.Stop() // idempotent
	if lt.Armed() || k.Pending() != 0 {
		t.Fatalf("after Stop: armed %v pending %d", lt.Armed(), k.Pending())
	}
	c.AdjustBy(0, 50*sim.Millisecond) // a stopped timer ignores corrections
	lt.Arm(70 * sim.Millisecond)
	lt.Arm(60 * sim.Millisecond) // re-arming replaces the target
	k.RunUntilIdle()
	if fired != 1 || k.Now() != 10*sim.Millisecond {
		t.Fatalf("fired %d at %v, want once at 10ms true (60ms local)", fired, k.Now())
	}
}

// A correction re-evaluates timers in arming order. A timer whose callback
// stops a later one must prevent that one from being re-evaluated (and
// fired) in the same pass; a timer armed from a callback must not be
// visited by the pass either.
func TestLocalTimerStopDuringNotify(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	var log []string
	var a, b, d, late LocalTimer
	late.Init(k, c, func() { log = append(log, "late") })
	a.Init(k, c, func() {
		log = append(log, "a")
		b.Stop()
		late.Arm(40 * sim.Millisecond)
	})
	b.Init(k, c, func() { log = append(log, "b") })
	d.Init(k, c, func() { log = append(log, "d") })
	a.Arm(10 * sim.Millisecond)
	b.Arm(10 * sim.Millisecond)
	d.Arm(10 * sim.Millisecond)
	k.At(sim.Millisecond, func() { c.AdjustBy(k.Now(), 20*sim.Millisecond) })
	k.Run(5 * sim.Millisecond)
	if want := []string{"a", "d"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v during the correction, want %v", log, want)
	}
	if b.Armed() || !late.Armed() {
		t.Fatalf("b armed %v, late armed %v", b.Armed(), late.Armed())
	}
	k.RunUntilIdle()
	if want := []string{"a", "d", "late"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	if len(c.timers) != 0 || c.holes != 0 {
		t.Fatalf("clock tracks %d entries, %d holes after all fired", len(c.timers), c.holes)
	}
}

// Timers due at the same instant fire in arming order, also after a
// mid-run correction cancelled and re-armed all of them: the order is a
// property of the slice, never of map iteration.
func TestLocalTimerOrderAcrossAdjustmentIsDeterministic(t *testing.T) {
	run := func() []int {
		k := sim.NewKernel(1)
		c := New(0, 0)
		var order []int
		timers := make([]LocalTimer, 8)
		for i := range timers {
			i := i
			timers[i].Init(k, c, func() { order = append(order, i) })
			timers[i].Arm(10 * sim.Millisecond)
		}
		// Stop and re-arm one so arming order differs from index order.
		timers[2].Arm(10 * sim.Millisecond)
		k.At(3*sim.Millisecond, func() { c.AdjustBy(k.Now(), -2*sim.Millisecond) })
		k.RunUntilIdle()
		if k.Now() != 12*sim.Millisecond {
			t.Fatalf("fired at %v, want 12ms", k.Now())
		}
		return order
	}
	want := []int{0, 1, 3, 4, 5, 6, 7, 2}
	for i := 0; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d fired %v, want arming order %v", i, got, want)
		}
	}
}

func TestAfterNextAdjustmentOrderAndCancel(t *testing.T) {
	c := New(0, 0)
	var log []int
	var cancels []func()
	for i := 0; i < 5; i++ {
		i := i
		cancels = append(cancels, c.AfterNextAdjustment(func() {
			log = append(log, i)
			if i == 0 {
				cancels[3]() // cancelled from inside the pass: must not run
				c.AfterNextAdjustment(func() { log = append(log, 100) })
			}
		}))
	}
	cancels[1]()
	c.AdjustBy(0, 1)
	if want := []int{0, 2, 4}; !reflect.DeepEqual(log, want) {
		t.Fatalf("first correction ran %v, want %v", log, want)
	}
	c.AdjustBy(0, 1)
	c.AdjustBy(0, 1)
	if want := []int{0, 2, 4, 100}; !reflect.DeepEqual(log, want) {
		t.Fatalf("waiters ran %v, want %v (each exactly once)", log, want)
	}
}

// The clock's bookkeeping must stay proportional to the armed timers, not
// to every timer ever armed.
func TestLocalTimerSliceStaysBounded(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(0, 0)
	timers := make([]LocalTimer, 64)
	for i := range timers {
		timers[i].Init(k, c, func() {})
	}
	for round := 0; round < 1000; round++ {
		for i := range timers {
			timers[i].Arm(k.Now() + sim.Time(1+(i*7)%13)*sim.Microsecond + sim.Second)
		}
		for i := range timers {
			if i%3 != 0 {
				timers[i].Stop()
			}
		}
		if len(c.timers) > 2*len(timers)+2 {
			t.Fatalf("round %d: clock tracks %d entries for %d timers", round, len(c.timers), len(timers))
		}
	}
	for i := range timers {
		timers[i].Stop()
	}
	if len(c.timers) != 0 || c.holes != 0 {
		t.Fatalf("%d entries, %d holes left", len(c.timers), c.holes)
	}
}

func TestLocalTimerZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(50, 0)
	fired := 0
	var lt, other LocalTimer
	lt.Init(k, c, func() { fired++ })
	other.Init(k, c, func() {})
	other.Arm(sim.MaxTime / 4)
	cycle := func(adjust bool) func() {
		return func() {
			lt.Arm(c.Read(k.Now()) + sim.Millisecond)
			if adjust {
				c.AdjustBy(k.Now(), -10*sim.Microsecond)
			}
			for lt.Armed() {
				k.Step()
			}
		}
	}
	cycle(true)() // grow the kernel slab and the clock's slice once
	for _, adjust := range []bool{false, true} {
		if per := testing.AllocsPerRun(200, cycle(adjust)); per != 0 {
			t.Errorf("arm→fire→arm (adjust=%v): %.2f allocs, want 0", adjust, per)
		}
	}
	lt.Arm(c.Read(k.Now()) + sim.Millisecond)
	if per := testing.AllocsPerRun(200, func() {
		lt.Stop()
		lt.Arm(c.Read(k.Now()) + sim.Millisecond)
	}); per != 0 {
		t.Errorf("stop→arm: %.2f allocs, want 0", per)
	}
	if fired == 0 {
		t.Fatal("never fired")
	}
}
