package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { got = append(got, i) })
	}
	k.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestKernelAfterAndNesting(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	k.After(5, func() {
		fired = append(fired, k.Now())
		k.After(7, func() {
			fired = append(fired, k.Now())
		})
	})
	k.RunUntilIdle()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 12 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	tm := k.At(10, func() { ran = true })
	if !k.Cancel(tm) {
		t.Fatal("Cancel reported not pending")
	}
	if k.Cancel(tm) {
		t.Fatal("double Cancel reported pending")
	}
	k.RunUntilIdle()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.At(1, func() {})
	k.RunUntilIdle()
	if k.Cancel(tm) {
		t.Fatal("Cancel after firing reported pending")
	}
}

func TestKernelCancelMiddleOfHeap(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var timers []Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, k.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel every odd event.
	for i := 1; i < 20; i += 2 {
		if !k.Cancel(timers[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	k.RunUntilIdle()
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10: %v", len(got), got)
	}
	for idx, v := range got {
		if v != idx*2 {
			t.Fatalf("wrong surviving events: %v", got)
		}
	}
}

func TestKernelRunHorizon(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run(25)
	if len(got) != 2 {
		t.Fatalf("horizon run executed %v", got)
	}
	if k.Now() != 25 {
		t.Fatalf("Now() = %v after horizon run, want 25", k.Now())
	}
	k.Run(MaxTime)
	if len(got) != 4 {
		t.Fatalf("final run executed %v", got)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func() {})
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(50, func() {})
}

func TestKernelSelfRescheduleWithHorizon(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		k.After(10, tick)
	}
	k.After(10, tick)
	k.Run(1000)
	if count != 100 {
		t.Fatalf("periodic tick count = %d, want 100", count)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) never produced some values: %v", seen)
	}
}

func TestRNGExpDurationMean(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	mean := Duration(1 * Millisecond)
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.ExpDuration(mean))
	}
	got := sum / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Fatalf("exponential mean = %.0f, want ≈ %d", got, mean)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit fraction = %.3f", frac)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestRNGJitterRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		const spread = 500
		for i := 0; i < 50; i++ {
			j := r.Jitter(spread)
			if j < -spread || j > spread {
				return false
			}
		}
		return r.Jitter(0) == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	tt := Time(1*Second + 250300*Microsecond)
	if got := tt.String(); got != "1.250300s" {
		t.Fatalf("Time.String() = %q", got)
	}
	if Time(1500).Micros() != 1 {
		t.Fatalf("Micros rounding wrong")
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		k := NewKernel(seed)
		var trace []uint64
		var step func()
		step = func() {
			trace = append(trace, uint64(k.Now())^k.RNG().Uint64())
			if len(trace) < 200 {
				k.After(Duration(1+k.RNG().Intn(100)), step)
			}
		}
		k.After(1, step)
		k.RunUntilIdle()
		return trace
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatal("same-seed runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at %d", i)
		}
	}
}
