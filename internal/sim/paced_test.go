package sim

import (
	"sync"
	"testing"
	"time"
)

// A paced run must execute scheduled events in order and land the clock
// on the horizon, just like Kernel.Run does.
func TestPacedRunExecutesInOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, at := range []Time{2 * Millisecond, 1 * Millisecond, 3 * Millisecond} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	p := NewPaced(k, 1000) // 1000x: 3 ms virtual ≈ 3 µs wall
	p.Run(5 * Millisecond)
	if len(got) != 3 || got[0] != 1*Millisecond || got[1] != 2*Millisecond || got[2] != 3*Millisecond {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 5*Millisecond {
		t.Fatalf("clock at %v, want horizon", k.Now())
	}
}

// Injected closures must run in kernel context and observe a virtual
// clock that tracks the wall clock even while the event queue is idle.
func TestPacedInjectDuringIdle(t *testing.T) {
	k := NewKernel(1)
	p := NewPaced(k, 100)
	var mu sync.Mutex
	var stamped Time
	done := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		p.Inject(func() {
			mu.Lock()
			stamped = k.Now()
			mu.Unlock()
			close(done)
		})
	}()
	go p.Run(MaxTime)
	defer p.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("injection never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	// 10 ms wall at 100x is 1 s virtual; allow generous scheduling slack
	// but require that the clock moved well past zero.
	if stamped < 100*Millisecond {
		t.Fatalf("injected closure saw stale clock %v", stamped)
	}
}

// Events scheduled for a virtual instant must not fire earlier than the
// wall clock allows (the throttle is the whole point of pacing).
func TestPacedThrottlesAgainstWallClock(t *testing.T) {
	k := NewKernel(1)
	var firedAt time.Time
	k.At(50*Millisecond, func() { firedAt = time.Now() })
	p := NewPaced(k, 1) // real time: 50 ms virtual = 50 ms wall
	start := time.Now()
	p.Run(50 * Millisecond)
	if firedAt.IsZero() {
		t.Fatal("event never fired")
	}
	if elapsed := firedAt.Sub(start); elapsed < 40*time.Millisecond {
		t.Fatalf("event fired after %v wall, want ≥ ~50ms", elapsed)
	}
}

// Stop must end a run promptly even with no pending events.
func TestPacedStop(t *testing.T) {
	k := NewKernel(1)
	p := NewPaced(k, 1)
	done := make(chan struct{})
	go func() {
		p.Run(MaxTime)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	p.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
}

// After Stop, Call runs closures inline on its callers' goroutines; they
// must still run one at a time (the counter below races under -race
// otherwise), and each exactly once.
func TestPacedCallAfterStopSerialises(t *testing.T) {
	p := NewPaced(NewKernel(1), 1)
	done := make(chan struct{})
	go func() {
		p.Run(MaxTime)
		close(done)
	}()
	p.Stop()
	<-done
	n := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Call(func() { n++ })
		}()
	}
	wg.Wait()
	if n != 8 {
		t.Fatalf("%d closures ran, want 8", n)
	}
}

// AdvanceTo must refuse to jump over pending work and ignore moves into
// the past.
func TestAdvanceToGuards(t *testing.T) {
	k := NewKernel(1)
	k.At(Millisecond, func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo over a pending event did not panic")
			}
		}()
		k.AdvanceTo(2 * Millisecond)
	}()
	k.RunUntilIdle()
	k.AdvanceTo(5 * Millisecond)
	if k.Now() != 5*Millisecond {
		t.Fatalf("now %v", k.Now())
	}
	k.AdvanceTo(Millisecond) // backward: no-op
	if k.Now() != 5*Millisecond {
		t.Fatalf("backward AdvanceTo moved the clock to %v", k.Now())
	}
}
