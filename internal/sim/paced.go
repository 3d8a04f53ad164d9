package sim

import (
	"sync"
	"time"
)

// Paced drives a Kernel against the wall clock so that a simulated
// segment can interoperate with the outside world (real TCP relay links,
// other daemons) in real time. Virtual time advances at Ratio virtual
// nanoseconds per wall nanosecond: 1.0 is real time, 10.0 runs the
// simulation ten times faster than the wall clock.
//
// Pacing is strictly opt-in. A kernel that is never handed to a Paced
// runner behaves exactly as before — deterministic, single-threaded,
// as fast as the host allows — so every existing test and experiment
// keeps its bit-reproducibility. A paced run is *not* reproducible: the
// wall clock and the network decide when injected work interleaves with
// scheduled events, which is the price of speaking to real sockets.
//
// Concurrency contract: the kernel is only ever touched by the goroutine
// inside Run. Other goroutines communicate exclusively through Inject,
// which enqueues a closure to be executed in kernel context at the
// current virtual time. This preserves the kernel's single-threaded
// discipline without adding locks to the hot discrete-event path.
type Paced struct {
	k     *Kernel
	ratio float64

	// own is held by Run while it drives the kernel and by Call while it
	// runs a closure inline after Stop, so the kernel has one toucher.
	own  sync.Mutex
	mu   sync.Mutex
	inj  []func()
	wake chan struct{}
	quit chan struct{}
	once sync.Once
}

// NewPaced wraps a kernel for wall-clock-throttled execution. ratio <= 0
// selects real time (1.0).
func NewPaced(k *Kernel, ratio float64) *Paced {
	if ratio <= 0 {
		ratio = 1
	}
	return &Paced{
		k:     k,
		ratio: ratio,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
}

// Kernel returns the driven kernel. Callers outside Run's goroutine must
// not touch it directly; use Inject.
func (p *Paced) Kernel() *Kernel { return p.k }

// Ratio returns the virtual-per-wall speed factor.
func (p *Paced) Ratio() float64 { return p.ratio }

// Inject schedules fn to run in kernel context at the current virtual
// time. It is safe to call from any goroutine, before, during and after
// Run; closures injected after Run returned are discarded with it.
func (p *Paced) Inject(fn func()) {
	p.mu.Lock()
	p.inj = append(p.inj, fn)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Call runs fn in kernel context and blocks until it completed — the
// synchronous form of Inject, for queries from tests and shutdown paths.
// It must not be called from within kernel context (it would deadlock).
func (p *Paced) Call(fn func()) {
	done := make(chan struct{})
	p.Inject(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-p.quit:
		// Run ended before draining the injection: execute inline, once
		// Run has returned and one caller at a time.
		p.own.Lock()
		defer p.own.Unlock()
		select {
		case <-done:
		default:
			fn()
		}
	}
}

// Stop ends a running Run at the next scheduling point. Idempotent.
func (p *Paced) Stop() { p.once.Do(func() { close(p.quit) }) }

// Run executes the kernel until virtual time reaches horizon (or Stop),
// throttling against the wall clock: an event scheduled for virtual time
// t fires no earlier than start + (t-now₀)/Ratio on the wall. While the
// queue is idle the virtual clock keeps tracking the wall clock, so
// injected work (frames arriving from a relay peer) is stamped with the
// "current" virtual time rather than the time of the last local event.
func (p *Paced) Run(horizon Time) {
	p.own.Lock()
	defer p.own.Unlock()
	wall0 := time.Now()
	v0 := p.k.Now()
	// vnow returns the wall-implied virtual time, capped at the horizon.
	vnow := func() Time {
		v := v0 + Time(float64(time.Since(wall0))*p.ratio)
		if v > horizon {
			return horizon
		}
		return v
	}
	for {
		select {
		case <-p.quit:
			return
		default:
		}
		now := vnow()
		// Execute everything due at the wall-implied virtual instant.
		for {
			next, ok := p.k.NextAt()
			if !ok || next > now {
				break
			}
			p.k.Step()
		}
		p.k.AdvanceTo(now)
		// Drain injections in kernel context at the current virtual time.
		p.mu.Lock()
		inj := p.inj
		p.inj = nil
		p.mu.Unlock()
		if len(inj) > 0 {
			for _, fn := range inj {
				fn()
			}
			continue // injected work may have scheduled due events
		}
		if now >= horizon {
			p.Stop()
			return
		}
		// Sleep until the next event is due (or the horizon), waking
		// early for injections.
		target := horizon
		if next, ok := p.k.NextAt(); ok && next < target {
			target = next
		}
		wait := time.Duration(float64(target-now) / p.ratio)
		if wait <= 0 {
			continue
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-p.wake:
			timer.Stop()
		case <-p.quit:
			timer.Stop()
			return
		}
	}
}
