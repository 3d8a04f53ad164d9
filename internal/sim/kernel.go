// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol components in this repository (the CAN bus model, clocks,
// middleware dispatchers, workload generators) are driven by a single
// Kernel instance. The kernel keeps a virtual clock with nanosecond
// resolution and a priority queue of pending events. Events scheduled for
// the same instant fire in scheduling order (FIFO), which makes every
// simulation run bit-reproducible for a given seed.
//
// The kernel is deliberately single-threaded: determinism is a core
// requirement for reproducing the paper's temporal claims, and Go's
// scheduler or garbage collector must never be able to perturb protocol
// timing. Parallelism is applied one level up, by running many independent
// Kernel instances concurrently (see the bench harness).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Convenient duration units, mirroring time.Duration's constants but for
// virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. It is used as an
// "infinite" horizon by Run.
const MaxTime Time = math.MaxInt64

// String formats t as seconds with microsecond precision, e.g. "1.250300s".
func (t Time) String() string {
	return fmt.Sprintf("%d.%06ds", t/Second, (t%Second)/Microsecond)
}

// Micros returns t expressed in whole microseconds, rounding toward zero.
func (t Time) Micros() int64 { return int64(t) / int64(Microsecond) }

// Timer identifies a scheduled event so it can be cancelled. The zero Timer
// is invalid. A handle names the slab slot holding the event and the
// event's scheduling sequence number, which doubles as the slot's
// generation: once the event fired or was cancelled the slot is recycled
// under a new sequence number and the stale handle no longer matches.
type Timer struct {
	slot int32
	gen  uint64
}

// entry is one pending event in the heap. The ordering key lives in the
// entry itself so sifting never leaves the heap's backing array.
type entry struct {
	at   Time
	seq  uint64 // global scheduling order; breaks ties at equal times
	slot int32
}

func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// slot holds a pending event's callback and its current heap position, so
// Cancel finds the entry without searching. A free slot has pos -1.
type slot struct {
	fn  func()
	pos int32
}

// Kernel is a deterministic discrete-event scheduler with a virtual clock.
// The zero value is not usable; create kernels with NewKernel.
//
// Pending events live in a binary heap of values ordered by (at, seq) over
// a slab of slots with a free list: scheduling, firing and cancelling
// reuse slots and allocate nothing once the slab has grown to the
// simulation's high-water mark.
type Kernel struct {
	now     Time
	queue   []entry
	slots   []slot
	free    []int32 // recycled slot indices, reused last-in first-out
	nextSeq uint64
	rng     *RNG
	steps   uint64

	// Always-on self-accounting (see Profile): a compare and an add per
	// event, so profilers can attach mid-run and still see lifetime
	// high-water marks.
	heapHigh    int
	idleVirtual Duration

	// probe, when non-nil, counts the kernel's event-heap operations and
	// times its pops (SetProbe). Off: one nil check per operation.
	probe Probe
}

// NewKernel returns a kernel with the clock at zero and the given RNG seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random number generator. All
// stochastic model behaviour (fault injection, Poisson arrivals) must draw
// from this generator to preserve reproducibility.
func (k *Kernel) RNG() *RNG { return k.rng }

// Steps reports how many events have been executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: a discrete-event model that silently reorders causality is
// unusable, so this is treated as a programming error.
func (k *Kernel) At(t Time, fn func()) Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	k.nextSeq++
	var si int32
	if n := len(k.free); n > 0 {
		si = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		si = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	k.slots[si].fn = fn
	k.queue = append(k.queue, entry{at: t, seq: k.nextSeq, slot: si})
	k.up(len(k.queue) - 1)
	k.countHeapOp()
	if len(k.queue) > k.heapHigh {
		k.heapHigh = len(k.queue)
	}
	return Timer{slot: si, gen: k.nextSeq}
}

// countHeapOp reports one untimed push or cancel to the stage probe. A
// push or cancel costs about as much as the two clock reads that would
// time it, and nearly all of them run inside an enqueue, dispatch or
// delivery window that already covers their time; only Step's pop is
// timed (see ProbeHeap).
func (k *Kernel) countHeapOp() {
	if k.probe != nil {
		k.probe.StageNs(ProbeHeap, ProbeClassNone, 0)
	}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) Timer {
	return k.At(k.now+d, fn)
}

// Cancel removes a previously scheduled event. It reports whether the event
// was still pending (false if already fired or cancelled).
func (k *Kernel) Cancel(t Timer) bool {
	if int(t.slot) >= len(k.slots) {
		return false
	}
	pos := k.slots[t.slot].pos
	if pos < 0 || k.queue[pos].seq != t.gen {
		return false
	}
	k.remove(int(pos))
	k.countHeapOp()
	return true
}

// remove takes the entry at heap position i out of the queue, recycles its
// slot and returns the callback it held.
func (k *Kernel) remove(i int) func() {
	si := k.queue[i].slot
	fn := k.slots[si].fn
	k.slots[si] = slot{pos: -1}
	k.free = append(k.free, si)
	n := len(k.queue) - 1
	last := k.queue[n]
	k.queue = k.queue[:n]
	if i < n {
		k.queue[i] = last
		if !k.down(i) {
			k.up(i)
		}
	}
	return fn
}

// up sifts the entry at position i toward the root.
func (k *Kernel) up(i int) {
	q := k.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		k.slots[q[i].slot].pos = int32(i)
		i = p
	}
	q[i] = e
	k.slots[e.slot].pos = int32(i)
}

// down sifts the entry at position i toward the leaves and reports whether
// it moved.
func (k *Kernel) down(i int) bool {
	q := k.queue
	e := q[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		k.slots[q[i].slot].pos = int32(i)
		i = c
	}
	q[i] = e
	k.slots[e.slot].pos = int32(i)
	return i > i0
}

// Pending reports the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextAt returns the scheduled time of the earliest pending event. ok is
// false when the queue is empty.
func (k *Kernel) NextAt() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// AdvanceTo moves the clock forward to t without executing any event. It
// panics when an event is still pending at or before t (callers must Step
// those first) — silently jumping over due work would reorder causality.
// Moving backward is a no-op. Paced execution uses it to keep the virtual
// clock tracking the wall clock while the event queue is idle.
func (k *Kernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	if len(k.queue) > 0 && k.queue[0].at <= t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) over pending event at %v", t, k.queue[0].at))
	}
	k.idleVirtual += t - k.now
	k.now = t
}

// Step executes the earliest pending event, advancing the clock to its
// scheduled time. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	at := k.queue[0].at
	var t0 int64
	if k.probe != nil {
		t0 = ProbeNow()
	}
	fn := k.remove(0)
	if k.probe != nil {
		k.probe.StageNs(ProbeHeap, ProbeClassNone, ProbeNow()-t0)
	}
	if at > k.now {
		k.idleVirtual += at - k.now
	}
	k.now = at
	k.steps++
	fn()
	return true
}

// Run executes events until the queue is empty or the next event lies
// strictly beyond the horizon. The clock is left at the time of the last
// executed event (or advanced to horizon if no event fired at/after it,
// so callers can rely on Now() == horizon when the queue drains early and
// horizon is finite).
func (k *Kernel) Run(horizon Time) {
	for len(k.queue) > 0 && k.queue[0].at <= horizon {
		k.Step()
	}
	if horizon != MaxTime && k.now < horizon {
		k.idleVirtual += horizon - k.now
		k.now = horizon
	}
}

// RunUntilIdle executes every pending event, including events scheduled by
// other events, until the queue is empty. Workloads that reschedule
// themselves forever will make this spin; use Run with a horizon for those.
func (k *Kernel) RunUntilIdle() {
	for k.Step() {
	}
}
