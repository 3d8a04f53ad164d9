package sim

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"
)

// refKernel is the kernel's previous implementation — container/heap over
// []*refEvent plus a by-sequence map — kept as the obviously-correct
// reference the slab heap is checked against.
type refKernel struct {
	now     Time
	queue   refHeap
	byseq   map[uint64]*refEvent
	nextSeq uint64
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (k *refKernel) At(t Time, fn func()) uint64 {
	if t < k.now {
		panic("ref: scheduling in the past")
	}
	k.nextSeq++
	e := &refEvent{at: t, seq: k.nextSeq, fn: fn}
	heap.Push(&k.queue, e)
	k.byseq[e.seq] = e
	return e.seq
}

func (k *refKernel) Cancel(seq uint64) bool {
	e, ok := k.byseq[seq]
	if !ok || e.index < 0 {
		return false
	}
	heap.Remove(&k.queue, e.index)
	delete(k.byseq, seq)
	return true
}

func (k *refKernel) NextAt() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

func (k *refKernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	if len(k.queue) > 0 && k.queue[0].at <= t {
		panic("ref: AdvanceTo over pending event")
	}
	k.now = t
}

func (k *refKernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*refEvent)
	delete(k.byseq, e.seq)
	k.now = e.at
	e.fn()
	return true
}

// scheduler is the surface both kernels are driven through; handles are
// indices into the adapter's own table, so a script can name a handle
// long after its event fired, was cancelled, or had its slot reused.
type scheduler interface {
	at(t Time, fn func()) int
	after(d Duration, fn func()) int
	cancel(h int) bool
	step() bool
	advanceTo(t Time)
	now() Time
	pending() int
	nextAt() (Time, bool)
}

type slabAdapter struct {
	k       *Kernel
	handles []Timer
}

func (a *slabAdapter) at(t Time, fn func()) int {
	a.handles = append(a.handles, a.k.At(t, fn))
	return len(a.handles) - 1
}
func (a *slabAdapter) after(d Duration, fn func()) int {
	a.handles = append(a.handles, a.k.After(d, fn))
	return len(a.handles) - 1
}
func (a *slabAdapter) cancel(h int) bool    { return a.k.Cancel(a.handles[h]) }
func (a *slabAdapter) step() bool           { return a.k.Step() }
func (a *slabAdapter) advanceTo(t Time)     { a.k.AdvanceTo(t) }
func (a *slabAdapter) now() Time            { return a.k.Now() }
func (a *slabAdapter) pending() int         { return a.k.Pending() }
func (a *slabAdapter) nextAt() (Time, bool) { return a.k.NextAt() }

type refAdapter struct {
	k       *refKernel
	handles []uint64
}

func (a *refAdapter) at(t Time, fn func()) int {
	a.handles = append(a.handles, a.k.At(t, fn))
	return len(a.handles) - 1
}
func (a *refAdapter) after(d Duration, fn func()) int { return a.at(a.k.now+d, fn) }
func (a *refAdapter) cancel(h int) bool               { return a.k.Cancel(a.handles[h]) }
func (a *refAdapter) step() bool                      { return a.k.Step() }
func (a *refAdapter) advanceTo(t Time)                { a.k.AdvanceTo(t) }
func (a *refAdapter) now() Time                       { return a.k.now }
func (a *refAdapter) pending() int                    { return len(a.k.queue) }
func (a *refAdapter) nextAt() (Time, bool)            { return a.k.NextAt() }

// runScript drives s with a pseudo-random script and returns everything
// observable: firing order with instants, every Cancel result, and
// Now/Pending/NextAt after every operation.
func runScript(s scheduler, seed uint64, ops int) []string {
	rng := NewRNG(seed)
	var log []string
	var handles []int
	nextID := 0
	observe := func(op string) {
		at, ok := s.nextAt()
		log = append(log, fmt.Sprintf("%s now=%d pending=%d next=%d/%v", op, s.now(), s.pending(), at, ok))
	}
	cancelRandom := func(who string) {
		if len(handles) == 0 {
			return
		}
		h := handles[rng.Intn(len(handles))]
		log = append(log, fmt.Sprintf("%s cancel h%d=%v", who, h, s.cancel(h)))
	}
	var callback func(depth int) func()
	callback = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, fmt.Sprintf("fire e%d at %d", id, s.now()))
			// Schedule and cancel from inside the callback, including at
			// the current instant (FIFO behind everything already due).
			if depth < 4 {
				for n := rng.Intn(3); n > 0; n-- {
					handles = append(handles, s.after(Duration(rng.Intn(40)), callback(depth+1)))
				}
			}
			if rng.Bool(0.4) {
				cancelRandom("inner")
			}
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			handles = append(handles, s.at(s.now()+Time(rng.Intn(100)), callback(0)))
			observe("at")
		case 2:
			handles = append(handles, s.after(Duration(rng.Intn(3)), callback(0)))
			observe("after")
		case 3, 4:
			cancelRandom("outer")
			observe("cancel")
		case 5, 6:
			log = append(log, fmt.Sprintf("step=%v", s.step()))
			observe("step")
		case 7:
			t := s.now() + Time(rng.Intn(30))
			if next, ok := s.nextAt(); ok && t >= next {
				t = next - 1 // AdvanceTo must stay short of due work
			}
			s.advanceTo(t)
			observe("advance")
		}
	}
	for s.step() {
	}
	observe("drained")
	// Every handle is stale now: fired, cancelled, or its slot reused.
	for _, h := range handles {
		if s.cancel(h) {
			log = append(log, fmt.Sprintf("stale h%d cancelled", h))
		}
	}
	return log
}

// TestKernelMatchesReference is the differential property test for the
// slab heap: identical scripts must be indistinguishable from the
// container/heap kernel it replaced.
func TestKernelMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got := runScript(&slabAdapter{k: NewKernel(seed)}, seed, 400)
		want := runScript(&refAdapter{k: &refKernel{byseq: make(map[uint64]*refEvent)}}, seed, 400)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end of log>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d diverges at entry %d:\n  kernel:    %s\n  reference: %s", seed, i, g, want[i])
			}
		}
		t.Fatalf("seed %d: kernel log has %d extra entries", seed, len(got)-len(want))
	}
}

// TestStaleTimerHandles spells out the handle cases the property test
// covers statistically.
func TestStaleTimerHandles(t *testing.T) {
	k := NewKernel(1)
	if k.Cancel(Timer{}) {
		t.Fatal("zero Timer cancelled something on an empty kernel")
	}
	fired := 0
	a := k.At(10, func() { fired++ })
	if k.Cancel(Timer{}) {
		t.Fatal("zero Timer cancelled a pending event")
	}
	k.Step()
	if k.Cancel(a) {
		t.Fatal("cancel after fire succeeded")
	}
	// b reuses a's slot; a must not be able to cancel it.
	b := k.At(20, func() { fired++ })
	if a.slot != b.slot {
		t.Fatalf("slot not reused: %d then %d", a.slot, b.slot)
	}
	if k.Cancel(a) {
		t.Fatal("stale handle cancelled the event that reused its slot")
	}
	if !k.Cancel(b) || k.Cancel(b) {
		t.Fatal("cancel / double cancel")
	}
	c := k.At(30, func() { fired++ })
	if k.Cancel(a) || k.Cancel(b) {
		t.Fatal("stale handles cancelled a second reuse")
	}
	k.RunUntilIdle()
	if fired != 2 || k.Cancel(c) {
		t.Fatalf("fired %d, want 2", fired)
	}
}

// TestKernelSteadyStateZeroAllocs pins the reason for the slab: once the
// heap and slab have grown, scheduling, firing and cancelling are free.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.At(Time(1000+i), fn) // standing population so sifting is real
	}
	tm := k.At(5, fn)
	k.Cancel(tm)
	if per := testing.AllocsPerRun(200, func() {
		k.At(k.Now()+1, fn)
		k.Step()
	}); per != 0 {
		t.Errorf("At+Step: %.2f allocs, want 0", per)
	}
	if per := testing.AllocsPerRun(200, func() {
		k.Cancel(k.At(k.Now()+500, fn))
	}); per != 0 {
		t.Errorf("At+Cancel: %.2f allocs, want 0", per)
	}
}
