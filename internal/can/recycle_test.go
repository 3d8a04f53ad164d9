package can

import (
	"testing"

	"canec/internal/sim"
)

// A handle taken before its request completed no longer names the record
// once the bus has reused it for another frame: Update and Abort on it
// fail and leave the new frame as it is.
func TestStaleHandleMissesReusedRecord(t *testing.T) {
	k, b := rig(2, 1)
	var got []Frame
	b.Controller(1).OnReceive = func(f Frame, _ sim.Time) { got = append(got, f.Clone()) }
	tx := b.Controller(0)
	old := tx.Submit(Frame{ID: MakeID(9, 0, 1), Data: []byte{1}}, SubmitOpts{})
	k.RunUntilIdle()
	cur := tx.Submit(Frame{ID: MakeID(9, 0, 2), Data: []byte{2}}, SubmitOpts{})
	if old.r != cur.r {
		t.Fatal("the second submit did not reuse the completed request's record")
	}
	if tx.Update(old, MakeID(3, 0, 1)) {
		t.Fatal("Update through a stale handle succeeded")
	}
	if tx.Abort(old) {
		t.Fatal("Abort through a stale handle succeeded")
	}
	if tx.Pending() != 1 || b.Stats().IDRewrites != 0 {
		t.Fatalf("pending %d, rewrites %d: the stale calls touched the new frame",
			tx.Pending(), b.Stats().IDRewrites)
	}
	k.RunUntilIdle()
	if len(got) != 2 || got[1].ID != MakeID(9, 0, 2) || got[1].Data[0] != 2 {
		t.Fatalf("received %v, want the second frame unchanged", got)
	}
	if tx.Abort(cur) || tx.Update(cur, MakeID(3, 0, 2)) {
		t.Fatal("a completed request's handle still works")
	}
}

// poolScript drives one bus through a random script of submits, aborts,
// identifier rewrites, same-ID single-shot collisions, guardian mutes and
// isolations, mid-frame detaches and a bus-off attack, with Done callbacks
// that submit and abort in turn. It counts the Done calls per submission.
type poolScript struct {
	t       *testing.T
	k       *sim.Kernel
	b       *Bus
	rng     *sim.RNG
	handles []poolSub
	dones   []int
	aborted []bool
	last    [5]int // latest submission per controller
	attack  bool
	detach  int // mid-frame detaches
}

type poolSub struct {
	h    TxHandle
	ctrl int
}

// poolGuard mutes etag 13 frames and isolates the sender of an etag 14
// frame.
type poolGuard struct{}

func (poolGuard) Judge(f Frame, _ int, _ sim.Time) GuardianVerdict {
	switch f.ID.Etag() {
	case 13:
		return GuardMuteFrame
	case 14:
		return GuardMuteNode
	}
	return GuardAllow
}

func (s *poolScript) submit(ctrl int, id ID, singleShot bool) {
	i := len(s.dones)
	s.dones = append(s.dones, 0)
	s.aborted = append(s.aborted, false)
	c := s.b.Controller(ctrl)
	h := c.Submit(Frame{ID: id, Data: []byte{byte(i), byte(i >> 8)}}, SubmitOpts{
		SingleShot: singleShot,
		Done: func(bool, sim.Time) {
			s.dones[i]++
			if s.aborted[i] {
				s.t.Errorf("submission %d: Done ran after a successful Abort", i)
			}
			switch s.rng.Intn(4) {
			case 0:
				s.randomSubmit()
			case 1:
				s.randomAbort()
			case 2:
				// Most likely a sibling still queued behind this request,
				// or flushed along with it.
				s.abort(s.last[ctrl])
			}
		},
	})
	s.handles = append(s.handles, poolSub{h: h, ctrl: ctrl})
	s.last[ctrl] = i
}

func (s *poolScript) randomID(ctrl int) ID {
	etag := Etag(1 + s.rng.Intn(12))
	if s.rng.Bool(0.05) {
		etag = 13
	} else if s.rng.Bool(0.01) {
		etag = 14
	}
	return MakeID(Prio(s.rng.Intn(16)), s.b.Controller(ctrl).Node(), etag)
}

func (s *poolScript) randomSubmit() {
	ctrl := s.rng.Intn(s.b.Controllers())
	s.submit(ctrl, s.randomID(ctrl), s.rng.Bool(0.3))
}

func (s *poolScript) randomAbort() {
	if len(s.handles) == 0 {
		return
	}
	s.abort(s.rng.Intn(len(s.handles)))
}

func (s *poolScript) abort(i int) {
	if s.b.Controller(s.handles[i].ctrl).Abort(s.handles[i].h) {
		if s.dones[i] != 0 {
			s.t.Errorf("submission %d aborted after its Done ran", i)
		}
		s.aborted[i] = true
	}
}

func (s *poolScript) step() {
	b := s.b
	switch op := s.rng.Intn(10); {
	case op < 4:
		s.randomSubmit()
	case op < 5:
		s.randomAbort()
	case op < 6:
		if len(s.handles) > 0 {
			p := s.handles[s.rng.Intn(len(s.handles))]
			c := b.Controller(p.ctrl)
			c.Update(p.h, MakeID(Prio(s.rng.Intn(16)), c.Node(), 1))
		}
	case op < 7:
		// Controllers 1 and 4 share TxNode 1: the same identifier from
		// both collides in arbitration.
		id := MakeID(Prio(s.rng.Intn(4)), 1, Etag(1+s.rng.Intn(12)))
		s.submit(1, id, true)
		s.submit(4, id, s.rng.Bool(0.5))
	case op < 8:
		ctrl := s.rng.Intn(b.Controllers())
		if b.cur != nil && b.curSender == ctrl {
			s.detach++
		}
		b.Controller(ctrl).Detach()
		s.k.After(sim.Duration(1+s.rng.Intn(500))*sim.Microsecond, func() {
			if b.Controller(ctrl).State() != BusOff {
				b.Controller(ctrl).Reattach()
			}
		})
	case op < 9:
		s.randomSubmit()
	default:
		ctrl := s.rng.Intn(b.Controllers())
		b.Controller(ctrl).Mute(true)
		s.k.After(sim.Duration(1+s.rng.Intn(300))*sim.Microsecond, func() {
			if b.Controller(ctrl).State() != BusOff {
				b.Controller(ctrl).Mute(false)
			}
		})
	}
}

// runPoolScript runs one seed's script and lets the bus go quiet.
func runPoolScript(t *testing.T, seed uint64) (*poolScript, Stats) {
	k := sim.NewKernel(seed)
	b := NewBus(k, 0)
	b.ConfineFaults = true
	b.Guardian = poolGuard{}
	for _, n := range []TxNode{0, 1, 2, 3, 1} {
		b.Attach(n)
	}
	s := &poolScript{t: t, k: k, b: b, rng: sim.NewRNG(seed)}
	b.Injector = FuncInjector(func(_ Frame, sender, _ int, _ sim.Time, rng *sim.RNG) Fault {
		if (s.attack && sender == 2) || rng.Bool(0.05) {
			return Fault{Kind: FaultError}
		}
		return Fault{}
	})
	for i := 0; i < 600; i++ {
		k.At(sim.Time(s.rng.Intn(12_000))*sim.Microsecond, s.step)
	}
	// The attack: every attempt of controller 2 fails from 1 ms to 11 ms,
	// while it keeps queueing top-priority frames, so bus-off flushes a
	// full queue.
	k.At(sim.Millisecond, func() { s.attack = true })
	k.At(11*sim.Millisecond, func() { s.attack = false })
	for i := 0; i < 100; i++ {
		k.At(sim.Time(1000+100*i)*sim.Microsecond, func() {
			s.submit(2, MakeID(0, 2, 1), false)
		})
	}
	k.Run(12 * sim.Millisecond)
	s.attack = false
	for i := 0; i < b.Controllers(); i++ {
		if c := b.Controller(i); c.State() != BusOff {
			c.Mute(false)
		}
	}
	k.RunUntilIdle()
	return s, b.Stats()
}

// The bus's request records are conserved through every way a request
// can leave its controller: after quiescence each record ever made is on
// the free list exactly once or pending on a controller, and no Done ran
// twice or after a successful Abort.
func TestRequestPoolAccounting(t *testing.T) {
	var total Stats
	detaches := 0
	for seed := uint64(1); seed <= 60; seed++ {
		s, st := runPoolScript(t, seed)
		b := s.b
		free := map[*txReq]bool{}
		for r := b.free; r != nil; r = r.next {
			if free[r] {
				t.Fatalf("seed %d: record on the free list twice", seed)
			}
			if r.held {
				t.Fatalf("seed %d: a free record is held", seed)
			}
			free[r] = true
		}
		pending := 0
		for i := 0; i < b.Controllers(); i++ {
			for _, r := range b.Controller(i).pending {
				if free[r] || r.removed || r.held {
					t.Fatalf("seed %d: pending record free %v removed %v held %v",
						seed, free[r], r.removed, r.held)
				}
				pending++
			}
		}
		if len(free)+pending != b.reqs {
			t.Fatalf("seed %d: %d free + %d pending, %d records made", seed, len(free), pending, b.reqs)
		}
		for i, n := range s.dones {
			if n > 1 {
				t.Fatalf("seed %d: submission %d saw %d Done calls", seed, i, n)
			}
		}
		total.FramesOK += st.FramesOK
		total.FramesAborted += st.FramesAborted
		total.BusOffEvents += st.BusOffEvents
		total.GuardianMuted += st.GuardianMuted
		total.GuardianIsolated += st.GuardianIsolated
		detaches += s.detach
	}
	// The scripts must reach every release path.
	if total.FramesOK == 0 || total.FramesAborted == 0 || total.BusOffEvents == 0 ||
		total.GuardianMuted == 0 || total.GuardianIsolated == 0 || detaches == 0 {
		t.Fatalf("scripts missed a path: %+v, %d mid-frame detaches", total, detaches)
	}
}
