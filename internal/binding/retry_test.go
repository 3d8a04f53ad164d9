package binding

import (
	"errors"
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// TestBindDetachedRejectsImmediately: Bind on a detached controller fails
// synchronously with ErrNotAttached and leaves no pending entry behind.
func TestBindDetachedRejectsImmediately(t *testing.T) {
	k, _, clients := protoRig(1, 1)
	cl := clients[0]
	cl.Ctrl.Detach()
	var gotErr error
	done := false
	cl.Bind(500, func(_ can.Etag, err error) { gotErr = err; done = true })
	if !done || !errors.Is(gotErr, ErrNotAttached) {
		t.Fatalf("done=%v err=%v, want immediate ErrNotAttached", done, gotErr)
	}
	if len(cl.pending) != 0 {
		t.Fatalf("%d pending entries leaked by the rejected bind", len(cl.pending))
	}
	// Reattached, the same client binds normally.
	cl.Ctrl.Reattach()
	var e can.Etag
	cl.Bind(500, func(got can.Etag, err error) {
		if err != nil {
			t.Errorf("bind after reattach: %v", err)
		}
		e = got
	})
	k.Run(1 * sim.Second)
	if e == 0 {
		t.Fatal("bind after reattach did not complete")
	}
}

// TestJoinDetachedRejectsImmediately: same contract for Join.
func TestJoinDetachedRejectsImmediately(t *testing.T) {
	_, _, clients := protoRig(1, 2)
	cl := clients[0]
	cl.Ctrl.Detach()
	var gotErr error
	cl.Join(0xBEEF, func(_ can.TxNode, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNotAttached) {
		t.Fatalf("err=%v, want ErrNotAttached", gotErr)
	}
	if cl.joining != nil {
		t.Fatal("rejected join left a joining call pending")
	}
}

// TestJoinUnreachableIsTerminal: with no agent on the bus, Join exhausts
// the retry schedule and fails exactly once with ErrAgentUnreachable.
func TestJoinUnreachableIsTerminal(t *testing.T) {
	k := sim.NewKernel(3)
	bus := can.NewBus(k, can.DefaultBitRate)
	cl := NewClient(k, bus.Attach(tempNodeLo))
	cl.Retry = RetryPolicy{Base: 10 * sim.Millisecond, Attempts: 3}
	fails := 0
	var gotErr error
	cl.Join(0xBEEF, func(_ can.TxNode, err error) { gotErr = err; fails++ })
	k.Run(5 * sim.Second)
	if fails != 1 {
		t.Fatalf("join callback fired %d times, want exactly 1", fails)
	}
	if !errors.Is(gotErr, ErrAgentUnreachable) {
		t.Fatalf("err = %v, want ErrAgentUnreachable", gotErr)
	}
}

// TestBackoffSchedule pins the capped exponential schedule without jitter
// and the fallback to defaults for zeroed fields.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{Base: 10 * sim.Millisecond, Cap: 60 * sim.Millisecond, Attempts: 6}
	want := []sim.Duration{
		10 * sim.Millisecond, // attempt 0
		20 * sim.Millisecond,
		40 * sim.Millisecond,
		60 * sim.Millisecond, // doubled to 80, capped
		60 * sim.Millisecond, // stays at the cap
	}
	for i, w := range want {
		if got := p.Backoff(i, nil); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
	var zero RetryPolicy
	if got := zero.Backoff(0, nil); got != DefaultRetryPolicy().Base {
		t.Fatalf("zero-policy Backoff(0) = %v, want default base %v", got, DefaultRetryPolicy().Base)
	}
	if zero.attempts() != DefaultRetryPolicy().Attempts {
		t.Fatalf("zero-policy attempts = %d, want %d", zero.attempts(), DefaultRetryPolicy().Attempts)
	}
}

// TestBackoffJitterDeterministic: jitter is bounded by JitterFrac and two
// RNGs with the same seed produce identical schedules.
func TestBackoffJitterDeterministic(t *testing.T) {
	p := RetryPolicy{Base: 10 * sim.Millisecond, Cap: 80 * sim.Millisecond, Attempts: 5, JitterFrac: 0.25}
	a := sim.NewKernel(7).RNG()
	b := sim.NewKernel(7).RNG()
	for i := 0; i < 5; i++ {
		base := p.Backoff(i, nil)
		ja := p.Backoff(i, a)
		jb := p.Backoff(i, b)
		if ja != jb {
			t.Fatalf("attempt %d: same seed diverges: %v vs %v", i, ja, jb)
		}
		if ja < base || ja > base+sim.Duration(float64(base)*p.JitterFrac) {
			t.Fatalf("attempt %d: jittered wait %v outside [%v, base+25%%]", i, ja, base)
		}
	}
}
