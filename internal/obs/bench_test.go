package obs

import (
	"testing"

	"canec/internal/sim"
)

// nilObserverFastPath exercises every hot-path emission helper on a nil
// observer, exactly as an uninstrumented system's publish/deliver path
// does.
func nilObserverFastPath() {
	var o *Observer
	id := o.Begin(ClassSRT, 0, 0x42, 100)
	o.Emit(id, StageEnqueued, ClassSRT, 0, 0x42, 110, 0)
	o.Adopt(id, ClassSRT, 0, 0x42, 120)
	o.Emit(id, StageRelayTx, ClassSRT, 0, 0x42, 130, 0)
	o.SlotOutcome(true)
	o.Copies("sent", 1)
	o.ExceptionRaised("DeadlineMissed")
	o.Delivered(id, ClassSRT, 1, 0x42, 100, 200, 0)
}

// TestNilObserverZeroAllocs is the zero-overhead-when-off regression
// guard: the nil-Observer fast path on the hot publish/deliver path
// must not allocate.
func TestNilObserverZeroAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, nilObserverFastPath); allocs != 0 {
		t.Fatalf("nil-Observer fast path allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkObserverOverhead compares the instrumentation cost of the
// publish→deliver emission sequence with observability off (nil
// observer), metrics only, and metrics+trace. The "off" case must
// report 0 B/op — asserted by TestNilObserverZeroAllocs.
func BenchmarkObserverOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nilObserverFastPath()
		}
	})
	seq := func(o *Observer, at sim.Time) {
		id := o.Begin(ClassSRT, 0, 0x42, at)
		o.Emit(id, StageEnqueued, ClassSRT, 0, 0x42, at+10, 0)
		o.Delivered(id, ClassSRT, 1, 0x42, at, at+200_000, 0)
	}
	b.Run("metrics", func(b *testing.B) {
		o := New(Config{Metrics: true}, func() sim.Time { return 0 }, BandMap{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq(o, sim.Time(i))
		}
	})
	b.Run("metrics+trace", func(b *testing.B) {
		o := New(Config{Metrics: true, Trace: true, TraceCap: 4096},
			func() sim.Time { return 0 }, BandMap{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq(o, sim.Time(i))
		}
	})
	b.Run("metrics+flight", func(b *testing.B) {
		o := New(Config{Metrics: true, FlightRecords: 1024},
			func() sim.Time { return 0 }, BandMap{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq(o, sim.Time(i))
		}
	})
}
