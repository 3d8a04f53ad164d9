package can

import (
	"fmt"
	"testing"

	"canec/internal/sim"
)

func BenchmarkWireBitsByPayload(b *testing.B) {
	for s := 0; s <= 8; s += 2 {
		s := s
		b.Run(fmt.Sprintf("dlc=%d", s), func(b *testing.B) {
			b.ReportAllocs()
			f := Frame{ID: MakeID(42, 17, 9999), Data: make([]byte, s)}
			for i := 0; i < b.N; i++ {
				_ = WireBits(f)
			}
		})
	}
}

func BenchmarkEncodeDecodeBits(b *testing.B) {
	f := Frame{ID: MakeID(42, 17, 9999), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	bits := EncodeBits(f)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = EncodeBits(f)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBits(bits); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodec measures the relay hot-path codec: packed encode and
// decode into reused buffers.
func BenchmarkCodec(b *testing.B) {
	f := Frame{ID: MakeID(42, 17, 9999), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	var c Codec
	packed, nbits := c.Encode(nil, f)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, MaxStuffedBytes)
		for i := 0; i < b.N; i++ {
			buf, _ = c.Encode(buf[:0], f)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Decode(packed, nbits); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkArbitrationDense(b *testing.B) {
	// 32 controllers, all with pending frames: measures the per-frame
	// arbitration scan cost at realistic maximum node counts.
	b.ReportAllocs()
	k := sim.NewKernel(1)
	bus := NewBus(k, DefaultBitRate)
	const nodes = 32
	for i := 0; i < nodes; i++ {
		bus.Attach(TxNode(i))
	}
	sent := 0
	var refill func(node int)
	refill = func(node int) {
		if sent >= b.N {
			return
		}
		sent++
		bus.Controller(node).Submit(Frame{
			ID:   MakeID(Prio(10+node), TxNode(node), Etag(node+1)),
			Data: []byte{byte(sent)},
		}, SubmitOpts{Done: func(bool, sim.Time) { refill(node) }})
	}
	b.ResetTimer()
	for i := 0; i < nodes; i++ {
		refill(i)
	}
	k.Run(sim.MaxTime)
}

func BenchmarkControllerUpdate(b *testing.B) {
	// Identifier rewrite cost: the hot operation of SRT promotion.
	b.ReportAllocs()
	k := sim.NewKernel(1)
	bus := NewBus(k, DefaultBitRate)
	c := bus.Attach(0)
	bus.Attach(1)
	// A blocker keeps the bus busy so the handle stays rewritable.
	bus.Controller(1).Submit(Frame{ID: MakeID(1, 1, 1), Data: make([]byte, 8)}, SubmitOpts{})
	k.Run(sim.Microsecond)
	h := c.Submit(Frame{ID: MakeID(200, 0, 2)}, SubmitOpts{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(h, MakeID(Prio(100+i%100), 0, 2))
	}
}
