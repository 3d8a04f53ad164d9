package experiments

import (
	"canec/internal/can"
	"canec/internal/sim"
)

// actualFrameTime estimates the *expected* wire time of a frame with a
// p-byte payload (exact stuffing over random payload contents, mid-range
// identifier), as opposed to the worst-case bound. Using it to dimension
// workload utilization makes the "load" axis of the sweeps reflect real
// bus occupancy instead of the stuffing-pessimistic bound, so load = 1.0
// is true saturation.
func actualFrameTime(p int) sim.Duration { return frameTimes[p] }

// frameTimes holds actualFrameTime for every payload length, filled once:
// each entry averages 64 frames drawn from its own sim.NewRNG(12345).
var frameTimes = func() (t [can.MaxPayload + 1]sim.Duration) {
	id := can.MakeID(100, 5, 100)
	const samples = 64
	for p := range t {
		rng := sim.NewRNG(12345)
		data := make([]byte, p)
		total := 0
		for i := 0; i < samples; i++ {
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
			total += can.WireBits(can.Frame{ID: id, Data: data})
		}
		t[p] = can.BitTime(total/samples, can.DefaultBitRate)
	}
	return t
}()
