package prob

import (
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// mixedSRTRequests rebuilds the SRT half of the benchmark's mixed
// workload: 16 streams on 8 stations whose periods are scaled to offer
// 45 % of a 1 Mbit/s bus, with deadlines at 1.5 periods clamped to
// [4 ms, 20 ms].
func mixedSRTRequests() []ChannelReq {
	weights := []float64{2, 2.5, 3, 4, 5, 6, 8, 10, 2, 3, 4, 6, 8, 12, 16, 20}
	frameTime := func(payload int) sim.Duration {
		bits := can.MinFrameBits(payload) + (54+8*payload)/16
		return can.BitTime(bits, can.DefaultBitRate)
	}
	var demand float64
	for i, w := range weights {
		demand += float64(frameTime(1+i%8)) / w
	}
	unit := demand / 0.45
	reqs := make([]ChannelReq, len(weights))
	for i, w := range weights {
		period := sim.Duration(w * unit)
		dl := min(max(sim.Duration(1.5*float64(period)), 4*sim.Millisecond), 20*sim.Millisecond)
		reqs[i] = ChannelReq{Node: i % 8, Subject: uint64(0x1000 + i), Class: "SRT",
			Payload: 1 + i%8, Period: period, Deadline: dl}
	}
	return reqs
}

// mixedAdmission is the benchmark's mixed-workload admission set-up:
// six HRT calendar slots of a 10 ms round reserved, an SRT target of
// 5 % and a truncated analysis at a 1e-3 error rate.
func mixedAdmission() AdmissionConfig {
	reserved := make([]Msg, 6)
	for i := range reserved {
		reserved[i] = Msg{Name: "hrt-slot", Period: 10 * sim.Millisecond, Payload: can.MaxPayload}
	}
	return AdmissionConfig{
		Targets:  ClassTargets{SRT: 0.05},
		Analyzer: Analyzer{Model: ErrorModel{ErrorRate: 1e-3}, MaxErrors: 2, Horizon: 6 * sim.Millisecond},
		Reserved: reserved,
	}
}

// BenchmarkControllerRequest admits the mixed workload's 16 SRT
// streams into a fresh controller per iteration: the admission share
// of one mixed set-up.
func BenchmarkControllerRequest(b *testing.B) {
	reqs, cfg := mixedSRTRequests(), mixedAdmission()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewController(cfg, nil)
		for _, r := range reqs {
			if d := c.Request(r); !d.Admitted {
				b.Fatalf("stream %#x rejected: %+v", r.Subject, d)
			}
		}
	}
}
