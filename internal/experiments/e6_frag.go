package experiments

import (
	"fmt"

	"canec/internal/calendar"
	"canec/internal/core"
	"canec/internal/frag"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e6Fragmentation transfers bulk images of increasing size through a
// fragmenting NRT channel while a hard real-time control loop and soft
// real-time diagnostics run. The paper's claim (§2.2.3, §3.3): NRT bulk
// traffic uses only the bandwidth the real-time classes leave over —
// it must not add HRT jitter nor SRT misses.
func e6Fragmentation(seed uint64) Result {
	tbl := stats.Table{
		Title:   "NRT bulk transfer during HRT control loop (10 ms round) + SRT diagnostics",
		Headers: []string{"image KiB", "frames", "transfer ms", "goodput KiB/s", "hrtAppJitter µs", "hrtLate", "srtMiss%"},
	}
	for _, kib := range []int{0, 1, 4, 16, 64} {
		tbl.Rows = append(tbl.Rows, e6Run(seed, kib))
	}
	return Result{
		ID:    "E6",
		Title: "NRT fragmentation & non-interference (§2.2.3)",
		Table: tbl,
		Notes: []string{
			"row 0 KiB is the control: real-time behaviour without any bulk transfer",
			"expectation: hrtAppJitter ≈ 0 and srtMiss% unchanged for every image size;",
			"goodput reflects the leftover bandwidth (payload bytes per second of transfer)",
		},
	}
}

func e6Run(seed uint64, kib int) []string {
	const rounds = 400
	cfg := calendar.DefaultConfig()
	sys, cal := e1System(cfg, 4, seed)
	end := sys.Cfg.Epoch + rounds*cal.Round - 1

	// HRT control loop.
	var hrtTimes []sim.Time
	hrtLate := 0
	pub := pair(sys, core.HRT, e1Subject, 0, hrtAttrs(), nil, 1, hrtAttrs(),
		func(_ core.Event, di core.DeliveryInfo) {
			hrtTimes = append(hrtTimes, di.DeliveredAt)
			if di.Late {
				hrtLate++
			}
		}, nil)
	onGrid(sys, pub, e1Subject, rounds, -100*sim.Microsecond, func(int64) []byte { return []byte{1} })

	// SRT diagnostics: Poisson, 5 ms deadlines.
	srtMissed := 0
	diag := pair(sys, core.SRT, 0x91, 2, core.ChannelAttrs{}, func(e core.Exception) {
		if e.Kind == core.ExcDeadlineMissed {
			srtMissed++
		}
	}, 3, core.ChannelAttrs{}, nil, nil)
	srt := (&scenario.SRTPub{Sys: sys, Node: 2, Subject: 0x91, Ch: diag, Gap: 2 * sim.Millisecond, Poisson: true,
		Deadline: 5 * sim.Millisecond, End: end, Payload: zeros8}).Start(sys.Cfg.Epoch)

	// Bulk transfer.
	var transferDur sim.Duration
	frames := 0
	if kib > 0 {
		start := sys.Cfg.Epoch
		bulk := pair(sys, core.NRT, 0x92, 2, nrtAttrs(253), nil, 3, nrtAttrs(0),
			func(ev core.Event, di core.DeliveryInfo) {
				transferDur = di.DeliveredAt - start
			}, nil)
		img := make([]byte, kib<<10)
		frames = frag.FrameCount(len(img))
		sys.K.At(start, func() {
			bulk.Publish(core.Event{Subject: 0x92, Payload: img})
		})
	}

	sys.Run(end)

	jitter := stats.PeriodJitter(hrtTimes, cal.Round)
	goodput := 0.0
	transferMS := 0.0
	if transferDur > 0 {
		goodput = float64(kib) / (float64(transferDur) / float64(sim.Second))
		transferMS = float64(transferDur) / float64(sim.Millisecond)
	}
	missPct := 0.0
	if srt.Sent > 0 {
		missPct = float64(srtMissed) / float64(srt.Sent)
	}
	return []string{
		fmt.Sprint(kib),
		fmt.Sprint(frames),
		fmt.Sprintf("%.1f", transferMS),
		fmt.Sprintf("%.1f", goodput),
		stats.Micros(float64(jitter)),
		fmt.Sprint(hrtLate),
		stats.Pct(missPct),
	}
}
