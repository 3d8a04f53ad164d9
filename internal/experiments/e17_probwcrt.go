package experiments

import (
	"fmt"
	"math"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/prob"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
)

// e17ProbValidation cross-validates the convolution-based probabilistic
// WCRT analyzer (internal/prob) against seeded chaos campaigns: the same
// prob.ErrorModel parameterises both the campaign's fault injector and
// the analyzer, so a row compares a *prediction* with a *measurement* of
// provably the same stochastic law. Three bit_error campaigns sweep the
// per-attempt corruption rate and one omission campaign exercises the
// inconsistent-omission leg:
//
//   - "pred miss" is the admission controller's per-class deadline-miss
//     prediction (worst-case frame bits, the bound channels are admitted
//     against); it must upper-bound "meas miss", the delivered-late mass
//     of the canec_e2e_latency_microseconds log histogram.
//   - "pred p99" comes from a model-faithful analyzer (expected wire
//     bits, exact stuffing over the published payload distribution); it
//     must agree with the histogram's measured P99 within the
//     histogram's own Growth() rank-error bound.
//   - the omission row additionally validates DeliveryLossProb against
//     the published-vs-delivered deficit.
func e17ProbValidation(seed uint64) Result {
	tbl := stats.Table{
		Title: "probabilistic WCRT validation: predicted vs chaos-measured, per campaign",
		Headers: []string{"kind", "rate", "samples", "pred miss", "meas miss",
			"pred p99 µs", "meas p99 µs", "growth", "pred loss", "meas loss", "viol", "ok"},
	}
	campaigns := []struct {
		kind  string
		model prob.ErrorModel
	}{
		{"bit_error", prob.ErrorModel{ErrorRate: 0.05}},
		{"bit_error", prob.ErrorModel{ErrorRate: 0.15}},
		{"bit_error", prob.ErrorModel{ErrorRate: 0.30}},
		{"omission", prob.ErrorModel{OmissionRate: 0.10, VictimProb: 1.0, Receivers: e17Nodes}},
	}
	for i, c := range campaigns {
		run := e17Exec(seed+uint64(i), c.kind, c.model)
		rate := c.model.ErrorRate
		if c.kind == "omission" {
			rate = c.model.OmissionRate
		}
		tbl.Rows = append(tbl.Rows, []string{
			c.kind,
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%d", run.samples),
			fmt.Sprintf("%.2e", run.predMiss),
			fmt.Sprintf("%.2e", run.measMiss),
			fmt.Sprintf("%.0f", run.predP99),
			fmt.Sprintf("%.0f", run.measP99),
			fmt.Sprintf("%.2f", run.growth),
			fmt.Sprintf("%.3f", run.predLoss),
			fmt.Sprintf("%.3f", run.measLoss),
			fmt.Sprintf("%d", run.violations),
			fmt.Sprintf("%v", run.ok()),
		})
	}
	return Result{
		ID:    "E17",
		Title: "probabilistic WCRT validation against seeded chaos campaigns (§4 extension)",
		Table: tbl,
		Notes: []string{
			"one SRT channel (payload 8, period 1 ms, deadline 480 µs) under a whole-run fault window; injector and analyzer share one prob.ErrorModel",
			"pred miss = admission controller's SRT-class prediction (worst-case stuffing) and must upper-bound meas miss = histogram mass beyond the deadline",
			"pred p99 = model-faithful analyzer quantile (expected wire bits); must match meas p99 within the log histogram's growth factor (its rank-error bound)",
			"pred/meas loss = inconsistent-omission delivery deficit (DeliveryLossProb vs 1 - delivered/published); bit_error campaigns lose nothing",
			"viol = chaos trace invariant violations (must be 0); ok = all of the row's checks hold",
		},
	}
}

const (
	e17Nodes    = 3
	e17Pub      = 1
	e17Sub      = 2
	e17Subject  = binding.Subject(0x5e1)
	e17Period   = sim.Millisecond
	e17Deadline = 480 * sim.Microsecond
	e17Horizon  = 4000 * sim.Millisecond
)

type e17Run struct {
	samples              uint64
	predMiss, measMiss   float64
	predP99, measP99     float64 // µs
	growth               float64
	predLoss, measLoss   float64
	published, delivered uint64
	violations           int
}

// ok evaluates the row's acceptance checks: prediction upper-bounds the
// measured miss mass, the model-faithful P99 agrees within the
// histogram's rank-error bound, the omission deficit matches within
// sampling noise, and the chaos invariants held.
func (r e17Run) ok() bool {
	if r.violations != 0 || r.samples == 0 {
		return false
	}
	if r.measMiss > r.predMiss {
		return false
	}
	if r.measP99 > 0 {
		ratio := r.predP99 / r.measP99
		if ratio < 1/r.growth || ratio > r.growth {
			return false
		}
	}
	// Binomial sampling tolerance on the loss deficit (5 sigma).
	if r.predLoss > 0 || r.measLoss > 0 {
		sigma := 5 * sigmaBin(r.predLoss, r.published)
		if d := r.measLoss - r.predLoss; d > sigma || d < -sigma {
			return false
		}
	}
	return true
}

func sigmaBin(p float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}

// e17Exec runs one campaign: a single SRT channel publishing every
// period under a whole-run fault window sampling exactly the given
// model, with the probabilistic admission controller active (generous
// target — E17 validates the prediction, it does not gate).
func e17Exec(seed uint64, kind string, model prob.ErrorModel) e17Run {
	sys := must(core.NewSystem(core.SystemConfig{
		Nodes: e17Nodes, Seed: seed,
		Observe: &obs.Config{Trace: true, Metrics: true},
		Admission: &prob.AdmissionConfig{
			Targets:  prob.ClassTargets{SRT: 0.5},
			Analyzer: prob.Analyzer{Model: model},
		},
	}))
	horizonMS := float64(e17Horizon) / float64(sim.Millisecond)
	ev := chaos.Event{Kind: kind, AtMS: 0, UntilMS: horizonMS}
	switch kind {
	case "bit_error":
		ev.Node = e17Pub
		ev.Rate = model.ErrorRate
	case "omission":
		ev.Rate = model.OmissionRate
		ev.VictimProb = model.VictimProb
	default:
		panic("e17: unknown campaign kind " + kind)
	}
	lc := core.NewLifecycle(sys)
	camp := must(chaos.NewCampaign(sys, lc, chaos.Script{Events: []chaos.Event{ev}}))
	camp.Install()

	attrs := core.ChannelAttrs{Payload: 8, Period: e17Period, RelDeadline: e17Deadline}
	run := e17Run{}
	pub := pair(sys, core.SRT, e17Subject, e17Pub, attrs, nil, e17Sub, attrs,
		func(core.Event, core.DeliveryInfo) { run.delivered++ }, nil)

	rng := sim.NewRNG(seed ^ 0x517)
	end := sim.Time(e17Horizon)
	feed := (&scenario.SRTPub{Sys: sys, Node: e17Pub, Subject: e17Subject, Ch: pub, Gap: e17Period, End: end,
		Payload: func(sim.Time) []byte {
			payload := make([]byte, 8)
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			return payload
		}}).Start(0)
	sys.Run(end + 10*sim.Millisecond)
	run.published = uint64(feed.Accepted)

	run.violations = len(camp.Finish(0).Violations)
	run.predMiss = sys.Admission.PredictedMiss("SRT")
	run.predLoss = model.DeliveryLossProb()
	if run.published > 0 {
		run.measLoss = 1 - float64(run.delivered)/float64(run.published)
	}

	// Measured side: the channel's e2e latency log histogram. The miss
	// mass conservatively includes the bucket straddling the deadline.
	hist := sys.Obs.Registry().LogHistogram("canec_e2e_latency_microseconds", "",
		obs.Labels{"subject": fmt.Sprintf("0x%x", uint64(e17Subject)), "class": "SRT"},
		1, 50000, 50).Snapshot()
	run.samples = hist.N()
	run.measP99 = hist.Quantile(0.99)
	if lg, isLog := hist.(interface{ Growth() float64 }); isLog {
		run.growth = lg.Growth()
	} else {
		run.growth = 1
	}
	// Mass beyond the deadline: full buckets above it, plus the
	// straddling bucket's share by geometric interpolation (the same
	// within-bucket law the histogram's Quantile uses).
	deadlineUs := float64(e17Deadline) / 1e3
	_, over := hist.OutOfRange()
	missMass := float64(over)
	for i := 0; i < hist.Buckets(); i++ {
		up := hist.UpperBound(i)
		if up <= deadlineUs {
			continue
		}
		lo := 1.0
		if i > 0 {
			lo = hist.UpperBound(i - 1)
		}
		c := float64(hist.Bucket(i))
		if lo >= deadlineUs {
			missMass += c
		} else {
			missMass += c * math.Log(up/deadlineUs) / math.Log(up/lo)
		}
	}
	if run.samples > 0 {
		run.measMiss = missMass / float64(run.samples)
	}

	// Model-faithful prediction for the quantile comparison: expected
	// wire bits over the published payload distribution instead of the
	// admission bound's worst-case stuffing.
	a := prob.Analyzer{
		Model: model,
		FrameBits: func(p int) int {
			return int(actualFrameTime(p) / can.BitTime(1, can.DefaultBitRate))
		},
	}
	res := must(a.Response([]prob.Msg{{
		Name: "srt", Prio: 2, Period: e17Period,
		Deadline: e17Deadline, Payload: 8,
	}}, 0))
	run.predP99 = 0
	if q, okq := res.Dist.Quantile(0.99); okq {
		run.predP99 = float64(q) / 1e3
	}
	return run
}
