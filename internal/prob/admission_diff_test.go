package prob

import (
	"math"
	"reflect"
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

// pick returns one of vs at random.
func pick[T any](rng *sim.RNG, vs ...T) T { return vs[rng.Intn(len(vs))] }

// randomAnalyzer draws an analyzer: stochastic at rates from error-free
// to heavy, occasionally the deterministic point-mass model, always
// truncated so that a few hundred analyses stay fast.
func randomAnalyzer(rng *sim.RNG) Analyzer {
	a := Analyzer{
		Model:     ErrorModel{ErrorRate: pick(rng, 0, 1e-4, 1e-3, 0.02, 0.1)},
		MaxErrors: 1 + rng.Intn(4),
		Horizon:   sim.Duration(1+rng.Intn(4)) * sim.Millisecond,
	}
	if rng.Bool(0.15) {
		a.Deterministic, a.OmissionDegree = true, rng.Intn(3)
	}
	if rng.Bool(0.2) {
		a.FrameBits = can.MinFrameBits
	}
	return a
}

// randomAdmission draws a controller configuration: an SRT target,
// sometimes an NRT one, and zero to three reserved HRT streams.
func randomAdmission(rng *sim.RNG) AdmissionConfig {
	cfg := AdmissionConfig{
		Targets:  ClassTargets{SRT: pick(rng, 1e-3, 0.01, 0.05, 0.2)},
		Analyzer: randomAnalyzer(rng),
	}
	if rng.Bool(0.4) {
		cfg.Targets.NRT = pick(rng, 0.01, 0.1)
	}
	for i := rng.Intn(4); i > 0; i-- {
		cfg.Reserved = append(cfg.Reserved, Msg{Name: "hrt",
			Period: sim.Duration(5+rng.Intn(16)) * sim.Millisecond, Payload: 1 + rng.Intn(8)})
	}
	return cfg
}

// randomReq draws a channel for key (node, subject): mostly SRT, tight
// or loose deadlines, now and then undeclared.
func randomReq(rng *sim.RNG, node int, subject uint64) ChannelReq {
	period := sim.Duration(1+rng.Intn(10)) * sim.Millisecond
	r := ChannelReq{Node: node, Subject: subject, Class: "SRT",
		Payload: rng.Intn(9), Period: period}
	if rng.Bool(0.3) {
		r.Class, r.Prio = "NRT", can.Prio(200+rng.Intn(54))
	}
	if rng.Bool(0.3) {
		r.Deadline = sim.Duration(100+rng.Intn(900)) * sim.Microsecond
	} else {
		r.Deadline = sim.Duration(rng.Int63n(int64(period*3/2))) + sim.Millisecond
	}
	if rng.Bool(0.05) {
		r.Period = 0
	}
	return r
}

// diffCoverage counts what the random sequences exercised, so the
// differential test fails loudly instead of silently testing less.
type diffCoverage struct {
	admitted, loopRejected, rejected, released, shed, rateChanges int
}

// runDiffSequence drives the controller and the oracle with one random
// request sequence and fails on the first divergence.
func runDiffSequence(t *testing.T, seed uint64, cov *diffCoverage) {
	rng := sim.NewRNG(seed)
	now := new(sim.Time)
	clock := func() sim.Time { return *now }
	cfg := randomAdmission(rng)
	c, ref := NewController(cfg, clock), newRefController(cfg, clock)

	type key struct {
		node    int
		subject uint64
	}
	pool := make([]key, 4+rng.Intn(8))
	reqs := make(map[key]ChannelReq, len(pool))
	for i := range pool {
		pool[i] = key{rng.Intn(4), uint64(0x100 + i)}
		reqs[pool[i]] = randomReq(rng, pool[i].node, pool[i].subject)
	}
	rate := cfg.Analyzer.Model.ErrorRate

	for op := 0; op < 12+rng.Intn(12); op++ {
		k := pool[rng.Intn(len(pool))]
		switch x := rng.Float64(); {
		case x < 0.55:
			if rng.Bool(0.25) {
				reqs[k] = randomReq(rng, k.node, k.subject)
			}
			req := reqs[k]
			before, _, _ := c.Counts()
			got, want := c.Request(req), ref.Request(req)
			if got != want {
				t.Fatalf("seed %d op %d: Request(%+v) = %+v, oracle %+v", seed, op, req, got, want)
			}
			after, _, _ := c.Counts()
			switch {
			case after > before && got.Target > 0:
				cov.admitted++
				checkStoredPredictions(t, seed, op, c)
			case !got.Admitted:
				cov.rejected++
				if got.Reason == ReasonMissProb && got.MissProb <= got.Target {
					cov.loopRejected++
				}
			}
		case x < 0.7:
			c.Release(k.node, k.subject)
			ref.Release(k.node, k.subject)
			cov.released++
		case x < 0.85:
			switch {
			case rng.Bool(0.1):
				rate = pick(rng, -1.0, 2, math.NaN())
			case rng.Bool(0.6):
				rate = math.Min(1, math.Max(rate, 1e-4)*pick(rng, 2.0, 5, 10))
			default:
				rate = pick(rng, 0.0, 1e-3, 0.01, 0.05)
			}
			got, want := c.SetMeasuredRate(rate), ref.SetMeasuredRate(rate)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: SetMeasuredRate(%v) shed %+v, oracle %+v", seed, op, rate, got, want)
			}
			cov.rateChanges++
			cov.shed += len(got)
		default:
			*now += sim.Time(rng.Int63n(int64(3 * sim.Second)))
		}

		ga, gr, gs := c.Counts()
		wa, wr, ws := ref.Counts()
		if ga != wa || gr != wr || gs != ws {
			t.Fatalf("seed %d op %d: counts %d/%d/%d, oracle %d/%d/%d", seed, op, ga, gr, gs, wa, wr, ws)
		}
		// DeepEqual compares every float with ==, so each stored
		// MissProb must match the oracle's bit for bit.
		if g, w := c.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d op %d: snapshot\n%+v\noracle\n%+v", seed, op, g, w)
		}
	}
}

// checkStoredPredictions asserts that every analysable admitted
// channel's stored prediction is a fresh analysis against the
// controller's current entries, as refresh would recompute it.
func checkStoredPredictions(t *testing.T, seed uint64, op int, c *Controller) {
	t.Helper()
	a := c.effectiveModel()
	for _, e := range c.entries {
		if !analyzable(c.cfg.Targets.target(e.req.Class), e.req) {
			continue
		}
		m, err := c.missProb(a, e.req, c.entries)
		if err != nil {
			m = 1
		}
		if m != e.missProb {
			t.Fatalf("seed %d op %d: channel %#x stores miss %v, fresh analysis %v",
				seed, op, e.req.Subject, e.missProb, m)
		}
	}
}

// TestControllerMatchesOracle runs random request sequences (SRT/NRT
// mixes, tight and loose deadlines, rejections inside the check loop,
// releases, measured-rate ramps and backoff expiry) through the
// controller and the pre-change oracle: decisions, counts, sheds and
// snapshots must be identical.
func TestControllerMatchesOracle(t *testing.T) {
	var cov diffCoverage
	for seed := uint64(1); seed <= 240; seed++ {
		runDiffSequence(t, seed, &cov)
	}
	t.Logf("coverage %+v", cov)
	if cov.admitted < 200 || cov.loopRejected == 0 || cov.rejected < 100 ||
		cov.released < 100 || cov.shed == 0 || cov.rateChanges < 100 {
		t.Fatalf("random sequences exercise too little: %+v", cov)
	}
}

// randomSet draws a message set and a target within it.
func randomSet(rng *sim.RNG) ([]Msg, int) {
	set := make([]Msg, 1+rng.Intn(8))
	for i := range set {
		set[i] = Msg{
			Prio:    can.Prio(rng.Intn(6)),
			Period:  sim.Duration(500+rng.Intn(19500)) * sim.Microsecond,
			Jitter:  sim.Duration(rng.Intn(200)) * sim.Microsecond,
			Payload: rng.Intn(9),
		}
		if rng.Bool(0.85) {
			set[i].Deadline = sim.Duration(100+rng.Intn(4900)) * sim.Microsecond
		}
	}
	return set, rng.Intn(len(set))
}

// sameBits reports whether two float slices hold identical bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestResponseScratchMatchesResponse checks the in-place analysis
// against Response and the pre-change oracle over random sets, with one
// scratch distribution reused across analyses of varying horizon: the
// same miss probability, zero-error response, transmission count and
// distribution bits. Response results must not alias the scratch.
func TestResponseScratchMatchesResponse(t *testing.T) {
	rng := sim.NewRNG(42)
	var scratch Dist
	var counts []int64
	type kept struct {
		res Result
		p   []float64
	}
	var keep []kept
	for i := 0; i < 300; i++ {
		a := randomAnalyzer(rng)
		if rng.Bool(0.2) {
			a.Horizon = 0 // 8× the deadline
		}
		set, target := randomSet(rng)
		want, werr := a.Response(set, target)
		ref, rerr := a.refResponse(set, target)
		if cap(counts) < len(set) {
			counts = make([]int64, len(set))
		}
		got, gerr := a.response(set, target, &scratch, counts[:len(set)])
		if (werr != nil) != (gerr != nil) || (werr != nil) != (rerr != nil) {
			t.Fatalf("set %d: errors %v / scratch %v / oracle %v", i, werr, gerr, rerr)
		}
		if werr != nil {
			continue
		}
		for _, r := range []Result{got, ref} {
			if math.Float64bits(r.MissProb) != math.Float64bits(want.MissProb) ||
				r.ZeroError != want.ZeroError || r.Transmissions != want.Transmissions ||
				r.LossProb != want.LossProb || r.Dist.tick != want.Dist.tick ||
				math.Float64bits(r.Dist.over) != math.Float64bits(want.Dist.over) ||
				!sameBits(r.Dist.p, want.Dist.p) {
				t.Fatalf("set %d: result %+v differs from Response %+v", i, r, want)
			}
		}
		if got.Dist != &scratch {
			t.Fatalf("set %d: scratch analysis returned another distribution", i)
		}
		if want.Dist.spare != nil {
			t.Fatalf("set %d: Response result keeps a spare buffer", i)
		}
		keep = append(keep, kept{want, append([]float64(nil), want.Dist.p...)})
	}
	if len(keep) < 100 {
		t.Fatalf("only %d of 300 random sets were schedulable", len(keep))
	}
	// Later scratch analyses must have left every Response result alone.
	for i, k := range keep {
		if !sameBits(k.res.Dist.p, k.p) {
			t.Fatalf("Response result %d changed by later scratch analyses", i)
		}
	}
}
