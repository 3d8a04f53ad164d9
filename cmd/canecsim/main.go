// canecsim runs one mixed-traffic scenario on the simulated CAN segment —
// a JSON scenario file (-config), or the mix its flags describe, lowered
// onto the same scenario type — and prints the scenario report: per-class
// counts, latency and jitter statistics, exception counts, quality of
// control, and bus utilization.
//
// Example:
//
//	canecsim -nodes 16 -hrt 4 -srt-load 0.6 -bulk 32768 -faults 0.01 -dur 2s
//	canecsim -config testdata/scenario-automotive.json -pace 1 -admin 127.0.0.1:8080
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/control"
	"canec/internal/frag"
	"canec/internal/obs"
	"canec/internal/obs/admin"
	"canec/internal/scenario"
	"canec/internal/sim"
	"canec/internal/stats"
	"canec/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program: it owns no package-level state, so tests call
// it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("canecsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes    = fs.Int("nodes", 8, "number of stations (2..127)")
		hrt      = fs.Int("hrt", 2, "number of periodic HRT channels (each gets a 10 ms slot)")
		srtLoad  = fs.Float64("srt-load", 0.4, "offered SRT utilization (0..1.5)")
		bulk     = fs.Int("bulk", 16384, "bytes of NRT bulk data to stream (0 disables)")
		faults   = fs.Float64("faults", 0, "per-frame consistent error probability")
		omission = fs.Int("omission", 1, "HRT omission degree k")
		nCtl     = fs.Int("control", 0, "number of closed PID control loops riding event channels (classes cycle SRT/HRT/NRT)")
		dur      = fs.Duration("dur", 2*time.Second, "simulated duration")
		seed     = fs.Uint64("seed", 1, "random seed")
		drift    = fs.Float64("drift", 100, "max clock drift (ppm)")
		traceN   = fs.Int("trace", 0, "dump the last N bus events candump-style")
		config   = fs.String("config", "", "run a JSON scenario file instead of the flag-driven mix")
		chaosCfg = fs.String("chaos", "", "JSON chaos script (crash/restart/burst/omission/babble/bit_error/busoff_attack campaign) applied to the scenario")
		hist     = fs.Bool("hist", false, "print the SRT latency distribution histogram")
		prom     = fs.String("prom", "", "write the run's metrics registry to this file (Prometheus text format)")
		adminOpt = fs.String("admin", "", "serve the admin introspection plane on this address during a -pace run")
		pace     = fs.Float64("pace", 0, "throttle the run against the wall clock at this many virtual ns per wall ns (0 = free-running, deterministic)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "canecsim:", err)
		return 1
	}
	if *adminOpt != "" && *pace <= 0 {
		return fail(errors.New("-admin needs -pace > 0 (a free-running simulation finishes before anything could poll it)"))
	}

	sc := fromFlags(*nodes, *hrt, *srtLoad, *bulk, *faults, *omission, *nCtl, *dur, *seed, *drift)
	if *config != "" {
		var err error
		if sc, err = scenario.LoadFile(*config); err != nil {
			return fail(err)
		}
	}
	if *chaosCfg != "" {
		// Build validates the overlaid script against the scenario.
		data, err := os.ReadFile(*chaosCfg)
		if err != nil {
			return fail(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		sc.Chaos = new(chaos.Script)
		if err := dec.Decode(sc.Chaos); err != nil {
			return fail(fmt.Errorf("chaos script %s: %w", *chaosCfg, err))
		}
	}
	// -prom and -admin read the same registry: either turns metrics on.
	if *prom != "" || *adminOpt != "" {
		sc.Observe = &obs.Config{Metrics: true}
	}
	in, err := sc.Build()
	if err != nil {
		return fail(err)
	}
	sys := in.Sys
	var ring *trace.Ring
	if *traceN > 0 {
		ring = trace.NewRing(*traceN)
		sys.Bus.Trace = ring.Hook(sys.Bus.Trace)
	}

	if *pace > 0 {
		// Paced mode: the same discrete-event run, throttled against the
		// wall clock (1.0 = real time). Opt-in; free-running stays default
		// so results remain bit-reproducible. The admin plane, when
		// requested, serves live state for the run's duration.
		paced := sim.NewPaced(sys.K, *pace)
		var adm *admin.Server
		if *adminOpt != "" {
			opts := admin.SystemOptions("canecsim", sys, paced)
			opts.Control = admin.LoopRows(in.Loops)
			if adm, err = admin.Serve(*adminOpt, opts); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "canecsim: admin on %s\n", adm.Addr())
		}
		paced.Run(in.End)
		if adm != nil {
			adm.Close() // before Finish: handlers read kernel state
		}
	} else {
		sys.Run(in.End)
	}

	rep := in.Finish()
	c, bus := rep.Counters, sys.Bus.Stats()
	fmt.Fprint(stdout, rep.String())
	fmt.Fprintf(stdout, "bus: utilization %.1f%%, %d frames ok, %d error frames, %d ID rewrites\n",
		100*rep.Utilization, bus.FramesOK, bus.FramesError, bus.IDRewrites)
	fmt.Fprintf(stdout, "redundancy: %d copies suppressed, %d redundant copies sent, %d duplicates dropped\n",
		c.CopiesSuppressed, c.RedundantCopiesSent, c.DuplicatesDropped)
	if *hist {
		// Re-bin from the retained series (histograms are for display; the
		// exact series already holds the samples).
		p99 := rep.SRTLatency.Quantile(0.99)
		h := stats.NewHistogram("SRT latency µs", 0, 2*p99/1000+1, 24)
		for q := 0.0; q <= 1.0; q += 0.005 {
			h.Observe(rep.SRTLatency.Quantile(q) / 1000)
		}
		fmt.Fprintf(stdout, "\n%s", h.Render())
	}
	if ring != nil {
		fmt.Fprintf(stdout, "\n-- last %d of %d bus events --\n", len(ring.Entries()), ring.Total())
		if err := ring.Dump(stdout); err != nil {
			return fail(err)
		}
	}
	if rep.Chaos != nil && len(rep.Chaos.Violations) > 0 {
		return fail(fmt.Errorf("%d trace invariants violated", len(rep.Chaos.Violations)))
	}
	if *prom != "" {
		if err := writeProm(*prom, sys.Obs.Registry()); err != nil {
			return fail(err)
		}
	}
	return 0
}

func writeProm(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fromFlags lowers the flag-described mix onto a scenario: nHRT periodic
// channels with a 10 ms slot each, one sporadic SRT stream per station
// sized so the streams together offer srtLoad, one fragmented bulk
// transfer re-sent about as fast as the capacity SRT leaves free drains
// it, and nCtl PID loops on a double integrator cycling through the
// classes, so one run contrasts the quality of control each delivers.
func fromFlags(nodes, nHRT int, srtLoad float64, bulk int, faults float64,
	omission, nCtl int, dur time.Duration, seed uint64, drift float64) *scenario.Scenario {

	sc := &scenario.Scenario{
		Name: "canecsim", Nodes: nodes, Seed: seed, DurationMs: dur.Milliseconds(),
		MaxDriftPPM: drift, FaultRate: faults, OmissionDegree: omission,
	}
	// Validate rejects a node count below 2; until then keep the station
	// arithmetic defined.
	station := func(i int) int { return i % max(nodes, 1) }
	for i := 0; i < nHRT; i++ {
		sc.HRT = append(sc.HRT, scenario.HRTStream{
			Subject: uint64(0x100 + i), Publisher: i, Subscriber: station(i + 1), PeriodUs: 10000, Payload: 7})
	}
	frame := can.BitTime(can.WorstCaseBits(8), can.DefaultBitRate)
	if srtLoad > 0 {
		period := int64(float64(frame) * float64(nodes) / srtLoad / float64(sim.Microsecond))
		for i := 0; i < nodes; i++ {
			sc.SRT = append(sc.SRT, scenario.SRTStream{
				Subject: uint64(0x300 + i), Publisher: i, Subscriber: station(i + 2),
				MeanPeriodUs: period, DeadlineUs: 10000, ExpirationUs: 50000, Payload: 8, Sporadic: true})
		}
	}
	if bulk > 0 {
		wire := float64(frag.FrameCount(bulk)) * float64(frame)
		repeat := math.Ceil(wire / math.Max(0.1, 1-srtLoad) / float64(sim.Millisecond))
		sc.NRT = append(sc.NRT, scenario.NRTBulk{
			Subject: 0x500, Publisher: nodes - 1, Subscriber: 0, Bytes: bulk, RepeatMs: int64(repeat), Prio: 254})
	}
	classes := []string{"srt", "hrt", "nrt"}
	for i := 0; i < nCtl; i++ {
		sc.Control = append(sc.Control, scenario.ControlLoop{
			Name:  fmt.Sprintf("loop%d", i),
			Plant: control.PlantDoubleIntegrator, Controller: control.ControllerPID,
			Class:  classes[i%len(classes)],
			Sensor: station(i), ControllerNode: station(i + 1), Actuator: station(i),
			SensorSubject: uint64(0x600 + 2*i), CommandSubject: uint64(0x601 + 2*i),
			PeriodUs: 10000, Setpoint: 0, Initial: 1,
		})
	}
	return sc
}
