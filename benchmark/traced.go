package main

import (
	"fmt"
	"io"
	"runtime"

	"canec/internal/core"
	"canec/internal/frag"
	"canec/internal/sim"
)

// runTraced produces the per-layer metrics: two untraced reference
// repetitions, then one repetition with spans, captures and the stage
// clock attached, then the isolated replays over what was captured.
func runTraced(w workloadDef, o runOpts, log io.Writer) (*result, error) {
	p := w.makePlan(o.seed, o.scale)
	fmt.Fprintf(log, "# %s (traced): %s\n", w.Name, p.describe())

	ref, err := repeat(p, nil, 2, 0)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	refWall := medianWall(ref)

	rec := newRecorder(w.Name)
	root := rec.begin("run")
	setup := rec.begin("setup")
	in, err := build(p, rec)
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	traced := measure(in)
	kernelRun := rec.find("kernel.run")

	res := newResult(w.Name, append(ref, traced))
	res.traced = true
	m := res.metrics
	out, c, cap := traced.out, traced.out.counters, in.cap
	frames := float64(out.frames)
	refNs := refWall * 1e9

	// sim
	heapNs, heapOps := in.clockTap.stageNs(sim.ProbeHeap)
	stepNs := replaySim(out.steps, uint64(heapOps), cap.meanHeap())
	m["sim.steps"] = float64(out.steps)
	m["sim.steps_per_frame"] = float64(out.steps) / frames
	m["sim.heap_high_water"] = float64(out.heapHigh)
	m["sim.ns_per_step_isolated"] = stepNs
	m["sim.share"] = float64(out.steps) * stepNs / refNs
	m["sim.speedup"] = out.simSeconds / refWall
	m["sim.probe_heap_ns"] = float64(heapNs)
	m["sim.probe_heap_ops"] = float64(heapOps)

	// can
	busNs, busAllocs, busSteps := replayBus(cap)
	// The bus replay runs on a kernel of its own; take that kernel's
	// steps out so sim and can do not count the same work twice.
	canNs := float64(len(cap.ids)) * (busNs - busSteps*stepNs)
	arbNs, _ := in.clockTap.stageNs(sim.ProbeArbitration)
	codecNs, codecOps := in.clockTap.stageNs(sim.ProbeCodec)
	m["can.frames_ok"] = float64(out.bus.FramesOK)
	m["can.frames_error"] = float64(out.bus.FramesError)
	m["can.arb_rounds"] = float64(out.bus.ArbRounds)
	m["can.id_rewrites"] = float64(out.bus.IDRewrites)
	m["can.bus_utilization"] = float64(out.bus.BusyTime) / float64(len(in.systems)) / (out.simSeconds * 1e9)
	m["can.wirebits_ns_per_frame_isolated"] = replayWireBits(cap)
	m["can.bus_ns_per_frame_isolated"] = busNs
	m["can.bus_allocs_per_frame_isolated"] = busAllocs
	m["can.share"] = canNs / refNs
	m["can.probe_arbitration_ns"] = float64(arbNs)
	m["can.probe_codec_ns"] = float64(codecNs)
	m["can.probe_codec_ops"] = float64(codecOps)

	// core, per class
	var publishNs int64
	for class, name := range map[core.Class]string{core.HRT: "hrt", core.SRT: "srt", core.NRT: "nrt"} {
		d := sortInts(rec.durations("core." + name + ".publish"))
		for _, v := range d {
			publishNs += v
		}
		pub, del := classCount(c, class)
		m["core."+name+".published"] = float64(pub)
		m["core."+name+".delivered"] = float64(del)
		m["core."+name+".publish_ns_p50"] = quantile(d, 0.50)
		m["core."+name+".publish_ns_p99"] = quantile(d, 0.99)
		pc := sim.ProbeClassHRT + sim.ProbeClass(class)
		m["core.probe_enqueue_ns."+name] = float64(in.clockTap.ns[sim.ProbeEnqueue][pc])
		m["core.probe_dispatch_ns."+name] = float64(in.clockTap.ns[sim.ProbeDispatch][pc])
	}
	m["core.hrt.slots_fired"] = float64(c.SlotsFired)
	m["core.hrt.slots_unused"] = float64(c.SlotsUnused)
	m["core.hrt.copies_suppressed"] = float64(c.CopiesSuppressed)
	m["core.hrt.redundant_copies"] = float64(c.RedundantCopiesSent)
	m["core.srt.promotions"] = float64(c.PromotionsApplied)
	m["core.srt.deadline_missed"] = float64(c.DeadlineMissed)
	m["core.srt.expired"] = float64(c.Expired)
	m["core.nrt.frag_errors"] = float64(c.FragErrors)
	m["core.overflows"] = float64(c.Overflows)

	// edf
	m["edf.calls"] = float64(c.PublishedSRT + c.PromotionsApplied)
	m["edf.priofor_ns_isolated"] = replayEDF(cap)

	// frag
	var bulkSize int
	var fragMsgs, fragFrames, reasmKiB float64
	for _, s := range in.streams {
		if s.sp.frag {
			bulkSize = s.sp.size
			fragMsgs += float64(s.published)
			// A forwarded message is fragmented and reassembled again
			// on every segment it crosses.
			segs := 1.0
			if s.sp.forwarded() {
				segs += float64(len(p.hops))
			}
			fragFrames += segs * float64(s.published*frag.FrameCount(s.sp.size))
			reasmKiB += segs * float64(s.published*s.sp.size) / 1024
		}
	}
	fragNs, reasmNs := replayFrag(bulkSize)
	m["frag.messages"] = fragMsgs
	m["frag.frames"] = fragFrames
	m["frag.fragment_ns_per_kib_isolated"] = fragNs
	m["frag.reassemble_ns_per_kib_isolated"] = reasmNs

	// calendar / clock
	var slots int
	for _, sys := range in.systems {
		if sys.Cfg.Calendar != nil {
			slots += len(sys.Cfg.Calendar.Slots)
		}
	}
	m["calendar.slots_per_round"] = float64(slots)
	m["calendar.pack_ms"] = float64(in.packNs) / 1e6
	m["clock.sync_frames"] = float64(cap.syncFrames)

	// prob
	m["prob.requests"] = float64(c.AdmissionAdmitted + c.AdmissionRejected)
	m["prob.admitted"] = float64(c.AdmissionAdmitted)
	m["prob.rejected"] = float64(c.AdmissionRejected)
	admit := sortInts(append([]int64(nil), in.admitNs...))
	m["prob.request_us_p50"] = quantile(admit, 0.50) / 1e3
	m["prob.request_us_max"] = quantile(admit, 1) / 1e3

	// gateway
	for _, b := range in.bridges {
		m["gateway.forwarded"] += float64(b.Forwarded())
		m["gateway.received"] += float64(b.Received())
		m["gateway.dropped"] += float64(b.Dropped())
		m["gateway.late"] += float64(b.Late())
	}
	gw := sortInts(rec.durations("gateway.receive"))
	var gatewayNs int64
	for _, v := range gw {
		gatewayNs += v
	}
	m["gateway.receive_ns_p50"] = quantile(gw, 0.50)
	m["gateway.receive_ns_p99"] = quantile(gw, 0.99)

	// relay
	rs, err := replayRelay(cap.relay, rec)
	if err != nil {
		res.notes = append(res.notes, "relay layer not measured: "+err.Error())
	}
	m["relay.loopback_ns_per_frame"] = rs.nsPerFrame
	m["relay.loopback_allocs_per_frame"] = rs.allocsPerFrame
	m["relay.bytes_per_frame"] = rs.bytesPerFrame
	m["relay.dropped"] = float64(rs.dropped)

	// obs
	if obsv := in.systems[0].Obs; obsv != nil {
		recs := obsv.Records()
		m["obs.records"] = float64(len(recs)) + float64(obsv.Tracer().Dropped())
		m["obs.records_per_frame"] = m["obs.records"] / frames
		m["obs.causal.add_ns_per_record_isolated"], _ = replayCausal(recs)
		m["obs.causal.chains"] = float64(in.causal.Snapshot().Chains)

		plain := *p
		plain.obsLevel = obsOff
		off, err := repeat(&plain, nil, 2, 0)
		if err != nil {
			return nil, err
		}
		m["obs.tax_ratio"] = refWall / medianWall(off)
		m["obs.perturbs_virtual_time"] = 0
		if off[0].out.digest != ref[0].out.digest {
			m["obs.perturbs_virtual_time"] = 1
		}
	}
	if w.Name == "mixed" {
		names := []string{"off", "metrics", "trace", "causal", "flight_slo", "profiler"}
		for lvl, name := range names {
			rung := w.makePlan(o.seed, o.scale/5)
			rung.obsLevel = lvl
			r, err := repeat(rung, nil, 1, 0)
			if err != nil {
				return nil, err
			}
			m["obs.ladder."+name+"_ns_per_frame"] = r[0].wall * 1e9 / float64(r[0].out.frames)
		}
	}

	// harness / runtime
	self := refNs - float64(publishNs+gatewayNs)
	simNs := float64(out.steps) * stepNs
	m["harness.kernel_run_self_ns_per_frame"] = self / frames
	m["harness.unattributed_share"] = (self - simNs - canNs - reasmKiB*reasmNs) / refNs
	m["harness.trace_overhead_ratio"] = float64(rec.spans[kernelRun].End-rec.spans[kernelRun].Start) / refNs
	var gcCycles, gcPause float64
	for _, r := range ref {
		gcCycles += float64(r.gcCycles)
		gcPause += float64(r.gcPauseNs)
	}
	m["go.gc_cycles"] = gcCycles / float64(len(ref))
	m["go.gc_pause_ms_total"] = gcPause / float64(len(ref)) / 1e6
	m["go.heap_peak_mb"] = float64(ms.HeapSys) / 1e6

	// virtual results
	v := traced.virt
	m["vt.sim_seconds"] = out.simSeconds
	m["vt.hrt_jitter_us_max"] = v.hrtJitterUsMax
	m["vt.srt_latency_us_p50"] = v.srtP50Us
	m["vt.srt_latency_us_p99"] = v.srtP99Us
	m["vt.srt_latency_samples"] = float64(v.srtSamples)
	m["vt.srt_miss_ratio"] = v.srtMissRatio
	m["vt.nrt_goodput_kbps"] = v.nrtGoodputKbps
	m["vt.hop_latency_us_p99"] = v.hopP99Us
	m["vt.hop_latency_samples"] = float64(v.hopSamples)

	rec.end(root)
	path, err := rec.write(outDir)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
	return res, nil
}

// classCount picks a class's published/delivered counters.
func classCount(c core.Counters, class core.Class) (published, delivered uint64) {
	switch class {
	case core.HRT:
		return c.PublishedHRT, c.DeliveredHRT
	case core.SRT:
		return c.PublishedSRT, c.DeliveredSRT
	}
	return c.PublishedNRT, c.DeliveredNRT
}
