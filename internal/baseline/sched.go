package baseline

import (
	"encoding/binary"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
	"canec/internal/workload"
)

// JobDone records the fate of one job under some scheduler.
type JobDone struct {
	Job       workload.Job
	Completed sim.Time // 0 if never transmitted
	Missed    bool     // transmitted after its deadline
	Dropped   bool     // expired / never transmitted inside the horizon
}

// Outcome aggregates a scheduler run.
type Outcome struct {
	Jobs       []JobDone
	Promotions uint64 // identifier rewrites performed (EDF only)
}

// MissRatio returns the fraction of jobs that missed their deadline or
// were dropped.
func (o Outcome) MissRatio() float64 {
	if len(o.Jobs) == 0 {
		return 0
	}
	bad := 0
	for _, j := range o.Jobs {
		if j.Missed || j.Dropped {
			bad++
		}
	}
	return float64(bad) / float64(len(o.Jobs))
}

// jobTag encodes (stream, seq) into a frame payload prefix so receivers
// can attribute completions. 2 bytes stream + 4 bytes seq.
const jobTagLen = 6

func putJobTag(dst []byte, j workload.Job) {
	binary.LittleEndian.PutUint16(dst, uint16(j.Stream))
	binary.LittleEndian.PutUint32(dst[2:], uint32(j.Seq))
}

func getJobTag(src []byte) (stream, seq int) {
	return int(binary.LittleEndian.Uint16(src)), int(binary.LittleEndian.Uint32(src[2:]))
}

// payloadFor pads the tagged payload to the stream's nominal size so all
// schedulers pay identical wire costs (minimum jobTagLen).
func payloadFor(j workload.Job, s workload.Stream) []byte {
	n := s.Payload
	if n < jobTagLen {
		n = jobTagLen
	}
	p := make([]byte, n)
	putJobTag(p, j)
	return p
}

// EDFOptions tune the paper's SRT machinery for ablation runs.
type EDFOptions struct {
	Bands core.Bands
	// DisablePromotion freezes priorities at enqueue time (§3.4 ablation).
	DisablePromotion bool
}

// RunEDF executes the job trace through the paper's soft real-time event
// channels (laxity→priority mapping with promotion) and reports per-job
// outcomes. Node count is max stream node + 2: the last node is a pure
// subscriber that timestamps completions.
func RunEDF(streams []workload.Stream, jobs []workload.Job, band core.Bands, seed uint64, until sim.Time) Outcome {
	return RunEDFOpts(streams, jobs, EDFOptions{Bands: band}, seed, until)
}

// RunEDFOpts is RunEDF with ablation switches.
func RunEDFOpts(streams []workload.Stream, jobs []workload.Job, opts EDFOptions, seed uint64, until sim.Time) Outcome {
	band := opts.Bands
	nodes := 0
	for _, s := range streams {
		if s.Node > nodes {
			nodes = s.Node
		}
	}
	nodes += 2
	sys, err := core.NewSystem(core.SystemConfig{
		Nodes: nodes, Seed: seed, Bands: band,
	})
	if err != nil {
		panic(err)
	}
	if opts.DisablePromotion {
		for _, n := range sys.Nodes {
			n.MW.DisablePromotion = true
		}
	}
	out := Outcome{Jobs: make([]JobDone, len(jobs))}
	done := make(map[[2]int]*JobDone, len(jobs))
	for i := range jobs {
		out.Jobs[i] = JobDone{Job: jobs[i]}
		done[[2]int{jobs[i].Stream, jobs[i].Seq}] = &out.Jobs[i]
	}

	chans := make([]*core.SRTEC, len(streams))
	for si, s := range streams {
		subject := binding.Subject(0x5000 + si)
		ch, err := sys.Node(s.Node).MW.SRTEC(subject)
		if err != nil {
			panic(err)
		}
		if err := ch.Announce(core.ChannelAttrs{}, nil); err != nil {
			panic(err)
		}
		chans[si] = ch
		sub, err := sys.Node(nodes - 1).MW.SRTEC(subject)
		if err != nil {
			panic(err)
		}
		sub.Subscribe(core.ChannelAttrs{}, core.SubscribeAttrs{},
			func(ev core.Event, di core.DeliveryInfo) {
				stream, seq := getJobTag(ev.Payload)
				if jd := done[[2]int{stream, seq}]; jd != nil {
					jd.Completed = di.ArrivedAt
					jd.Missed = di.ArrivedAt > jd.Job.Deadline
				}
			}, nil)
	}
	for i := range jobs {
		j := jobs[i]
		s := streams[j.Stream]
		sys.K.At(j.Release, func() {
			_ = chans[j.Stream].Publish(core.Event{
				Subject: binding.Subject(0x5000 + j.Stream),
				Payload: payloadFor(j, s),
				Attrs: core.EventAttrs{
					Deadline:   j.Deadline,
					Expiration: j.Expiration,
				},
			})
		})
	}
	sys.Run(until)
	for i := range out.Jobs {
		if out.Jobs[i].Completed == 0 {
			out.Jobs[i].Dropped = true
		}
	}
	out.Promotions = sys.Bus.Stats().IDRewrites
	return out
}

// RunDM executes the same trace under deadline-monotonic fixed priorities
// (Tindell/Burns-style, the discipline of CANopen/DeviceNet-era systems):
// each stream has one static priority for its whole lifetime, assigned by
// relative-deadline rank inside the same priority band the EDF scheme
// uses.
func RunDM(streams []workload.Stream, jobs []workload.Job, lo, hi can.Prio, seed uint64, until sim.Time) Outcome {
	deadlines := make([]sim.Duration, len(streams))
	for i, s := range streams {
		deadlines[i] = s.RelDeadline
	}
	prios, err := DeadlineMonotonic(deadlines, lo, hi)
	if err != nil {
		panic(err)
	}
	nodes := 0
	for _, s := range streams {
		if s.Node > nodes {
			nodes = s.Node
		}
	}
	nodes += 1
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	for i := 0; i < nodes; i++ {
		bus.Attach(can.TxNode(i))
	}
	out := Outcome{Jobs: make([]JobDone, len(jobs))}
	for i := range jobs {
		i := i
		j := jobs[i]
		s := streams[j.Stream]
		out.Jobs[i] = JobDone{Job: j}
		k.At(j.Release, func() {
			f := can.Frame{
				// Etag keyed by stream keeps identifiers unique across
				// streams sharing a node and priority.
				ID:   can.MakeID(prios[j.Stream], can.TxNode(s.Node), can.Etag(j.Stream+1)),
				Data: payloadFor(j, s),
			}
			h := bus.Controller(s.Node).Submit(f, can.SubmitOpts{Done: func(ok bool, at sim.Time) {
				if !ok {
					return
				}
				out.Jobs[i].Completed = at
				out.Jobs[i].Missed = at > j.Deadline
			}})
			if j.Expiration > 0 {
				k.At(j.Expiration, func() {
					bus.Controller(s.Node).Abort(h)
				})
			}
		})
	}
	k.Run(until)
	for i := range out.Jobs {
		if out.Jobs[i].Completed == 0 {
			out.Jobs[i].Dropped = true
		}
	}
	return out
}

// RunOracle executes the trace under a clairvoyant, centralized,
// non-preemptive EDF scheduler: at every bus-idle instant it transmits
// the globally earliest-deadline released job. No real distributed
// scheme on CAN can beat it; it bounds the gap left by the priority-slot
// quantization and the per-node queueing of the real protocols.
func RunOracle(streams []workload.Stream, jobs []workload.Job, seed uint64, until sim.Time) Outcome {
	nodes := 0
	for _, s := range streams {
		if s.Node > nodes {
			nodes = s.Node
		}
	}
	nodes += 1
	k := sim.NewKernel(seed)
	bus := can.NewBus(k, can.DefaultBitRate)
	for i := 0; i < nodes; i++ {
		bus.Attach(can.TxNode(i))
	}
	out := Outcome{Jobs: make([]JobDone, len(jobs))}

	type pending struct {
		idx int
	}
	var ready []pending
	busyWith := -1

	var dispatch func()
	dispatch = func() {
		if busyWith >= 0 || len(ready) == 0 {
			return
		}
		// Drop expired jobs, then pick the earliest deadline.
		now := k.Now()
		kept := ready[:0]
		for _, p := range ready {
			j := out.Jobs[p.idx].Job
			if j.Expiration > 0 && now >= j.Expiration {
				continue
			}
			kept = append(kept, p)
		}
		ready = kept
		if len(ready) == 0 {
			return
		}
		best := 0
		for i, p := range ready {
			if out.Jobs[p.idx].Job.Deadline < out.Jobs[ready[best].idx].Job.Deadline {
				best = i
			}
		}
		p := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		j := out.Jobs[p.idx].Job
		s := streams[j.Stream]
		busyWith = p.idx
		bus.Controller(s.Node).Submit(can.Frame{
			ID:   can.MakeID(10, can.TxNode(s.Node), can.Etag(j.Stream+1)),
			Data: payloadFor(j, s),
		}, can.SubmitOpts{Done: func(ok bool, at sim.Time) {
			if ok {
				out.Jobs[p.idx].Completed = at
				out.Jobs[p.idx].Missed = at > j.Deadline
			}
			busyWith = -1
			dispatch()
		}})
	}

	for i := range jobs {
		i := i
		out.Jobs[i] = JobDone{Job: jobs[i]}
		k.At(jobs[i].Release, func() {
			ready = append(ready, pending{idx: i})
			dispatch()
		})
	}
	k.Run(until)
	for i := range out.Jobs {
		if out.Jobs[i].Completed == 0 {
			out.Jobs[i].Dropped = true
		}
	}
	return out
}
