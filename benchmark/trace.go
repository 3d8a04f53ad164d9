package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"canec/internal/binding"
	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/gateway"
	"canec/internal/sim"
)

// Tracing from outside the program: a span recorder around the calls
// the harness makes into each layer, a capture of what crossed the
// boundaries it can tap (Bus.Trace, the gateway transport, its own
// Publish calls), and a sim.Probe that reads the program's stage clock.
// All of it exists only in the traced repetition; end-to-end metrics
// never come from a run that has it attached.

var wallEpoch = time.Now()

func wallNs() int64 { return int64(time.Since(wallEpoch)) }

// span is one bracketed call: start/end are wall nanoseconds since
// process start, parent indexes the enclosing span (-1 for the root).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int32  `json:"parent"`
	Workload string `json:"workload"`
}

// recorder keeps spans in memory; they are written when the run ends.
type recorder struct {
	workload string
	spans    []span
	cur      int32
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, spans: make([]span, 0, 1<<18), cur: -1}
}

func (r *recorder) begin(name string) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: wallNs(), Parent: r.cur, Workload: r.workload})
	r.cur = id
	return id
}

func (r *recorder) end(id int32) {
	r.spans[id].End = wallNs()
	r.cur = r.spans[id].Parent
}

// durations returns the length of every span with the given name.
func (r *recorder) durations(name string) []int64 {
	var out []int64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// find returns the first span with the given name.
func (r *recorder) find(name string) int32 {
	for i, s := range r.spans {
		if s.Name == name {
			return int32(i)
		}
	}
	return -1
}

func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// capture holds what the traced repetition saw at the layer boundaries,
// as inputs for the isolated replays.
type capture struct {
	// Every transmission attempt that started on a wire, in order:
	// identifier, payload (flat, 8 bytes per frame) and sending
	// controller (numbered across segments).
	ids     []can.ID
	lens    []uint8
	data    []byte
	senders []uint8

	syncFrames     int
	bandViolations int
	// (now, deadline) of every SRT publish, for the EDF mapping replay.
	edfNow, edfDeadline []sim.Time
	// Events that crossed the first gateway hop, for the relay replay.
	relay []gateway.RemoteEvent
	// Kernel heap depth sampled at every publish.
	heapSum, heapSamples uint64
}

const maxRelayCapture = 20000

func newCapture() *capture {
	return &capture{ids: make([]can.ID, 0, 1<<18), lens: make([]uint8, 0, 1<<18),
		data: make([]byte, 0, 8<<18), senders: make([]uint8, 0, 1<<18)}
}

func (c *capture) sampleHeap(depth int) {
	c.heapSum += uint64(depth)
	c.heapSamples++
}

func (c *capture) meanHeap() int {
	if c.heapSamples == 0 {
		return 0
	}
	return int(c.heapSum / c.heapSamples)
}

func (c *capture) addRelay(re gateway.RemoteEvent) {
	if len(c.relay) < maxRelayCapture {
		re.Payload = append([]byte(nil), re.Payload...)
		c.relay = append(c.relay, re)
	}
}

func (c *capture) frame(i int) can.Frame {
	return can.Frame{ID: c.ids[i], Data: c.data[8*i : 8*i+int(c.lens[i])]}
}

// tapBus chains onto the segment's Bus.Trace: it records every frame
// that starts on the wire and checks P_HRT < P_SRT < P_NRT on it — the
// frame's priority must lie in the band of its channel's class.
func (c *capture) tapBus(seg int, sys *core.System, streams []streamPlan) {
	bands := sys.Node(0).MW.Bands()
	base := uint8(seg * 16)
	prev := sys.Bus.Trace
	sys.Bus.Trace = func(e can.TraceEvent) {
		if prev != nil {
			prev(e)
		}
		if e.Kind != can.TraceTxStart {
			return
		}
		f := e.Frame
		c.ids = append(c.ids, f.ID)
		c.lens = append(c.lens, uint8(len(f.Data)))
		var d [8]byte
		copy(d[:], f.Data)
		c.data = append(c.data, d[:]...)
		c.senders = append(c.senders, base+uint8(e.Sender))

		prio, etag := f.ID.Prio(), f.ID.Etag()
		if etag == binding.SyncEtag {
			c.syncFrames++
			if prio != bands.SyncPrio {
				c.bandViolations++
			}
			return
		}
		subj, _ := sys.Bindings.SubjectOf(etag)
		i := int(subj) - int(subjectOf(0))
		if i < 0 || i >= len(streams) {
			c.bandViolations++
			return
		}
		var inBand bool
		switch streams[i].class {
		case core.HRT:
			inBand = prio == bands.HRTPrio
		case core.SRT:
			inBand = prio >= bands.SRT.Min && prio <= bands.SRT.Max
		case core.NRT:
			inBand = prio >= bands.NRTMin && prio <= bands.NRTMax
		}
		if !inBand {
			c.bandViolations++
		}
	}
}

// stageClock is the harness's sim.Probe: it reads the program's own
// overlapping stage clock (DESIGN §11 — the stages are not a partition
// and are never summed). When the workload already has a profiler
// attached, samples are passed on to it.
type stageClock struct {
	ns, ops [sim.NumProbeStages][sim.NumProbeClasses]int64
	next    sim.Probe
}

func (c *stageClock) StageNs(s sim.ProbeStage, cl sim.ProbeClass, wallNs int64) {
	c.ns[s][cl] += wallNs
	c.ops[s][cl]++
	if c.next != nil {
		c.next.StageNs(s, cl, wallNs)
	}
}

func (c *stageClock) stageNs(s sim.ProbeStage) (ns, ops int64) {
	for cl := range c.ns[s] {
		ns += c.ns[s][cl]
		ops += c.ops[s][cl]
	}
	return ns, ops
}
