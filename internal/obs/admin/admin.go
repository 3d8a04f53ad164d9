// Package admin embeds a live-introspection HTTP plane into a canec
// process. One Server exposes the node-local view of a running system:
// Prometheus metrics, bound channels with queue depths and miss
// counters, SLO burn state, relay link health, flight-recorder status,
// and the stock net/http/pprof profiles.
//
// The kernel is single-toucher: every handler that reads kernel-owned
// state (the metrics registry, middleware channel tables, SLO
// objectives) routes the read through Host.InKernel. A paced daemon
// passes sim.Paced.Call so the snapshot happens between kernel steps;
// non-paced embedders may leave it nil and the read runs inline.
package admin

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"canec/internal/can"
	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/obs/perf"
	"canec/internal/prob"
	"canec/internal/sim"
)

// ChannelRow is one bound channel on one node, as served at /channels.
type ChannelRow struct {
	Node       int    `json:"node"`
	Subject    string `json:"subject"`
	Etag       uint16 `json:"etag"`
	Class      string `json:"class"`
	TxNode     int    `json:"tx_node"` // announcing node, -1 for a pure subscriber row
	Announced  bool   `json:"announced"`
	Subscribed bool   `json:"subscribed"`
	Queued     int    `json:"queued"`
	Missed     uint64 `json:"missed"`
}

// RelayRow is one relay endpoint (listener or uplink) as served at
// /relay. All fields come from atomics or mutex-guarded snapshots, so
// the producing closure is safe to call from the HTTP goroutine
// without kernel context.
type RelayRow struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "listen" or "uplink"
	Connected bool   `json:"connected"`
	Peers     int    `json:"peers,omitempty"`
	DepthHRT  int    `json:"depth_hrt"`
	DepthSRT  int    `json:"depth_srt"`
	DepthNRT  int    `json:"depth_nrt"`
	Sent      uint64 `json:"sent"`
	Received  uint64 `json:"received"`
	Dropped   uint64 `json:"dropped"`
	Late      uint64 `json:"late"`
	Redials   uint64 `json:"redials"`
	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
}

// Health is the /healthz payload.
type Health struct {
	Status     string  `json:"status"` // "ok" or "breached"
	Segment    string  `json:"segment"`
	VirtualNow int64   `json:"virtual_now_ns"`
	Uptime     float64 `json:"uptime_seconds"`
	TraceBase  uint64  `json:"trace_base"`
	Channels   int     `json:"channels"`
	Links      int     `json:"links"`
	LinksUp    int     `json:"links_up"`
	Breached   bool    `json:"slo_breached"`
	FlightLen  int     `json:"flight_records"`
	Dumps      int     `json:"postmortems"`
	// Fault-confinement summary (zero when the error machine is off):
	// controllers currently error-passive / bus-off, plus the total
	// bus-off entries since boot.
	ErrorPassive int    `json:"error_passive"`
	BusOff       int    `json:"bus_off"`
	BusOffTotal  uint64 `json:"busoff_total"`
}

// SLOView is the /slo payload: the objective list plus engine-level
// context a fleet poller wants in one fetch.
type SLOView struct {
	Segment    string          `json:"segment"`
	VirtualNow int64           `json:"virtual_now_ns"`
	Enabled    bool            `json:"enabled"`
	Breached   bool            `json:"breached"`
	Objectives []obs.Objective `json:"objectives"`
	LastDump   []string        `json:"last_dump,omitempty"`
}

// ProfileView is the /profile payload: the kernel profiler's live
// stage breakdown plus health counters.
type ProfileView struct {
	Segment string        `json:"segment"`
	Enabled bool          `json:"enabled"`
	Profile perf.Snapshot `json:"profile"`
}

// AdmissionView is the /admission payload: the probabilistic admission
// controller's snapshot (admitted set with predicted miss probabilities,
// rejection counts by typed reason, planned vs measured error rates), or
// enabled:false when no controller is configured.
type AdmissionView struct {
	Segment    string `json:"segment"`
	VirtualNow int64  `json:"virtual_now_ns"`
	prob.Snapshot
}

// ControlRow is one closed control loop as served at /control: the
// loop's live quality-of-control snapshot projected into flat JSON.
type ControlRow struct {
	Loop       string  `json:"loop"`
	Class      string  `json:"class"`
	Cost       float64 `json:"cost"`
	CostPerSec float64 `json:"cost_per_sec"`
	Settled    bool    `json:"settled"`
	SettlingMs float64 `json:"settling_ms"`
	Overshoot  float64 `json:"overshoot"`
	MaxDev     float64 `json:"max_dev"`
	FinalDev   float64 `json:"final_dev"`
	Stale      uint64  `json:"stale"`
	Applied    uint64  `json:"applied"`
	Commands   uint64  `json:"commands"`
	LatP50Us   float64 `json:"lat_p50_us"`
	LatP99Us   float64 `json:"lat_p99_us"`
}

// ControlView is the /control payload.
type ControlView struct {
	Segment    string       `json:"segment"`
	VirtualNow int64        `json:"virtual_now_ns"`
	Enabled    bool         `json:"enabled"`
	Loops      []ControlRow `json:"loops"`
}

// WhyView is the /why payload: the why-late engine's cause profiles and
// recent incident chains.
type WhyView struct {
	Segment    string `json:"segment"`
	VirtualNow int64  `json:"virtual_now_ns"`
	Enabled    bool   `json:"enabled"`
	causal.Snapshot
}

// flightView is the /flight payload.
type flightView struct {
	Enabled bool     `json:"enabled"`
	Records int      `json:"records"`
	PerNode int      `json:"per_node"`
	Dumps   []string `json:"dumps"`
}

// Host is what a process hands its admin plane: the one system it runs,
// plus the parts of the process the system does not own.
type Host struct {
	// Segment names this process in /healthz and the other payloads.
	Segment string
	// Sys backs every kernel-owned view: metrics, channels, SLO, error
	// state, admission, flight recorder and the why-late engine. It must
	// run with an observer (SystemConfig.Observe).
	Sys *core.System
	// Loops are the closed control loops served at /control.
	Loops []*control.Loop
	// Relay produces the /relay rows. Called WITHOUT kernel context —
	// relay counters and depths are goroutine-safe by contract.
	Relay func() []RelayRow
	// InKernel runs fn in kernel context (sim.Paced.Call for a paced
	// host). Nil calls fn directly.
	InKernel func(func())
}

// endpoints is the plane's one list of paths: it builds the mux, the
// index page and, through Endpoints, canecd's -admin usage text.
var endpoints = []struct {
	path   string
	handle func(*Server, http.ResponseWriter, *http.Request)
}{
	{"/metrics", (*Server).handleMetrics},
	{"/healthz", (*Server).handleHealthz},
	{"/channels", (*Server).handleChannels},
	{"/slo", (*Server).handleSLO},
	{"/relay", (*Server).handleRelay},
	{"/flight", (*Server).handleFlight},
	{"/profile", (*Server).handleProfile},
	{"/admission", (*Server).handleAdmission},
	{"/control", (*Server).handleControl},
	{"/why", (*Server).handleWhy},
	{"/debug/pprof/", func(_ *Server, w http.ResponseWriter, r *http.Request) { pprof.Index(w, r) }},
}

// Endpoints lists the paths the plane serves, in index order.
func Endpoints() []string {
	paths := make([]string, len(endpoints))
	for i, ep := range endpoints {
		paths[i] = ep.path
	}
	return paths
}

// closeWait bounds how long Close waits for in-kernel reads to finish.
const closeWait = 5 * time.Second

// Server is a running admin endpoint bound to one TCP listener.
type Server struct {
	h     Host
	why   *causal.Analyzer
	prof  *perf.Profiler
	ln    net.Listener
	srv   *http.Server
	start time.Time

	mu     sync.Mutex
	closed bool
	reads  sync.WaitGroup // in-kernel reads in progress
}

// Serve binds addr (e.g. "127.0.0.1:0") and starts serving h in the
// background. It attaches the why-late engine (when the system has none)
// and a kernel profiler, so call it before the kernel runs.
func Serve(addr string, h Host) (*Server, error) {
	sys := h.Sys
	if sys.Obs == nil {
		return nil, errors.New("admin: system runs without an observer")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if sys.Obs.Causal() == nil {
		sys.Obs.AttachCausal(causal.New(causal.Config{Registry: sys.Obs.Registry(), KeepRecent: 16}))
	}
	s := &Server{h: h, prof: &perf.Profiler{}, ln: ln, start: time.Now()}
	s.why, _ = sys.Obs.Causal().(*causal.Analyzer)
	s.prof.AttachKernel(sys.K)
	s.prof.SetBusySource(func() sim.Duration { return sys.Bus.Stats().BusyTime })
	s.prof.Register(sys.Obs.Registry())
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	for _, ep := range endpoints {
		mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) { ep.handle(s, w, r) })
	}
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// Addr reports the bound address with the ephemeral port resolved.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and drops open connections, then returns once
// no handler is inside InKernel (waiting at most closeWait), so the
// caller owns the kernel again. Handlers that never enter the kernel,
// such as a pprof profile, do not hold it up.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Close()
	done := make(chan struct{})
	go func() { s.reads.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(closeWait):
	}
	return err
}

// inKernel runs fn in kernel context. Once Close has begun it skips fn:
// Close dropped the handler's connection, so nobody reads the reply.
func (s *Server) inKernel(fn func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.reads.Add(1)
	s.mu.Unlock()
	defer s.reads.Done()
	if s.h.InKernel != nil {
		s.h.InKernel(fn)
	} else {
		fn()
	}
}

// vnow reads the virtual clock; kernel context.
func (s *Server) vnow() int64 { return int64(s.h.Sys.K.Now()) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client hangup only
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "canec admin plane (segment %q)\n\n", s.h.Segment)
	for _, ep := range endpoints {
		fmt.Fprintln(w, ep.path)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.h.Sys.Obs.Registry()
	if reg == nil {
		http.Error(w, "no metrics registry", http.StatusNotFound)
		return
	}
	// Render inside kernel context: counters and histograms are
	// kernel-owned and WriteText reads them without locks.
	var b bytes.Buffer
	s.inKernel(func() { reg.WriteText(&b) })
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes()) //nolint:errcheck
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sys := s.h.Sys
	h := Health{Status: "ok", Segment: s.h.Segment, Uptime: time.Since(s.start).Seconds()}
	s.inKernel(func() {
		h.VirtualNow = s.vnow()
		h.Channels = len(s.channels())
		for _, n := range sys.Nodes {
			switch n.Ctrl.State() {
			case can.ErrorPassive:
				h.ErrorPassive++
			case can.BusOff:
				h.BusOff++
			}
		}
		h.BusOffTotal = sys.Bus.Stats().BusOffEvents
		h.Breached = sys.SLO.Breached()
		if f := sys.Obs.Flight(); f != nil {
			h.FlightLen = f.Len()
			h.Dumps = len(f.Dumps())
		}
	})
	h.TraceBase = sys.Obs.TraceBase()
	for _, row := range s.relay() {
		h.Links++
		if row.Connected {
			h.LinksUp++
		}
	}
	if h.Breached {
		h.Status = "breached"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

// channels lists every bound channel on every node; kernel context.
func (s *Server) channels() []ChannelRow {
	var rows []ChannelRow
	for _, n := range s.h.Sys.Nodes {
		for _, ci := range n.MW.Channels() {
			tx := -1
			if ci.Announced {
				tx = n.Index
			}
			rows = append(rows, ChannelRow{
				Node:       n.Index,
				Subject:    fmt.Sprintf("0x%x", uint64(ci.Subject)),
				Etag:       uint16(ci.Etag),
				Class:      ci.Class.String(),
				TxNode:     tx,
				Announced:  ci.Announced,
				Subscribed: ci.Subscribed,
				Queued:     ci.Queued,
				Missed:     ci.Missed,
			})
		}
	}
	return rows
}

func (s *Server) handleChannels(w http.ResponseWriter, _ *http.Request) {
	var rows []ChannelRow
	s.inKernel(func() { rows = s.channels() })
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Node != rows[j].Node {
			return rows[i].Node < rows[j].Node
		}
		return rows[i].Subject < rows[j].Subject
	})
	writeJSON(w, rows)
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	slo := s.h.Sys.SLO
	view := SLOView{Segment: s.h.Segment, Objectives: []obs.Objective{}}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		if snap := slo.Snapshot(); snap != nil {
			view.Enabled = true
			view.Objectives = snap
		}
		view.Breached = slo.Breached()
		if slo != nil {
			view.LastDump = slo.LastDump
		}
	})
	writeJSON(w, view)
}

// relay produces the /relay rows; any goroutine.
func (s *Server) relay() []RelayRow {
	if s.h.Relay == nil {
		return []RelayRow{}
	}
	return s.h.Relay()
}

func (s *Server) handleRelay(w http.ResponseWriter, _ *http.Request) {
	rows := s.relay()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	writeJSON(w, rows)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	f := s.h.Sys.Obs.Flight()
	if f == nil {
		writeJSON(w, flightView{Dumps: []string{}})
		return
	}
	if r.Method == http.MethodPost {
		// Operator-triggered post-mortem: dump whatever the recorder
		// holds right now.
		var paths []string
		var err error
		s.inKernel(func() { paths, err = f.Dump("manual") })
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, paths)
		return
	}
	view := flightView{Enabled: true, PerNode: f.PerNode()}
	s.inKernel(func() { view.Records, view.Dumps = f.Len(), f.Dumps() })
	if view.Dumps == nil {
		view.Dumps = []string{}
	}
	writeJSON(w, view)
}

func (s *Server) handleProfile(w http.ResponseWriter, _ *http.Request) {
	view := ProfileView{Segment: s.h.Segment, Enabled: true}
	s.inKernel(func() { view.Profile = s.prof.Snapshot() })
	if view.Profile.Stages == nil {
		view.Profile.Stages = []perf.StageSnap{}
	}
	writeJSON(w, view)
}

func (s *Server) handleAdmission(w http.ResponseWriter, _ *http.Request) {
	view := AdmissionView{Segment: s.h.Segment}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		if ac := s.h.Sys.Admission; ac != nil {
			view.Snapshot = ac.Snapshot()
		}
	})
	if view.Admitted == nil {
		view.Admitted = []prob.AdmittedChannel{}
	}
	if view.Rejected == nil {
		view.Rejected = map[string]uint64{}
	}
	writeJSON(w, view)
}

func (s *Server) handleControl(w http.ResponseWriter, _ *http.Request) {
	view := ControlView{Segment: s.h.Segment, Enabled: len(s.h.Loops) > 0, Loops: []ControlRow{}}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		for _, l := range s.h.Loops {
			view.Loops = append(view.Loops, controlRow(l.Report()))
		}
	})
	sort.Slice(view.Loops, func(i, j int) bool { return view.Loops[i].Loop < view.Loops[j].Loop })
	writeJSON(w, view)
}

// controlRow projects one control.QoC report into its /control row.
func controlRow(q control.QoC) ControlRow {
	row := ControlRow{
		Loop: q.Loop, Class: q.Class,
		Cost: q.Cost, CostPerSec: q.CostPerSec,
		Settled: q.Settled, SettlingMs: float64(q.SettlingTime) / float64(sim.Millisecond),
		Overshoot: q.Overshoot, MaxDev: q.MaxDev, FinalDev: q.FinalDev,
		Stale: q.Stale, Applied: q.Applied, Commands: q.Commands,
	}
	if q.Latency != nil && q.Latency.N() > 0 {
		row.LatP50Us = q.Latency.Quantile(0.50)
		row.LatP99Us = q.Latency.Quantile(0.99)
	}
	return row
}

func (s *Server) handleWhy(w http.ResponseWriter, _ *http.Request) {
	view := WhyView{Segment: s.h.Segment, Enabled: true}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		view.Snapshot = s.why.Snapshot()
	})
	if view.Classes == nil {
		view.Classes = []causal.ClassProfile{}
	}
	if view.Recent == nil {
		view.Recent = []causal.ChainSummary{}
	}
	writeJSON(w, view)
}

// LinkRow adapts one relay endpoint into a RelayRow. connected covers
// the uplink side ("is the dial live"); listeners pass peers>0.
func LinkRow(name, kind string, connected bool, peers int, cnt interface {
	Sent() uint64
	Received() uint64
	Dropped() uint64
	Late() uint64
	Redials() uint64
	BytesIn() uint64
	BytesOut() uint64
}, depths func() (hrt, srt, nrt int)) RelayRow {
	h, sq, n := depths()
	return RelayRow{
		Name: name, Kind: kind, Connected: connected, Peers: peers,
		DepthHRT: h, DepthSRT: sq, DepthNRT: n,
		Sent: cnt.Sent(), Received: cnt.Received(),
		Dropped: cnt.Dropped(), Late: cnt.Late(), Redials: cnt.Redials(),
		BytesIn: cnt.BytesIn(), BytesOut: cnt.BytesOut(),
	}
}
