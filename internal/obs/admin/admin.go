// Package admin embeds a live-introspection HTTP plane into a canec
// process. One Server exposes the node-local view of a running system:
// Prometheus metrics, bound channels with queue depths and miss
// counters, SLO burn state, relay link health, flight-recorder status,
// and the stock net/http/pprof profiles.
//
// The kernel is single-toucher: every handler that reads kernel-owned
// state (the metrics registry, middleware channel tables, SLO
// objectives) routes the read through Options.InKernel. A paced daemon
// passes sim.Paced.Call so the snapshot happens between kernel steps;
// non-paced embedders may leave it nil and the read runs inline.
package admin

import (
	"encoding/json"
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
// stage breakdown plus health counters, or enabled:false when no
// profiler is attached.
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
// recent incident chains, or enabled:false when no analyzer is attached.
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

// Options configures a Server. Every field is optional; endpoints
// backed by a nil field degrade gracefully (empty lists, enabled:false)
// instead of erroring, so one canecstat loop can poll heterogeneous
// daemons.
type Options struct {
	// Segment names this process in /healthz and /slo.
	Segment string
	// Registry backs /metrics.
	Registry *obs.Registry
	// Observer supplies the trace base and the flight recorder (unless
	// Flight overrides it).
	Observer *obs.Observer
	// SLO backs /slo and the breached bit in /healthz.
	SLO *obs.SLO
	// Flight backs /flight; defaults to Observer.Flight().
	Flight *obs.FlightRecorder
	// Now reads the virtual clock (kernel context).
	Now func() sim.Time
	// Channels produces the /channels rows (kernel context). See
	// SystemChannels for the stock core.System adapter.
	Channels func() []ChannelRow
	// Relay produces the /relay rows. Called WITHOUT kernel context —
	// relay counters and depths are goroutine-safe by contract.
	Relay func() []RelayRow
	// Profiler backs /profile. Snapshot reads kernel-owned state, so
	// the handler routes it through InKernel.
	Profiler *perf.Profiler
	// Admission produces the /admission snapshot (kernel context). See
	// SystemAdmission for the stock core.System adapter; nil serves
	// enabled:false.
	Admission func() prob.Snapshot
	// Control produces the /control rows (kernel context — loop state is
	// kernel-owned). See LoopRows for the stock control.Loop adapter; nil
	// serves enabled:false.
	Control func() []ControlRow
	// Why produces the /why snapshot (kernel context — the analyzer is
	// kernel-owned). See SystemWhy for the stock adapter over an
	// attached causal.Analyzer; nil serves enabled:false.
	Why func() causal.Snapshot
	// ErrorState summarizes the fault-confinement plane for /healthz:
	// controllers currently error-passive, currently bus-off, and total
	// bus-off entries. Reads kernel-owned controller state, so the
	// handler routes it through InKernel. See SystemErrorState for the
	// stock core.System adapter.
	ErrorState func() (passive, busoff int, total uint64)
	// InKernel runs fn in kernel context (e.g. sim.Paced.Call). Nil
	// means call fn directly.
	InKernel func(func())
}

// Server is a running admin endpoint bound to one TCP listener.
type Server struct {
	opts  Options
	ln    net.Listener
	srv   *http.Server
	start time.Time

	mu     sync.Mutex
	closed bool
}

// Serve binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/channels", s.handleChannels)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/relay", s.handleRelay)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/admission", s.handleAdmission)
	mux.HandleFunc("/control", s.handleControl)
	mux.HandleFunc("/why", s.handleWhy)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
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

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.srv.Close()
}

// inKernel routes fn through the configured kernel-context bridge.
func (s *Server) inKernel(fn func()) {
	if s.opts.InKernel != nil {
		s.opts.InKernel(fn)
		return
	}
	fn()
}

// vnow reads the virtual clock; kernel context.
func (s *Server) vnow() int64 {
	if s.opts.Now == nil {
		return 0
	}
	return int64(s.opts.Now())
}

func (s *Server) flight() *obs.FlightRecorder {
	if s.opts.Flight != nil {
		return s.opts.Flight
	}
	return s.opts.Observer.Flight()
}

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
	fmt.Fprintf(w, "canec admin plane (segment %q)\n\n", s.opts.Segment)
	for _, ep := range []string{
		"/metrics", "/healthz", "/channels", "/slo", "/relay", "/flight", "/profile", "/admission", "/control", "/why", "/debug/pprof/",
	} {
		fmt.Fprintln(w, ep)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Registry == nil {
		http.Error(w, "no metrics registry", http.StatusNotFound)
		return
	}
	// Render inside kernel context: counters and histograms are
	// kernel-owned and WriteText reads them without locks.
	var body []byte
	s.inKernel(func() {
		var b sbuf
		s.opts.Registry.WriteText(&b)
		body = b.b
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(body) //nolint:errcheck
}

// sbuf is a minimal io.Writer so WriteText can render into a byte
// slice captured across the kernel-context boundary.
type sbuf struct{ b []byte }

func (s *sbuf) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok", Segment: s.opts.Segment, Uptime: time.Since(s.start).Seconds()}
	s.inKernel(func() {
		h.VirtualNow = s.vnow()
		if s.opts.Channels != nil {
			h.Channels = len(s.opts.Channels())
		}
		if s.opts.ErrorState != nil {
			h.ErrorPassive, h.BusOff, h.BusOffTotal = s.opts.ErrorState()
		}
		h.Breached = s.opts.SLO.Breached()
		// The flight recorder is kernel-owned like everything above.
		if f := s.flight(); f != nil {
			h.FlightLen = f.Len()
			h.Dumps = len(f.Dumps())
		}
	})
	h.TraceBase = s.opts.Observer.TraceBase()
	if s.opts.Relay != nil {
		rows := s.opts.Relay()
		h.Links = len(rows)
		for _, row := range rows {
			if row.Connected {
				h.LinksUp++
			}
		}
	}
	if h.Breached {
		h.Status = "breached"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

func (s *Server) handleChannels(w http.ResponseWriter, _ *http.Request) {
	rows := []ChannelRow{}
	if s.opts.Channels != nil {
		s.inKernel(func() { rows = s.opts.Channels() })
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Node != rows[j].Node {
			return rows[i].Node < rows[j].Node
		}
		return rows[i].Subject < rows[j].Subject
	})
	writeJSON(w, rows)
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	view := SLOView{Segment: s.opts.Segment, Objectives: []obs.Objective{}}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		if snap := s.opts.SLO.Snapshot(); snap != nil {
			view.Enabled = true
			view.Objectives = snap
		}
		view.Breached = s.opts.SLO.Breached()
		if s.opts.SLO != nil {
			view.LastDump = s.opts.SLO.LastDump
		}
	})
	writeJSON(w, view)
}

func (s *Server) handleRelay(w http.ResponseWriter, _ *http.Request) {
	rows := []RelayRow{}
	if s.opts.Relay != nil {
		rows = s.opts.Relay()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	writeJSON(w, rows)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	f := s.flight()
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
	view := ProfileView{Segment: s.opts.Segment}
	if s.opts.Profiler != nil {
		view.Enabled = true
		s.inKernel(func() { view.Profile = s.opts.Profiler.Snapshot() })
	}
	if view.Profile.Stages == nil {
		view.Profile.Stages = []perf.StageSnap{}
	}
	writeJSON(w, view)
}

func (s *Server) handleAdmission(w http.ResponseWriter, _ *http.Request) {
	view := AdmissionView{Segment: s.opts.Segment}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		if s.opts.Admission != nil {
			view.Snapshot = s.opts.Admission()
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
	view := ControlView{Segment: s.opts.Segment, Loops: []ControlRow{}}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		if s.opts.Control != nil {
			view.Enabled = true
			if rows := s.opts.Control(); rows != nil {
				view.Loops = rows
			}
		}
	})
	sort.Slice(view.Loops, func(i, j int) bool { return view.Loops[i].Loop < view.Loops[j].Loop })
	writeJSON(w, view)
}

func (s *Server) handleWhy(w http.ResponseWriter, _ *http.Request) {
	view := WhyView{Segment: s.opts.Segment}
	s.inKernel(func() {
		view.VirtualNow = s.vnow()
		if s.opts.Why != nil {
			view.Enabled = true
			view.Snapshot = s.opts.Why()
		}
	})
	if view.Classes == nil {
		view.Classes = []causal.ClassProfile{}
	}
	if view.Recent == nil {
		view.Recent = []causal.ChainSummary{}
	}
	writeJSON(w, view)
}

// SystemOptions is the one wiring point between a core.System and the
// admin plane: it fills every Options field that is a view of the system
// (registry, observer, SLO, clock, channels, error state, admission, the
// why producer of the causal analyzer attached to sys.Obs, if any) and
// routes kernel reads through paced (nil for a free-running embedder).
// Relay, Control and Profiler are the caller's to add.
func SystemOptions(segment string, sys *core.System, paced *sim.Paced) Options {
	why, _ := sys.Obs.Causal().(*causal.Analyzer)
	opts := Options{
		Segment:    segment,
		Registry:   sys.Obs.Registry(),
		Observer:   sys.Obs,
		SLO:        sys.SLO,
		Now:        sys.K.Now,
		Channels:   SystemChannels(sys),
		ErrorState: SystemErrorState(sys),
		Admission:  SystemAdmission(sys),
		Why:        SystemWhy(why),
	}
	if paced != nil {
		opts.InKernel = paced.Call
	}
	return opts
}

// SystemWhy adapts an attached causal analyzer into Options.Why; a nil
// analyzer yields a nil producer (endpoint serves enabled:false).
func SystemWhy(a *causal.Analyzer) func() causal.Snapshot {
	if a == nil {
		return nil
	}
	return a.Snapshot
}

// QoCRow projects one control.QoC report into its /control row.
func QoCRow(q control.QoC) ControlRow {
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

// LoopRows adapts a set of control loops into the /control row
// producer. The returned closure must run in kernel context (the Server
// routes it through Options.InKernel) because Report reads live loop
// state. Without loops it is nil: /control serves enabled:false.
func LoopRows(loops []*control.Loop) func() []ControlRow {
	if len(loops) == 0 {
		return nil
	}
	return func() []ControlRow {
		rows := make([]ControlRow, 0, len(loops))
		for _, l := range loops {
			rows = append(rows, QoCRow(l.Report()))
		}
		return rows
	}
}

// SystemAdmission adapts a core.System into the /admission snapshot
// producer. The returned closure must run in kernel context (the Server
// routes it through Options.InKernel) and degrades to enabled:false
// when the system runs without an admission controller.
func SystemAdmission(sys *core.System) func() prob.Snapshot {
	return func() prob.Snapshot {
		if sys.Admission == nil {
			return prob.Snapshot{}
		}
		return sys.Admission.Snapshot()
	}
}

// SystemChannels adapts a core.System into the /channels row producer.
// The returned closure must run in kernel context (the Server routes it
// through Options.InKernel).
func SystemChannels(sys *core.System) func() []ChannelRow {
	return func() []ChannelRow {
		var rows []ChannelRow
		for _, n := range sys.Nodes {
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
}

// SystemErrorState adapts a core.System into the /healthz
// fault-confinement summary. The returned closure must run in kernel
// context (the Server routes it through Options.InKernel).
func SystemErrorState(sys *core.System) func() (passive, busoff int, total uint64) {
	return func() (int, int, uint64) {
		var passive, busoff int
		for _, n := range sys.Nodes {
			switch n.Ctrl.State() {
			case can.ErrorPassive:
				passive++
			case can.BusOff:
				busoff++
			}
		}
		return passive, busoff, sys.Bus.Stats().BusOffEvents
	}
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
