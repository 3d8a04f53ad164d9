package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/core"
	"canec/internal/golden"
	"canec/internal/obs"
)

const sampleJSON = `{
  "name": "sample",
  "nodes": 6,
  "seed": 3,
  "durationMs": 500,
  "maxDriftPPM": 80,
  "omissionDegree": 1,
  "hrt": [
    {"subject": 257, "publisher": 0, "subscriber": 1, "periodUs": 10000, "payload": 7},
    {"subject": 258, "publisher": 1, "subscriber": 2, "periodUs": 20000, "payload": 7}
  ],
  "srt": [
    {"subject": 512, "publisher": 2, "subscriber": 3, "meanPeriodUs": 3000,
     "deadlineUs": 10000, "expirationUs": 30000, "payload": 8, "sporadic": true}
  ],
  "nrt": [
    {"subject": 768, "publisher": 4, "subscriber": 5, "bytes": 4096, "repeatMs": 100}
  ]
}`

func TestLoadAndRun(t *testing.T) {
	s, err := Load(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Counters
	if c.DeliveredHRT == 0 || c.DeliveredSRT == 0 || c.DeliveredNRT == 0 {
		t.Fatalf("classes missing traffic: %+v", c)
	}
	if c.SlotMissed != 0 || c.LateHRTDeliveries != 0 {
		t.Fatalf("HRT health: %+v", c)
	}
	// The 10 ms stream over ~500 ms minus epoch: ≥ 15 deliveries.
	if c.DeliveredHRT < 15 {
		t.Fatalf("DeliveredHRT = %d", c.DeliveredHRT)
	}
	if rep.HRTLatency.N() == 0 || rep.HRTLatency.Mean() <= 0 {
		t.Fatal("HRT latency not measured")
	}
	if rep.NRTBytes < 4096 {
		t.Fatalf("NRT bytes = %d", rep.NRTBytes)
	}
	out := rep.String()
	for _, want := range []string{"sample", "HRT:", "SRT:", "NRT:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() string {
		s, err := Load(strings.NewReader(sampleJSON))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same scenario diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []string{
		`{"nodes": 1, "durationMs": 100}`, // too few nodes
		`{"nodes": 4, "durationMs": 0}`,   // no duration
		`{"nodes": 4, "durationMs": 10, "hrt": [{"subject":1,"publisher":9,"subscriber":0,"periodUs":1000,"payload":4}]}`, // bad node
		`{"nodes": 4, "durationMs": 10, "hrt": [{"subject":1,"publisher":0,"subscriber":1,"periodUs":1000,"payload":8}]}`, // payload > 7
		`{"nodes": 4, "durationMs": 10, "srt": [{"subject":1,"publisher":0,"subscriber":1,"meanPeriodUs":0,"deadlineUs":1,"payload":1}]}`,
		`{"nodes": 4, "durationMs": 10, "nrt": [{"subject":1,"publisher":0,"subscriber":1,"bytes":0}]}`,
		`{"nodes": 4, "durationMs": 10, "srt": [{"subject":1,"publisher":0,"subscriber":1,"meanPeriodUs":10,"deadlineUs":1,"payload":1},` +
			`{"subject":1,"publisher":0,"subscriber":1,"meanPeriodUs":20,"deadlineUs":2,"payload":2}]}`, // one stream twice
		`{"nodes": 4, "durationMs": 10, "bogus": 1}`, // unknown field
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	s, err := Load(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	s.FaultRate = 0.05
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// k=1 dimensioning absorbs 5% random errors without misses.
	if rep.Counters.SlotMissed != 0 {
		t.Fatalf("missed slots under light faults: %+v", rep.Counters)
	}
}

func TestRunWithoutHRT(t *testing.T) {
	s := &Scenario{
		Name: "srt-only", Nodes: 3, DurationMs: 100,
		SRT: []SRTStream{{Subject: 5, Publisher: 0, Subscriber: 1,
			MeanPeriodUs: 2000, DeadlineUs: 5000, Payload: 8}},
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.DeliveredSRT == 0 {
		t.Fatal("no SRT traffic")
	}
	if strings.Contains(rep.String(), "HRT:") {
		t.Fatal("report mentions absent HRT class")
	}
}

const chaosJSON = `{
  "name": "chaos-sample",
  "nodes": 6,
  "seed": 3,
  "durationMs": 500,
  "maxDriftPPM": 80,
  "omissionDegree": 1,
  "hrt": [
    {"subject": 257, "publisher": 0, "subscriber": 1, "periodUs": 10000, "payload": 7},
    {"subject": 258, "publisher": 1, "subscriber": 2, "periodUs": 20000, "payload": 7}
  ],
  "srt": [
    {"subject": 512, "publisher": 2, "subscriber": 3, "meanPeriodUs": 3000,
     "deadlineUs": 10000, "expirationUs": 30000, "payload": 8, "sporadic": true}
  ],
  "nrt": [
    {"subject": 768, "publisher": 4, "subscriber": 5, "bytes": 4096, "repeatMs": 100}
  ],
  "chaos": {
    "guardian": true,
    "events": [
      {"kind": "crash", "at_ms": 100, "node": 1},
      {"kind": "restart", "at_ms": 200, "node": 1},
      {"kind": "babble", "at_ms": 320, "until_ms": 350, "node": 5}
    ]
  }
}`

func TestRunWithChaosSection(t *testing.T) {
	s, err := Load(strings.NewReader(chaosJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ch := rep.Chaos
	if ch == nil {
		t.Fatal("chaos section ran but Report.Chaos is nil")
	}
	for _, v := range ch.Violations {
		t.Errorf("invariant violated: %v", v)
	}
	if ch.Crashes != 1 || ch.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", ch.Crashes, ch.Restarts)
	}
	if ch.GuardianMuted == 0 || ch.BabbleSent != 0 {
		t.Fatalf("guardian muted=%d babble sent=%d, want >0/0", ch.GuardianMuted, ch.BabbleSent)
	}
	// Node 1 publishes the 20 ms stream and subscribes the 10 ms one; both
	// sides of it die in the crash and must flow again after recovery.
	if rep.Counters.DeliveredHRT < 40 {
		t.Fatalf("DeliveredHRT = %d, want ≥ 40 (recovery must restore both streams)", rep.Counters.DeliveredHRT)
	}
	out := rep.String()
	if !strings.Contains(out, "chaos: all trace invariants hold") {
		t.Fatalf("report missing chaos summary:\n%s", out)
	}
}

func TestValidateChaosSection(t *testing.T) {
	bad := `{"nodes": 4, "durationMs": 100,
	  "chaos": {"events": [{"kind": "crash", "at_ms": 1, "node": 0}]}}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("crash of station 0 accepted")
	}
}

// TestRunControlPlaneSample runs the shipped control-plane chaos sample:
// the binding agent and the time master each crash and restart, both roles
// fail over, and every trace invariant holds.
func TestRunControlPlaneSample(t *testing.T) {
	f, err := os.Open("../../testdata/chaos-agent-master.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ch := rep.Chaos
	if ch == nil {
		t.Fatal("chaos section ran but Report.Chaos is nil")
	}
	for _, v := range ch.Violations {
		t.Errorf("invariant violated: %v", v)
	}
	for _, e := range ch.Errors {
		t.Errorf("campaign event failed: %s", e)
	}
	if ch.Crashes != 2 || ch.Restarts != 2 {
		t.Fatalf("crashes/restarts = %d/%d, want 2/2", ch.Crashes, ch.Restarts)
	}
	if ch.AgentTakeovers < 1 || ch.MasterTakeovers < 1 {
		t.Fatalf("takeovers agent=%d master=%d, want ≥1 each", ch.AgentTakeovers, ch.MasterTakeovers)
	}
	// The data plane publishes from stations that never crash: both HRT
	// streams must keep flowing through both control-plane outages.
	if rep.Counters.DeliveredHRT < 300 {
		t.Fatalf("DeliveredHRT = %d, want ≥ 300", rep.Counters.DeliveredHRT)
	}
	out := rep.String()
	if !strings.Contains(out, "agent takeover") {
		t.Fatalf("report missing control-plane summary:\n%s", out)
	}
}

// TestTwoPublishersOfOneSubject: the model is many-to-many, so two streams
// may share a subject. Each must publish from its own station (one handle
// per stream, not per subject).
func TestTwoPublishersOfOneSubject(t *testing.T) {
	s := &Scenario{
		Name: "dup-subject", Nodes: 4, Seed: 1, DurationMs: 1000,
		SRT: []SRTStream{
			{Subject: 800, Publisher: 0, Subscriber: 2, MeanPeriodUs: 10000, DeadlineUs: 5000, Payload: 8},
			{Subject: 800, Publisher: 1, Subscriber: 3, MeanPeriodUs: 10000, DeadlineUs: 5000, Payload: 8},
		},
		Observe: obs.Default(),
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	published := make(map[int]int)
	for _, r := range rep.Obs.Records() {
		if r.Stage == obs.StagePublished {
			published[int(r.Node)]++
		}
	}
	if published[0] != 100 || published[1] != 100 || len(published) != 2 {
		t.Fatalf("published per node = %v, want 100 each from nodes 0 and 1", published)
	}
}

// TestHRTPeriodJitterPerPublisher: two HRT streams share subject 300,
// published by nodes 0 and 1, and every round is delivered on time. Each
// stream must be timed from its own publisher's slot (timed from the
// other's, latency p99 reads 1347 µs), and the report's period jitter is
// that of the first stream's publisher alone (both publishers' deliveries
// in one series read as 9457 µs). When both streams end at node 2, the
// station's one subscription must hand each delivery to the stream whose
// publisher sent it: subscribing once per stream left only the second
// stream's handler, and the first stream's jitter series empty.
func TestHRTPeriodJitterPerPublisher(t *testing.T) {
	for _, c := range []struct {
		subs      [2]int
		delivered uint64
	}{{[2]int{2, 3}, 400}, {[2]int{2, 2}, 200}} {
		s := &Scenario{
			Name: "dup-hrt-subject", Nodes: 4, Seed: 1, DurationMs: 1000,
			HRT: []HRTStream{
				{Subject: 300, Publisher: 0, Subscriber: c.subs[0], PeriodUs: 10000, Payload: 7},
				{Subject: 300, Publisher: 1, Subscriber: c.subs[1], PeriodUs: 10000, Payload: 7},
			},
		}
		in, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Sys.Run(in.End)
		rep := in.Finish()
		k := rep.Counters
		if k.DeliveredHRT != c.delivered || k.LateHRTDeliveries != 0 || k.SlotMissed != 0 {
			t.Fatalf("subscribers %v: HRT delivered %d, late %d, missed %d; want %d, 0, 0",
				c.subs, k.DeliveredHRT, k.LateHRTDeliveries, k.SlotMissed, c.delivered)
		}
		if n := len(in.firstHRT); n != 100 {
			t.Errorf("subscribers %v: stream 0's period-jitter series holds %d deliveries, want its 100 rounds", c.subs, n)
		}
		if j := rep.HRTJitter.Micros(); j > 10 {
			t.Errorf("subscribers %v: period jitter %d µs, want at most 10 (one publisher's rounds)", c.subs, j)
		}
		if n := rep.HRTLatency.N(); n != 200 {
			t.Errorf("subscribers %v: HRT latency samples %d, want 200 (each stream's own 100 rounds)", c.subs, n)
		}
		if p99 := rep.HRTLatency.Quantile(0.99) / 1e3; p99 > 1000 {
			t.Errorf("subscribers %v: HRT latency p99 %.0f µs, want below 1000 (each stream on its own slot)", c.subs, p99)
		}
	}
}

// committedScenario loads a testdata scenario, optionally overlaid with a
// testdata chaos script, with any flight dumps kept out of the source tree.
func committedScenario(t *testing.T, path, chaosPath string) *Scenario {
	t.Helper()
	s, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if chaosPath != "" {
		data, err := os.ReadFile(chaosPath)
		if err != nil {
			t.Fatal(err)
		}
		s.Chaos = new(chaos.Script)
		if err := json.Unmarshal(data, s.Chaos); err != nil {
			t.Fatal(err)
		}
	}
	if s.FlightRecords > 0 {
		s.FlightDir = t.TempDir()
	}
	return s
}

// chaosFor pairs each committed scenario with the chaos script written for
// it; TestBuildDriveFinishMatchesRun runs every pair, and the export
// digests it pins name the pairs causal's oracle replay runs.
var chaosFor = map[string]string{
	"scenario-admission.json":      "chaos-admission-ramp.json",
	"scenario-busoff.json":         "chaos-busoff-attack.json",
	"scenario-control.json":        "chaos-control-attack.json",
	"scenario-faulttolerance.json": "chaos-crash-babble.json",
	"scenario-why.json":            "chaos-why.json",
}

// chaosOpenedElsewhere lists the committed chaos files a test other than
// TestBuildDriveFinishMatchesRun opens by name.
var chaosOpenedElsewhere = []string{
	"chaos-agent-master.json", // TestRunControlPlaneSample
}

// TestNoOrphanedChaosScripts: every committed testdata/chaos-*.json is run
// by some test, so none can rot unnoticed.
func TestNoOrphanedChaosScripts(t *testing.T) {
	used := make(map[string]bool)
	for _, c := range chaosFor {
		used[c] = true
	}
	for _, c := range chaosOpenedElsewhere {
		used[c] = true
	}
	files, err := filepath.Glob("../../testdata/chaos-*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("committed chaos scripts: %v, %v", files, err)
	}
	for _, path := range files {
		if !used[filepath.Base(path)] {
			t.Errorf("testdata/%s: no test runs it; pair it with a scenario in chaosFor or delete it", filepath.Base(path))
		}
	}
}

// TestBuildDriveFinishMatchesRun: Build, Sys.Run(End), Finish — the form a
// paced host drives step by step — renders the report Run renders, for
// every committed scenario, clean and under the chaos script written for it.
// The reports are pinned in testdata/golden/scenarios (regenerate with
// -update).
func TestBuildDriveFinishMatchesRun(t *testing.T) {
	files, err := filepath.Glob("../../testdata/scenario-*.json")
	if err != nil || len(files) < 5 {
		t.Fatalf("committed scenarios: %v, %v", files, err)
	}
	for _, path := range files {
		overlays := []string{""}
		if c := chaosFor[filepath.Base(path)]; c != "" {
			overlays = append(overlays, "../../testdata/"+c)
		}
		for _, overlay := range overlays {
			name := filepath.Base(path)
			if overlay != "" {
				name += "+" + filepath.Base(overlay)
			}
			t.Run(name, func(t *testing.T) {
				sc := committedScenario(t, path, overlay)
				rep, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				// Post-mortem paths name a temporary directory: pin their base names.
				out := rep.String()
				if sc.FlightDir != "" {
					out = strings.ReplaceAll(out, sc.FlightDir+string(filepath.Separator), "")
				}
				golden.Check(t, "../../testdata/golden/scenarios/"+strings.ReplaceAll(name, ".json", "")+".txt", out)
				// The driven run also traces and meters, so it pins the three
				// exports and shows that observing leaves the report alone.
				driven := committedScenario(t, path, overlay)
				driven.Observe = obs.Default()
				in, err := driven.Build()
				if err != nil {
					t.Fatal(err)
				}
				in.Sys.Run(in.End)
				if got, want := in.Finish().String(), rep.String(); got != want {
					t.Fatalf("Build/drive/Finish:\n%s\nRun:\n%s", got, want)
				}
				golden.Check(t, "../../testdata/golden/scenarios/"+strings.ReplaceAll(name, ".json", "")+".exports.txt",
					exportDigests(t, in.Sys.Obs, sc.Nodes))
			})
		}
	}
}

// exportDigests renders the stage trace (JSONL), the Chrome trace and the
// metrics exposition of one observed run as "sha256 length" lines, in that
// order.
func exportDigests(t *testing.T, o *obs.Observer, nodes int) string {
	t.Helper()
	var out strings.Builder
	for _, write := range []func(io.Writer) error{
		func(w io.Writer) error { return obs.WriteJSONL(w, o.Records()) },
		func(w io.Writer) error { return obs.WriteChromeTrace(w, o.Records(), nodes) },
		o.Registry().WriteText,
	} {
		h := sha256.New()
		n := &countingWriter{w: h}
		if err := write(n); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%x %d\n", h.Sum(nil), n.n)
	}
	return out.String()
}

// countingWriter counts the bytes it passes on.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.w.Write(p)
}

// TestDemoScenarioClaims: the demo scenarios show what they were written
// to show. factory: thirty sporadic alarm streams overload the bus, so SRT
// deadlines are missed and stale events expire out of the send queues.
// faulttolerance: a k = 2 HRT stream absorbs random frame errors with no
// late or missed delivery, and the unused redundant copies are suppressed;
// under the crash/babble overlay no delivery is late, the outage shows as
// missed slots, the guardian isolates the babbler and every trace
// invariant holds.
func TestDemoScenarioClaims(t *testing.T) {
	run := func(t *testing.T, path, overlay string) (*Report, can.Stats) {
		t.Helper()
		if overlay != "" {
			overlay = "../../testdata/" + overlay
		}
		in, err := committedScenario(t, "../../testdata/"+path, overlay).Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Sys.Run(in.End)
		return in.Finish(), in.Sys.Bus.Stats()
	}
	t.Run("factory", func(t *testing.T) {
		rep, _ := run(t, "scenario-factory.json", "")
		if c := rep.Counters; c.DeadlineMissed == 0 || c.Expired == 0 {
			t.Fatalf("overload shows no SRT misses/expiries: %+v", c)
		}
	})
	t.Run("faulttolerance", func(t *testing.T) {
		rep, bus := run(t, "scenario-faulttolerance.json", "")
		c := rep.Counters
		if c.DeliveredHRT == 0 || c.LateHRTDeliveries != 0 || c.SlotMissed != 0 {
			t.Fatalf("HRT under random errors: %+v", c)
		}
		if bus.FramesError == 0 || c.CopiesSuppressed == 0 || rep.NRTBytes == 0 {
			t.Fatalf("error frames %d, copies suppressed %d, NRT bytes %d: want all > 0",
				bus.FramesError, c.CopiesSuppressed, rep.NRTBytes)
		}
	})
	t.Run("faulttolerance+chaos-crash-babble", func(t *testing.T) {
		rep, _ := run(t, "scenario-faulttolerance.json", "chaos-crash-babble.json")
		c, ch := rep.Counters, rep.Chaos
		if c.LateHRTDeliveries != 0 || c.SlotMissed == 0 {
			t.Fatalf("HRT under crash: late %d, missed %d, want 0, > 0", c.LateHRTDeliveries, c.SlotMissed)
		}
		if ch.Crashes != 1 || ch.Restarts != 1 || ch.GuardianIsolated == 0 || ch.BabbleSent != 0 {
			t.Fatalf("campaign: %+v", ch)
		}
		if len(ch.Violations) != 0 {
			t.Fatalf("invariants violated: %v", ch.Violations)
		}
	})
}

// TestHRTRoundPayload: a stream with RoundPayload set delivers round r's
// bytes from it instead of a Stamp, and the field is Go-only: a JSON file
// that names it is refused.
func TestHRTRoundPayload(t *testing.T) {
	pay := func(r int64) []byte { return []byte{0xa5, byte(r), byte(r * 3)} }
	s := &Scenario{
		Name: "round-payload", Nodes: 3, Seed: 1, DurationMs: 100,
		HRT: []HRTStream{{Subject: 300, Publisher: 0, Subscriber: 1, PeriodUs: 10000, Payload: 7, RoundPayload: pay}},
	}
	in, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The delivery's buffer is reused, so each payload is kept as a copy.
	var got [][]byte
	if err := Subscribe(in.Sys.Node(2).MW, core.HRT, 300, core.ChannelAttrs{Payload: 7, Periodic: true},
		func(ev core.Event, _ core.DeliveryInfo) { got = append(got, bytes.Clone(ev.Payload)) }, nil); err != nil {
		t.Fatal(err)
	}
	in.Sys.Run(in.End)
	if c := in.Finish().Counters; c.SlotMissed != 0 || len(got) < 5 {
		t.Fatalf("%d deliveries, %d slots missed", len(got), c.SlotMissed)
	}
	for r, p := range got {
		if !bytes.Equal(p, pay(int64(r))) {
			t.Fatalf("round %d delivered % x, want % x", r, p, pay(int64(r)))
		}
	}

	const spec = `{"name": "x", "nodes": 2, "durationMs": 10, "hrt": [
	  {"subject": 1, "publisher": 0, "subscriber": 1, "periodUs": 10000, "payload": 1, "roundPayload": "AQ=="}]}`
	if _, err := Load(strings.NewReader(spec)); err == nil || !strings.Contains(err.Error(), "roundPayload") {
		t.Fatalf("Load = %v, want the roundPayload key refused", err)
	}
}
