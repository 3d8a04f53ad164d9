package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canec/internal/chaos"
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
			published[r.Node]++
		}
	}
	if published[0] != 100 || published[1] != 100 || len(published) != 2 {
		t.Fatalf("published per node = %v, want 100 each from nodes 0 and 1", published)
	}
}

// committedScenario loads a testdata scenario, optionally overlaid with a
// testdata chaos script, with any flight dumps kept out of the source tree.
func committedScenario(t *testing.T, path, chaosPath string) *Scenario {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Load(f)
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

// TestBuildDriveFinishMatchesRun: Build, Sys.Run(End), Finish — the form a
// paced host drives step by step — renders the report Run renders, for
// every committed scenario, clean and under the chaos script written for it.
func TestBuildDriveFinishMatchesRun(t *testing.T) {
	chaosFor := map[string]string{
		"scenario-admission.json": "chaos-admission-ramp.json",
		"scenario-busoff.json":    "chaos-busoff-attack.json",
		"scenario-control.json":   "chaos-control-attack.json",
		"scenario-why.json":       "chaos-why.json",
	}
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
				rep, err := committedScenario(t, path, overlay).Run()
				if err != nil {
					t.Fatal(err)
				}
				in, err := committedScenario(t, path, overlay).Build()
				if err != nil {
					t.Fatal(err)
				}
				in.Sys.Run(in.End)
				if got, want := in.Finish().String(), rep.String(); got != want {
					t.Fatalf("Build/drive/Finish:\n%s\nRun:\n%s", got, want)
				}
			})
		}
	}
}
