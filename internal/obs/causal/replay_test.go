package causal_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"canec/internal/chaos"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/scenario"
	"canec/internal/sim"
)

const testdata = "../../../testdata/"

// recordScenario runs a committed scenario, optionally under a chaos
// overlay, with the full stage trace on, and returns its records and the
// lateness bounds its why section declares (700 µs for HRT and SRT when
// it declares none, so late chains occur).
func recordScenario(tb testing.TB, path, overlay string) ([]obs.Record, map[string]sim.Duration) {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	s, err := scenario.Load(f)
	if err != nil {
		tb.Fatal(err)
	}
	if overlay != "" {
		data, err := os.ReadFile(overlay)
		if err != nil {
			tb.Fatal(err)
		}
		s.Chaos = new(chaos.Script)
		if err := json.Unmarshal(data, s.Chaos); err != nil {
			tb.Fatal(err)
		}
	}
	s.FlightRecords = 0
	s.Observe = obs.Default()
	rep, err := s.Run()
	if err != nil {
		tb.Fatal(err)
	}
	late := map[string]sim.Duration{"HRT": 700 * sim.Microsecond, "SRT": 700 * sim.Microsecond}
	if s.Why != nil && len(s.Why.LateOverUs) > 0 {
		late = map[string]sim.Duration{}
		for class, us := range s.Why.LateOverUs {
			late[strings.ToUpper(class)] = sim.Duration(us) * sim.Microsecond
		}
	}
	return rep.Obs.Records(), late
}

// TestEngineMatchesOracleCommittedScenarios replays every committed
// scenario, clean and under the chaos script written for it, through the
// engine and the oracle.
func TestEngineMatchesOracleCommittedScenarios(t *testing.T) {
	chaosFor := map[string]string{
		"scenario-admission.json":      "chaos-admission-ramp.json",
		"scenario-busoff.json":         "chaos-busoff-attack.json",
		"scenario-control.json":        "chaos-control-attack.json",
		"scenario-faulttolerance.json": "chaos-crash-babble.json",
		"scenario-why.json":            "chaos-why.json",
	}
	files, err := filepath.Glob(testdata + "scenario-*.json")
	if err != nil || len(files) < 5 {
		t.Fatalf("committed scenarios: %v, %v", files, err)
	}
	for _, path := range files {
		overlays := []string{""}
		if c := chaosFor[filepath.Base(path)]; c != "" {
			overlays = append(overlays, testdata+c)
		}
		for _, overlay := range overlays {
			name := filepath.Base(path)
			if overlay != "" {
				name += "+" + filepath.Base(overlay)
			}
			t.Run(name, func(t *testing.T) {
				recs, late := recordScenario(t, path, overlay)
				causal.CheckOracle(t, recs, causal.Config{LateOver: late})
			})
		}
	}
}

// e19Scenario is one of the four E19 fault campaigns (the scenarios of
// experiments' e19Campaigns, seed 1), built here from the exported
// scenario and chaos types.
func e19Scenario(name string) *scenario.Scenario {
	srtPair := func(ev chaos.Event) *scenario.Scenario {
		return &scenario.Scenario{
			Name: "e19-" + name, Nodes: 8, Seed: 1, DurationMs: 600,
			SRT: []scenario.SRTStream{
				{Subject: 0x300, Publisher: 0, Subscriber: 1, MeanPeriodUs: 2000,
					DeadlineUs: 20000, ExpirationUs: 40000, Payload: 8},
				{Subject: 0x301, Publisher: 2, Subscriber: 3, MeanPeriodUs: 3000,
					DeadlineUs: 20000, ExpirationUs: 40000, Payload: 8},
			},
			Chaos: &chaos.Script{Events: []chaos.Event{ev}},
		}
	}
	switch name {
	case "bit_error":
		return srtPair(chaos.Event{Kind: "bit_error", Node: 0, Rate: 0.7, AtMS: 350, UntilMS: 500})
	case "babble":
		return srtPair(chaos.Event{Kind: "babble", Node: 4, AtMS: 350, UntilMS: 450})
	case "busoff_attack":
		sc := srtPair(chaos.Event{Kind: "busoff_attack", Node: 4, Victim: 0, Rate: 1.0, AtMS: 350, UntilMS: 420})
		sc.ConfineFaults = true
		return sc
	}
	return &scenario.Scenario{
		Name: "e19-master-crash", Nodes: 8, Seed: 1, DurationMs: 600,
		MaxDriftPPM: 200,
		SyncMaster:  4, SyncBackups: []int{5},
		HRT: []scenario.HRTStream{
			{Subject: 0x101, Publisher: 0, Subscriber: 1, PeriodUs: 10000, Payload: 7},
			{Subject: 0x102, Publisher: 2, Subscriber: 3, PeriodUs: 10000, Payload: 7},
		},
		Chaos: &chaos.Script{Events: []chaos.Event{{Kind: "master_crash", AtMS: 200}}},
	}
}

// TestEngineMatchesOracleE19 replays the four E19 fault campaigns under
// E19's lateness bounds.
func TestEngineMatchesOracleE19(t *testing.T) {
	for _, name := range []string{"bit_error", "babble", "busoff_attack", "master_crash"} {
		t.Run(name, func(t *testing.T) {
			rep, err := e19Scenario(name).Run()
			if err != nil {
				t.Fatal(err)
			}
			late := map[string]sim.Duration{"SRT": 700 * sim.Microsecond}
			if name == "master_crash" {
				late = map[string]sim.Duration{"HRT": 700 * sim.Microsecond}
			}
			causal.CheckOracle(t, rep.Obs.Records(), causal.Config{LateOver: late})
		})
	}
}

var (
	mixedOnce sync.Once
	mixedRecs []obs.Record
)

// BenchmarkAnalyzerAdd streams the automotive scenario's records (HRT
// calendar, SRT and fragmented NRT on one bus: the mixed shape) through a
// live analyzer with a registry, as the observed benchmark workload
// attaches it. The stream is replayed end to end, shifted in time and
// trace ID per pass; one op is one record.
func BenchmarkAnalyzerAdd(b *testing.B) {
	mixedOnce.Do(func() { mixedRecs, _ = recordScenario(b, testdata+"scenario-automotive.json", "") })
	recs := mixedRecs
	var span sim.Time
	var maxID uint64
	for _, r := range recs {
		span = max(span, r.At)
		maxID = max(maxID, r.ID)
	}
	a := causal.New(causal.Config{Registry: obs.NewRegistry()})
	b.ReportAllocs()
	b.ResetTimer()
	var off sim.Time
	var idOff uint64
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		if j == 0 && i > 0 {
			off += span + 1
			idOff += maxID
		}
		r := recs[j]
		r.At += off
		if r.ID != 0 {
			r.ID += idOff
		}
		a.Add(r)
	}
}
