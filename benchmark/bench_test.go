package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"canec/internal/can"
	"canec/internal/core"
	"canec/internal/sim"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables the
// program prints from, and both to the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q malformed", n, u)
		}
	}

	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range m.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q differs from the program's %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", n, len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		want := endToEnd[i]
		if e.Name != want.Name || e.Unit != want.Unit || e.Better != want.Better || e.Bound != want.Bound {
			t.Errorf("end-to-end %d: %+v differs from the program's %+v", i, e, want)
		}
		if e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", e.Name, e.Bound)
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", n, len(perLayer))
	}
	for i, l := range m.PerLayer {
		check(l.Name, l.Unit)
		if want := perLayer[i]; l.Name != want.Name || l.Unit != want.Unit || l.Better != want.Better {
			t.Errorf("per-layer %d: %+v differs from the program's %+v", i, l, want)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", m.RunSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
}

// goldenDigests pin the simulated outcome of every workload at 1/100
// size, seed 1. A change that moves one altered simulated behaviour; it
// is then not a performance change, whatever the host metrics say.
var goldenDigests = map[string]uint64{
	"mixed":          0xcba03bd26a54b754,
	"mixed-observed": 0xcba03bd26a54b754,
	"srt-overload":   0xa9259448cf98e82f,
	"hrt-calendar":   0x4a1b75b1dadf76b2,
	"nrt-bulk":       0x12bc46ce3bfa0c5b,
	"federated":      0x1b0edb548a428711,
}

// TestWorkloadsSmall runs every workload at 1/100 size, untraced and
// traced: no failed op, exactly the metric names of the tables, and the
// simulated outcome that was recorded when the benchmark was defined.
func TestWorkloadsSmall(t *testing.T) {
	outDir = t.TempDir()
	o := runOpts{seed: 1, scale: 0.01, minReps: 2, setupSamples: 1}
	// measured collects the per-layer names some traced run assigned: a
	// name of the table that none assigns would always print zero.
	measured := map[string]bool{}
	defer func() {
		for _, l := range perLayer {
			if !measured[l.Name] {
				t.Errorf("per-layer metric %s is in the table but never measured", l.Name)
			}
			delete(measured, l.Name)
		}
		for n := range measured {
			t.Errorf("per-layer metric %s is measured but not in the table", n)
		}
	}()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, o, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.ops == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: ops %d failed %d %v", w.Name, traced, res.ops, res.failed, res.fails)
			}
			// The clock model rounds float64 products; compilers that fuse
			// multiply-add round them differently, so the pin is amd64's.
			if want := goldenDigests[w.Name]; runtime.GOARCH == "amd64" && res.digest != want {
				t.Errorf("%s traced=%v: vt_digest %#016x, recorded %#016x", w.Name, traced, res.digest, want)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.jsonLine()), &line); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if traced {
				for _, l := range perLayer {
					want[l.Name] = l.Unit
				}
				for n := range res.metrics {
					measured[n] = true
				}
			} else {
				for _, e := range endToEnd {
					want[e.Name] = e.Unit
					if line.Metrics[e.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is zero", w.Name, e.Name)
					}
				}
			}
			got := map[string]string{}
			for n, v := range line.Metrics {
				got[n] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed metrics differ from the tables", w.Name, traced)
			}
		}
	}
}

// TestBoundedErrorsKeepFaultHypothesis: errors at the stated rate on the
// first max attempts of a frame, none after.
func TestBoundedErrorsKeepFaultHypothesis(t *testing.T) {
	inj, rng := boundedErrors{rate: 0.5, max: 2}, sim.NewRNG(1)
	var faults [4]int
	for i := 0; i < 4000; i++ {
		attempt := 1 + i%4
		if inj.Judge(can.Frame{}, 0, attempt, 0, rng).Kind == can.FaultError {
			faults[attempt-1]++
		}
	}
	if faults[0] < 400 || faults[1] < 400 || faults[2] != 0 || faults[3] != 0 {
		t.Errorf("faults per attempt %v, want about half of 1000 on the first two and none after", faults)
	}
}

// stubChannel stands in for an event channel.
type stubChannel struct{ n int }

func (c *stubChannel) Publish(core.Event) error { c.n++; return nil }

// TestHarnessAllocatesNothingPerEvent drives the publisher generators
// against a stub channel and the subscriber checkers with the events the
// generators made: whatever allocs_per_frame reports is the program's.
func TestHarnessAllocatesNothingPerEvent(t *testing.T) {
	for _, w := range workloads {
		p := w.makePlan(1, 0.01)
		in, err := build(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.chk.srtLat = make([]int64, 0, 1<<16)
		in.chk.hopLat = make([]int64, 0, 1<<16)
		for _, s := range in.streams {
			s.pub = &stubChannel{}
			s.sp.releases = append(s.sp.releases, make([]sim.Time, 200)...)
			s.stopAt = 0 // a backlogged source re-arms through the kernel
			ss := s.subs[0]
			allocs := testing.AllocsPerRun(100, func() {
				seq := s.next
				s.publish()
				if s.sp.class == core.HRT {
					return // its checker wants deliveries on slot deadlines
				}
				payload := s.msg
				if !s.bulk {
					payload = s.bufs[seq&3]
				}
				ss.onEvent(core.Event{Subject: s.subj, Payload: payload}, core.DeliveryInfo{DeliveredAt: in.k.Now()})
			})
			if allocs != 0 {
				t.Errorf("%s stream %d: %.1f harness allocations per event", w.Name, s.id, allocs)
			}
			if in.chk.fails != [numFailKinds]int{} {
				t.Fatalf("%s stream %d: checker rejected the generator's own events: %v", w.Name, s.id, in.chk.fails)
			}
		}
	}
}
