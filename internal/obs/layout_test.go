package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"canec/internal/can"
	"canec/internal/chaos"
	"canec/internal/obs"
	"canec/internal/obs/causal"
	"canec/internal/scenario"
	"canec/internal/sim"
)

// TestRecordLayout pins the record's size and its pointer-free shape: the
// tracer and flight-recorder stores must stay plain memory that the
// garbage collector does not scan.
func TestRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(obs.Record{}); size > 48 {
		t.Fatalf("obs.Record is %d bytes, want at most 48", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: obs.Record must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Record", reflect.TypeOf(obs.Record{}))
}

// TestObservedRecordsAllocateNothing: once the tracer is at its cap and
// the flight rings are full, a bus record and a middleware record cost no
// allocation through every sink — metrics tables, tracer, flight recorder
// and the causal engine.
func TestObservedRecordsAllocateNothing(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, 0)
	bm := obs.BandMap{HRT: 0, Sync: 1, SRTMin: 2, SRTMax: 250, NRTMin: 251, NRTMax: 255}
	o := obs.New(obs.Config{Trace: true, TraceCap: 256, Metrics: true, FlightRecords: 64}, k.Now, bm)
	o.AttachCausal(causal.New(causal.Config{Registry: o.Registry()}))
	o.InstallBus(bus)
	fr := can.Frame{ID: can.MakeID(9, 1, 0x41), Tag: 7}
	at := sim.Time(0)
	step := func() {
		at += 100
		bus.Trace(can.TraceEvent{Kind: can.TraceTxStart, At: at, Frame: fr, Sender: 1, Attempt: 1})
		bus.Trace(can.TraceEvent{Kind: can.TraceTxOK, At: at + 50, Frame: fr, Sender: 1, Attempt: 1})
		o.Emit(7, obs.StagePromoted, obs.ClassSRT, 1, 0x41, at+60, obs.Promotion(9, 7))
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if o.Tracer().Dropped() == 0 {
		t.Fatal("the tracer never reached its cap")
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("a bus and a middleware record allocate %v times, want 0", allocs)
	}
}

// TestTracerGrowthIsBounded: filling a capped tracer copies each record
// at most once on average, so it allocates at most twice the capped store.
func TestTracerGrowthIsBounded(t *testing.T) {
	const n = 1 << 14
	o := obs.New(obs.Config{Trace: true, TraceCap: n}, func() sim.Time { return 0 }, obs.BandMap{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		o.Emit(uint64(i), obs.StageEnqueued, obs.ClassNRT, 0, 1, sim.Time(i), 0)
	}
	runtime.ReadMemStats(&after)
	if got := len(o.Records()); got != n {
		t.Fatalf("%d records retained, want %d", got, n)
	}
	bound := 2 * n * uint64(unsafe.Sizeof(obs.Record{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("filling a cap-%d tracer allocated %d bytes, want at most %d", n, got, bound)
	}
}

// TestTextTableSteadyState: the text table holds each workload's rare
// vocabulary and nothing per event. On every committed scenario, clean
// and under its chaos overlay, a run interns less than one text per
// thousand records, and running the workload again interns nothing new.
func TestTextTableSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every committed scenario twice")
	}
	files, err := filepath.Glob("../../testdata/scenario-*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("committed scenarios: %v, %v", files, err)
	}
	overlays := map[string]string{
		"scenario-admission.json":      "chaos-admission-ramp.json",
		"scenario-busoff.json":         "chaos-busoff-attack.json",
		"scenario-control.json":        "chaos-control-attack.json",
		"scenario-faulttolerance.json": "chaos-crash-babble.json",
		"scenario-why.json":            "chaos-why.json",
	}
	run := func(t *testing.T, path, overlay string) int {
		t.Helper()
		sc, err := scenario.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if overlay != "" {
			data, err := os.ReadFile(overlay)
			if err != nil {
				t.Fatal(err)
			}
			sc.Chaos = new(chaos.Script)
			if err := json.Unmarshal(data, sc.Chaos); err != nil {
				t.Fatal(err)
			}
		}
		sc.Observe = obs.Default()
		if sc.FlightRecords > 0 {
			sc.FlightDir = t.TempDir()
		}
		in, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		in.Sys.Run(in.End)
		return len(in.Sys.Obs.Records())
	}
	for _, path := range files {
		runs := []string{""}
		if c := overlays[filepath.Base(path)]; c != "" {
			runs = append(runs, "../../testdata/"+c)
		}
		for _, overlay := range runs {
			name := filepath.Base(path)
			if overlay != "" {
				name += "+" + filepath.Base(overlay)
			}
			t.Run(name, func(t *testing.T) {
				start := obs.TextCount()
				recs := run(t, path, overlay)
				first := obs.TextCount()
				if grown := first - start; grown > 1+recs/1000 {
					t.Errorf("one run of %d records interned %d texts", recs, grown)
				}
				run(t, path, overlay)
				if again := obs.TextCount(); again != first {
					t.Errorf("running the workload again interned %d more texts", again-first)
				}
			})
		}
	}
}
