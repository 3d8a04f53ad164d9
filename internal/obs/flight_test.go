package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canec/internal/sim"
)

func TestFlightRecorderRetentionAndOrder(t *testing.T) {
	f := newFlightRecorder(4, t.TempDir())
	for i := 0; i < 20; i++ {
		f.Add(Record{ID: uint64(i + 1), Stage: StagePublished, At: sim.Time(i), Node: int32(i % 2)})
	}
	f.Add(Record{Stage: StageSLOBreach, At: 100, Node: -1, Detail: Text("x")})
	if got := f.Len(); got != 9 { // 4 per node ring x2 + 1 system record
		t.Fatalf("Len = %d, want 9", got)
	}
	recs := f.Snapshot()
	// Snapshot must be globally ordered by emission, and per node only the
	// newest 4 survive.
	var lastAt sim.Time
	perNode := map[int]int{}
	for _, r := range recs {
		if r.At < lastAt {
			t.Fatalf("snapshot out of order: %v after %v", r.At, lastAt)
		}
		lastAt = r.At
		perNode[int(r.Node)]++
	}
	if perNode[0] != 4 || perNode[1] != 4 || perNode[-1] != 1 {
		t.Fatalf("per-node retention = %v, want 4/4/1", perNode)
	}
	for _, r := range recs {
		if r.Node >= 0 && r.ID <= 12 {
			t.Fatalf("old record %d survived eviction", r.ID)
		}
	}
}

func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	f := newFlightRecorder(8, dir)
	f.Add(Record{ID: 1, Stage: StagePublished, At: 10, Node: 0, Class: ClassSRT, Subject: 0x42})
	f.Add(Record{ID: 1, Stage: StageDelivered, At: 20, Node: 1, Class: ClassSRT, Subject: 0x42})
	paths, err := f.Dump("SLO srt-miss!")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want jsonl+trace pair", paths)
	}
	base := filepath.Base(paths[0])
	if base != "postmortem-001-slo-srt-miss-.jsonl" {
		t.Fatalf("unexpected dump name %q", base)
	}
	jf, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	var lines int
	sc := bufio.NewScanner(jf)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines++
	}
	if lines != 3 { // schema header + 2 records
		t.Fatalf("jsonl lines = %d, want 3", lines)
	}
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}
	// Second dump must not overwrite the first.
	if paths2, err := f.Dump("slo-srt-miss"); err != nil ||
		!strings.HasPrefix(filepath.Base(paths2[0]), "postmortem-002-") {
		t.Fatalf("second dump = %v, %v", paths2, err)
	}
	if got := len(f.Dumps()); got != 4 {
		t.Fatalf("Dumps() = %d entries, want 4", got)
	}
}

func TestObserverFeedsFlightWithoutTracer(t *testing.T) {
	o := New(Config{Metrics: true, FlightRecords: 16, FlightDir: t.TempDir()},
		func() sim.Time { return 0 }, BandMap{})
	if o.Tracer() != nil {
		t.Fatal("tracer should be off")
	}
	id := o.Begin(ClassSRT, 0, 0x42, 100)
	o.Delivered(id, ClassSRT, 1, 0x42, 100, 200, 0)
	recs := o.Flight().Snapshot()
	if len(recs) != 2 || recs[0].Stage != StagePublished || recs[1].Stage != StageDelivered {
		t.Fatalf("flight records = %+v, want published+delivered", recs)
	}
}
