package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"canec/internal/can"
	"canec/internal/sim"
)

func testBandMap() BandMap {
	return BandMap{HRT: 0, Sync: 1, SRTMin: 2, SRTMax: 250, NRTMin: 251, NRTMax: 255}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	if id := o.Begin(ClassSRT, 0, 1, 0); id != 0 {
		t.Fatalf("nil Begin returned id %d", id)
	}
	o.Emit(1, StageEnqueued, ClassSRT, 0, 1, 0, 0)
	o.Delivered(1, ClassSRT, 1, 1, 0, 10, 0)
	o.SlotOutcome(true)
	o.Copies("sent", 2)
	o.ExceptionRaised("txfail")
	o.WatchdogChange("dead")
	o.RegisterQueueDepth(0, "srt", func() int { return 0 })
	o.InstallBus(nil) // must not panic before touching the bus
	if o.Tracer() != nil || o.Registry() != nil || o.Records() != nil {
		t.Fatal("nil observer leaked non-nil components")
	}
}

func TestBandMap(t *testing.T) {
	bm := testBandMap()
	cases := map[can.Prio]Band{
		0: BandHRT, 1: BandSync, 2: BandSRT, 100: BandSRT, 250: BandSRT,
		251: BandNRT, 255: BandNRT,
	}
	for p, want := range cases {
		if got := bm.Band(p); got != want {
			t.Errorf("Band(%d) = %q, want %q", p, got, want)
		}
	}
}

func TestTracerLifecycle(t *testing.T) {
	var now sim.Time
	o := New(Config{Trace: true, Metrics: true}, func() sim.Time { return now }, testBandMap())

	id := o.Begin(ClassSRT, 0, 0x42, 100)
	if id == 0 {
		t.Fatal("Begin returned the untraced ID")
	}
	id2 := o.Begin(ClassSRT, 1, 0x43, 150)
	if id2 <= id {
		t.Fatalf("trace IDs not monotonically increasing: %d then %d", id, id2)
	}
	o.Emit(id, StageEnqueued, ClassSRT, 0, 0x42, 110, 0)
	o.Emit(id, StagePromoted, ClassSRT, 0, 0x42, 200, Text("prio 10->5"))
	o.Delivered(id, ClassSRT, 2, 0x42, 100, 400, 0)

	recs := o.Records()
	var chain []Record
	for _, r := range recs {
		if r.ID == id {
			chain = append(chain, r)
		}
	}
	wantStages := []Stage{StagePublished, StageEnqueued, StagePromoted, StageDelivered}
	if len(chain) != len(wantStages) {
		t.Fatalf("chain has %d records, want %d: %+v", len(chain), len(wantStages), chain)
	}
	var prev sim.Time
	for i, r := range chain {
		if r.Stage != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, r.Stage, wantStages[i])
		}
		if r.At < prev {
			t.Errorf("timestamps decrease at stage %d: %d < %d", i, r.At, prev)
		}
		prev = r.At
	}
	// The latency histogram saw exactly one 300 ns = 0.3 µs sample.
	var buf bytes.Buffer
	if err := o.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `canec_e2e_latency_microseconds_count{class="SRT",subject="0x42"} 1`) {
		t.Errorf("latency count sample missing:\n%s", text)
	}
	if !strings.Contains(text, `canec_events_published_total{class="SRT"} 2`) {
		t.Errorf("published counter missing:\n%s", text)
	}
	if !strings.Contains(text, `canec_events_delivered_total{class="SRT"} 1`) {
		t.Errorf("delivered counter missing:\n%s", text)
	}
}

func TestTracerCap(t *testing.T) {
	o := New(Config{Trace: true, TraceCap: 2}, func() sim.Time { return 0 }, testBandMap())
	o.Begin(ClassNRT, 0, 1, 0)
	o.Begin(ClassNRT, 0, 2, 1)
	o.Begin(ClassNRT, 0, 3, 2)
	if n := len(o.Records()); n != 2 {
		t.Fatalf("retained %d records, want 2", n)
	}
	if d := o.Tracer().Dropped(); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
}

func TestDropReasons(t *testing.T) {
	o := New(Config{Metrics: true}, func() sim.Time { return 0 }, testBandMap())
	o.Emit(0, StageExpired, ClassSRT, 0, 1, 0, 0)
	o.Emit(0, StageShed, ClassSRT, 0, 2, 0, 0)
	o.Emit(0, StageDropped, ClassHRT, 0, 3, 0, Text("queue_overflow"))
	o.Emit(0, StageDropped, ClassHRT, 0, 3, 0, 0)
	var buf bytes.Buffer
	if err := o.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`canec_events_dropped_total{reason="expired"} 1`,
		`canec_events_dropped_total{reason="shed"} 1`,
		`canec_events_dropped_total{reason="queue_overflow"} 1`,
		`canec_events_dropped_total{reason="dropped"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestBusEventTranslation(t *testing.T) {
	var now sim.Time
	o := New(Config{Trace: true, Metrics: true}, func() sim.Time { return now }, testBandMap())
	o.SubjectOf = func(e can.Etag) (uint64, bool) {
		if e == 7 {
			return 0xbeef, true
		}
		return 0, false
	}

	id := can.MakeID(10, 3, 7) // srt band
	fr := can.Frame{ID: id, Tag: 99}
	o.busEvent(can.TraceEvent{Kind: can.TraceArbLoss, At: 100, Frame: fr, Sender: 3, Attempt: 1})
	o.busEvent(can.TraceEvent{Kind: can.TraceArbWin, At: 100, Frame: fr, Sender: 3, Attempt: 1})
	o.busEvent(can.TraceEvent{Kind: can.TraceTxStart, At: 100, Frame: fr, Sender: 3, Attempt: 2})
	o.busEvent(can.TraceEvent{Kind: can.TraceTxOK, At: 350, Frame: fr, Sender: 3, Attempt: 2})
	o.busEvent(can.TraceEvent{Kind: can.TraceRx, At: 350, Frame: fr, Sender: 3, Recv: 5, Attempt: 2})
	now = 1000

	recs := o.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	wantStages := []Stage{StageArbLost, StageArbWon, StageTxStart, StageTxOK, StageRx}
	for i, r := range recs {
		if r.Stage != wantStages[i] {
			t.Errorf("record %d stage = %q, want %q", i, r.Stage, wantStages[i])
		}
		if r.ID != 99 {
			t.Errorf("record %d lost the frame tag: id=%d", i, r.ID)
		}
		if r.Subject != 0xbeef {
			t.Errorf("record %d subject = %#x, want 0xbeef", i, r.Subject)
		}
		if r.Band != BandSRT {
			t.Errorf("record %d band = %q, want srt", i, r.Band)
		}
	}
	if recs[4].Node != 5 {
		t.Errorf("rx record node = %d, want receiver 5", recs[4].Node)
	}

	var buf bytes.Buffer
	if err := o.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"canec_arb_losses_total 1",
		"canec_arb_retries_total 1", // attempt 2 on tx_start
		`canec_frames_total{kind="ok"} 1`,
		`canec_band_busy_ns_total{band="srt"} 250`,
		`canec_band_utilization{band="srt"} 0.25`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestRegistryMemoisationAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"a": "1"})
	b := r.Counter("x_total", "help", Labels{"a": "1"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "help", Labels{"a": "2"})
	if a == c {
		t.Fatal("distinct labels shared an instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "help", nil)
}

func TestPromHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", nil, 0, 10, 2)
	h.Observe(-1) // under
	h.Observe(2)  // bucket 0
	h.Observe(7)  // bucket 1
	h.Observe(99) // over
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="5"} 2`, // under-mass folded into cumulative counts
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 107",
		"lat_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	recs := []Record{
		{ID: 1, Stage: StagePublished, At: 100, Node: 0, Class: ClassHRT, Subject: 5},
		{ID: 1, Stage: StageDelivered, At: 900, Node: 2, Class: ClassHRT, Subject: 5},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var r Record
	if err := json.Unmarshal([]byte(lines[1]), &r); err != nil {
		t.Fatalf("line 2 is not valid JSON: %v", err)
	}
	if r.Stage != StageDelivered || r.At != 900 {
		t.Fatalf("round-trip mismatch: %+v", r)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	recs := []Record{
		{ID: 1, Stage: StagePublished, At: 1000, Node: 0, Class: ClassSRT, Subject: 5},
		{ID: 1, Stage: StageTxStart, At: 2000, Node: 0, Subject: 5, Prio: 10, Band: BandSRT, Attempt: 1},
		{ID: 1, Stage: StageTxOK, At: 4000, Node: 0, Subject: 5, Prio: 10, Band: BandSRT, Attempt: 1},
		{ID: 1, Stage: StageDelivered, At: 5000, Node: 2, Class: ClassSRT, Subject: 5},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs, 3); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var slices, instants int
	for _, ev := range tr.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["dur"] != 2.0 { // 2000 ns = 2 µs
				t.Errorf("wire slice dur = %v, want 2", ev["dur"])
			}
		case "i":
			instants++
		}
	}
	if slices != 1 {
		t.Errorf("got %d wire slices, want 1", slices)
	}
	if instants != len(recs)-1 { // tx_start becomes part of the slice only
		t.Errorf("got %d instants, want %d", instants, len(recs)-1)
	}

	// The argument keys, byte for byte: a wire slice always carries
	// attempt, id, prio and result, zero or not; an instant always carries
	// id, and subject, class and detail only when set — a set detail
	// whose text is empty included.
	recs = []Record{
		{Stage: StageTxStart, At: 1000, Etag: 7, Band: BandHRT},
		{Stage: StageTxErr, At: 1500, Etag: 7, Band: BandHRT},
		// Text("") is the zero detail; a set one with empty text is built by hand.
		{Stage: StageDropped, At: 2000, Node: -1, Detail: Detail(1 << 8)},
		{ID: 3, Stage: StageEnqueued, At: 2500, Class: ClassSRT, Subject: 0x12, Detail: PrioDetail(7)},
	}
	buf.Reset()
	if err := WriteChromeTrace(&buf, recs, 1); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"bus"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"band hrt"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":2,"args":{"name":"band sync"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":3,"args":{"name":"band srt"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":4,"args":{"name":"band nrt"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":5,"args":{"name":"band other"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"node 0"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"lifecycle"}},` +
		`{"name":"etag 7","cat":"wire","ph":"X","ts":1,"dur":0.5,"pid":0,"tid":1,"args":{"attempt":0,"id":0,"prio":0,"result":"tx_err"}},` +
		`{"name":"tx_err","cat":"lifecycle","ph":"i","ts":1.5,"pid":1,"tid":1,"s":"t","args":{"id":0}},` +
		`{"name":"dropped","cat":"lifecycle","ph":"i","ts":2,"pid":0,"tid":1,"s":"t","args":{"detail":"","id":0}},` +
		`{"name":"enqueued","cat":"lifecycle","ph":"i","ts":2.5,"pid":1,"tid":1,"s":"t","args":{"class":"SRT","detail":"prio 7","id":3,"subject":"0x12"}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("Chrome trace:\n got %s\nwant %s", got, want)
	}
}

// TestWriteChromeTraceDeterministic: repeated exports of the same
// records are byte-identical, with the band threads named in tid order.
func TestWriteChromeTraceDeterministic(t *testing.T) {
	var recs []Record
	for i, band := range []Band{BandNRT, BandHRT, BandOther, BandSRT, BandSync} {
		at := sim.Time(1000 * (i + 1))
		recs = append(recs,
			Record{ID: uint64(i), Stage: StageTxStart, At: at, Node: int32(i % 3), Subject: 5, Band: band},
			Record{ID: uint64(i), Stage: StageTxOK, At: at + 500, Node: int32(i % 3), Subject: 5, Band: band})
	}
	export := func() []byte {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, recs, 3); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for i := 0; i < 25; i++ {
		if again := export(); !bytes.Equal(again, first) {
			t.Fatalf("export %d differs from the first:\n%s\n%s", i+1, again, first)
		}
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &tr); err != nil {
		t.Fatal(err)
	}
	var threads []string
	for _, ev := range tr.TraceEvents {
		if ev.Pid == busPid && ev.Name == "thread_name" {
			threads = append(threads, fmt.Sprintf("%d:%v", ev.Tid, ev.Args.Name))
		}
	}
	want := []string{"1:band hrt", "2:band sync", "3:band srt", "4:band nrt", "5:band other"}
	if !reflect.DeepEqual(threads, want) {
		t.Fatalf("bus threads %v, want %v", threads, want)
	}
}
