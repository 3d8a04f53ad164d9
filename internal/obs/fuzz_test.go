package obs

import (
	"bytes"
	"reflect"
	"testing"
	"unicode/utf8"

	"canec/internal/sim"
)

// FuzzTraceJSONL asserts the trace stream's transport properties on
// arbitrary inputs: (1) any record survives writeVersionedJSONL→ReadJSONL
// exactly (the schema header is stripped, the payload is not), whatever
// its detail text; (2) feeding arbitrary bytes to the reader never panics
// — it either yields records or a line-numbered error; and (3) whatever
// the reader accepts is stable: Marshal(Unmarshal(line)) reads back to the
// same records and writes the same bytes again.
func FuzzTraceJSONL(f *testing.F) {
	f.Add(uint64(1), uint8(StageDelivered), int64(100), int32(0), uint8(ClassSRT), uint64(0x42), "ok", []byte(nil))
	f.Add(uint64(0), uint8(StageSchema), int64(0), int32(-1), uint8(0), uint64(0), traceSchema, []byte("{}\n"))
	f.Add(uint64(9), uint8(StageTxErr), int64(-5), int32(3), uint8(ClassHRT), uint64(1<<56), "prio 9->7",
		[]byte(`{"stage":"rx","at":1}`+"\n\nnot json\n"+`{"stage":"no_such","at":2,"detail":"hop 1 budget 0.009500s"}`))
	f.Fuzz(func(t *testing.T, id uint64, stage uint8, at int64, node int32,
		class uint8, subject uint64, detail string, raw []byte) {
		if !utf8.ValidString(detail) {
			// encoding/json canonicalises invalid UTF-8 to U+FFFD; real
			// traces only carry ASCII annotations, so exact round-trip is
			// asserted for valid strings only.
			return
		}
		rec := Record{ID: id, Stage: Stage(stage) % numStages, At: sim.Time(at),
			Node: node, Class: Class(class) % numClasses, Subject: subject,
			Detail: parsed(detail)}
		if got := rec.Detail.String(); got != detail {
			t.Fatalf("detail %q renders as %q", detail, got)
		}
		var buf bytes.Buffer
		if err := writeVersionedJSONL(&buf, []Record{rec}); err != nil {
			t.Fatalf("write: %v", err)
		}
		info, err := ReadJSONLInfo(&buf)
		if err != nil {
			t.Fatalf("read of own writing: %v", err)
		}
		if info.Schema != traceSchema {
			t.Fatalf("schema = %q, want %q", info.Schema, traceSchema)
		}
		want := []Record{rec}
		if rec.Stage == StageSchema || rec.Stage == StageMeta {
			want = nil // meta stages are stripped by design
		}
		if !reflect.DeepEqual(info.Records, want) {
			t.Fatalf("round trip %+v -> %+v", want, info.Records)
		}

		// Arbitrary bytes must never panic the reader.
		recs, err := ReadJSONL(bytes.NewReader(raw))
		if err == nil {
			// Whatever was accepted must itself round-trip, to the same
			// records and to the same bytes.
			var again, twice bytes.Buffer
			if werr := WriteJSONL(&again, recs); werr != nil {
				t.Fatalf("rewrite of accepted input: %v", werr)
			}
			first := again.String()
			recs2, rerr := ReadJSONL(&again)
			if rerr != nil || !reflect.DeepEqual(recs, recs2) {
				t.Fatalf("accepted input is not stable: %v", rerr)
			}
			if werr := WriteJSONL(&twice, recs2); werr != nil || twice.String() != first {
				t.Fatalf("Marshal(Unmarshal(line)) moved:\n%s\nvs\n%s", first, twice.String())
			}
		}
	})
}
