package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ReadJSONL is ReadJSONLInfo without the header.
func ReadJSONL(r io.Reader) ([]Record, error) {
	info, err := ReadJSONLInfo(r)
	return info.Records, err
}

// goldenRecords is a representative chain exercising every Record field:
// the byte-exact wire form of the canec-trace/1 schema. canecsim's
// -export writes and canecwhy ingests exactly these bytes; if this golden
// changes, the schema tag in TraceSchema must be bumped.
func goldenRecords() []Record {
	return []Record{
		{ID: 1, Stage: StagePublished, At: 0, Node: 0, Class: "SRT", Subject: 0x300},
		{ID: 1, Stage: StageEnqueued, At: 0, Node: 0, Class: "SRT", Subject: 0x300},
		{ID: 1, Stage: StageTxStart, At: 10_000, Node: 0, Subject: 0x300,
			Etag: 0x1234, Prio: 2, Band: "srt", Attempt: 1},
		{ID: 1, Stage: StageTxErr, At: 50_000, Node: 0, Subject: 0x300,
			Etag: 0x1234, Prio: 2, Band: "srt", Attempt: 1, Detail: "bit corrupt"},
		{ID: 1, Stage: StageTxStart, At: 80_000, Node: 0, Subject: 0x300,
			Etag: 0x1234, Prio: 2, Band: "srt", Attempt: 2},
		{ID: 1, Stage: StageTxOK, At: 180_000, Node: 0, Subject: 0x300,
			Etag: 0x1234, Prio: 2, Band: "srt", Attempt: 2},
		{ID: 1, Stage: StageRx, At: 180_000, Node: 1, Subject: 0x300},
		{ID: 1, Stage: StageDelivered, At: 190_000, Node: 1, Class: "SRT", Subject: 0x300},
		{Stage: StageSLOBreach, At: 200_000, Node: -1, Class: "SRT",
			Detail: "p99 over budget; why: top causes: error_retransmit×1(70us)"},
	}
}

// TestTraceJSONLGolden pins the versioned trace JSONL wire format
// byte-for-byte, RFC-style: the serialised form is the contract that
// canecsim -export writes and canecwhy ingests, so any drift must be a
// deliberate, reviewed change (go test ./internal/obs -run Golden
// -update).
func TestTraceJSONLGolden(t *testing.T) {
	path := filepath.Join("testdata", "trace-v1.golden.jsonl")
	var buf bytes.Buffer
	if err := WriteVersionedJSONL(&buf, goldenRecords()); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace JSONL drifted from golden.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
	// And the reader reconstructs exactly what was written.
	info, err := ReadJSONLInfo(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema != TraceSchema {
		t.Fatalf("schema = %q, want %q", info.Schema, TraceSchema)
	}
	if !reflect.DeepEqual(info.Records, goldenRecords()) {
		t.Fatalf("golden did not round-trip: %+v", info.Records)
	}
}

// TestPostmortemSchemaCompat pins the reader's compatibility promises so
// canecwhy can ingest flight-recorder dumps from builds other than its
// own: (1) pre-versioning dumps (no _schema header) still parse, with
// Schema reported empty; (2) dumps from newer builds with additive
// Record fields parse with the unknown fields ignored; (3) blank lines
// are tolerated; (4) a malformed line fails with its line number rather
// than silently truncating evidence.
func TestPostmortemSchemaCompat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "postmortem-compat.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadJSONLInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema != "" {
		t.Fatalf("pre-versioning dump reported schema %q", info.Schema)
	}
	if len(info.Records) != 3 {
		t.Fatalf("records = %d, want 3: %+v", len(info.Records), info.Records)
	}
	if info.Records[0].Stage != StagePublished || info.Records[0].At != 10 {
		t.Fatalf("record 0 = %+v", info.Records[0])
	}
	if info.Records[2].Stage != StageSLOBreach || info.Records[2].Node != -1 {
		t.Fatalf("record 2 = %+v", info.Records[2])
	}

	if _, err := ReadJSONL(bytes.NewReader([]byte("{\"stage\":\"rx\",\"at\":1}\nnot json\n"))); err == nil {
		t.Fatal("malformed line accepted")
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("line 2")) {
		t.Fatalf("error does not name the line: %v", err)
	}
}
