package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"canec/internal/chaos"
	"canec/internal/golden"
	"canec/internal/obs"
	"canec/internal/scenario"
	"canec/internal/sim"
)

func TestParseLateOver(t *testing.T) {
	bounds, err := parseLateOver("HRT=1ms, srt=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if bounds["HRT"] != sim.Duration(1_000_000) || bounds["SRT"] != sim.Duration(5_000_000) {
		t.Fatalf("bounds = %v", bounds)
	}
	if _, err := parseLateOver("HRT"); err == nil {
		t.Fatal("missing '=' accepted")
	}
	if _, err := parseLateOver("HRT=fast"); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// buildCanecwhy builds the binary under test into dir.
func buildCanecwhy(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "canecwhy")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestCanecwhyEndToEnd runs the built binary over a post-mortem style
// dump with a known injected cause and checks the ranked output, and over
// the committed pre-versioning dump, whose output is pinned as a golden.
func TestCanecwhyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := buildCanecwhy(t, dir)
	dump := filepath.Join(dir, "postmortem.jsonl")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	recs := []obs.Record{
		{ID: 1, Stage: obs.StagePublished, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageEnqueued, At: 0, Node: 0, Class: obs.ClassSRT, Subject: 0x300},
		{ID: 1, Stage: obs.StageTxStart, At: 10_000, Node: 0, Subject: 0x300, Attempt: 1},
		{ID: 1, Stage: obs.StageTxErr, At: 50_000, Node: 0, Subject: 0x300, Attempt: 1, Detail: obs.Text("bit corrupt")},
		{ID: 1, Stage: obs.StageTxStart, At: 80_000, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageTxOK, At: 180_000, Node: 0, Subject: 0x300, Attempt: 2},
		{ID: 1, Stage: obs.StageRx, At: 180_000, Node: 1, Subject: 0x300},
		{ID: 1, Stage: obs.StageDelivered, At: 190_000, Node: 1, Class: obs.ClassSRT, Subject: 0x300},
	}
	// The flight recorder's post-mortem format: the schema header line,
	// then the records.
	if _, err := f.WriteString(`{"stage":"_schema","at":0,"node":-1,"prio":-1,"detail":"canec-trace/1"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, err := exec.Command(bin, "-late-over", "SRT=100us", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("canecwhy: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"canec-trace/1", "top causes: error_retransmit",
		"error_retransmit", "worst chains", "0x300",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}

	// Determinism: two runs over the same dump are byte-identical.
	out2, err := exec.Command(bin, "-late-over", "SRT=100us", dump).CombinedOutput()
	if err != nil || string(out2) != text {
		t.Fatalf("reruns differ: %v\n%s\nvs\n%s", err, text, out2)
	}

	compat, err := exec.Command(bin, "../../internal/obs/testdata/postmortem-compat.jsonl").CombinedOutput()
	if err != nil {
		t.Fatalf("canecwhy: %v\n%s", err, compat)
	}
	golden.Check(t, "../../testdata/golden/canecwhy/postmortem-compat.txt", string(compat))

	// A missing file fails with a non-zero status.
	if out, err := exec.Command(bin, filepath.Join(dir, "nope.jsonl")).CombinedOutput(); err == nil {
		t.Fatalf("missing file accepted:\n%s", out)
	}
}

// TestWhySmokeRanking is the canecwhy half of the root-cause gate: the
// committed why-late demo under its bit-error campaign breaches the SRT
// miss SLO, and canecwhy over the breach post-mortem must rank the
// injected cause first — identically for two runs of the campaign, and
// as the pinned verdict.
func TestWhySmokeRanking(t *testing.T) {
	bin := buildCanecwhy(t, t.TempDir())
	verdict := func() string {
		f, err := os.Open("../../testdata/scenario-why.json")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc, err := scenario.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		script, err := os.ReadFile("../../testdata/chaos-why.json")
		if err != nil {
			t.Fatal(err)
		}
		sc.Chaos = new(chaos.Script)
		if err := json.Unmarshal(script, sc.Chaos); err != nil {
			t.Fatal(err)
		}
		sc.FlightDir = t.TempDir()
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
		dumps, _ := filepath.Glob(filepath.Join(sc.FlightDir, "postmortem-*-slo-srt-miss-rate.jsonl"))
		if len(dumps) == 0 {
			t.Fatal("SLO breach produced no post-mortem dump")
		}
		out, err := exec.Command(bin, "-late-over", "srt=700us", dumps[0]).CombinedOutput()
		if err != nil {
			t.Fatalf("canecwhy: %v\n%s", err, out)
		}
		// The first line names the dump; the rest is the verdict.
		return strings.ReplaceAll(string(out), sc.FlightDir, "")
	}
	first := verdict()
	golden.Check(t, "../../testdata/golden/canecwhy/scenario-why+chaos-why.txt", first)
	if !strings.Contains(first, "top causes: error_retransmit") {
		t.Fatalf("canecwhy ranked the wrong root cause:\n%s", first)
	}
	if second := verdict(); second != first {
		t.Fatalf("verdict is not deterministic:\n%s\nvs\n%s", first, second)
	}
}
