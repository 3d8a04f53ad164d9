package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"canec/internal/golden"
)

const testdata = "../../testdata/"

// canecsim runs the program in-process and returns its exit code, stdout and stderr.
func canecsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// report runs canecsim, requires exit 0, and returns the printed report.
func report(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errs := canecsim(args...)
	if code != 0 {
		t.Fatalf("canecsim %v exited %d:\n%s%s", args, code, out, errs)
	}
	return out
}

// digest is the "sha256 length" line a golden pins a large output by.
func digest(data []byte) string {
	return fmt.Sprintf("%x %d\n", sha256.Sum256(data), len(data))
}

// mustMatch asserts each {pattern, what a miss means} pair: the pattern
// must match within one line of the report.
func mustMatch(t *testing.T, out string, checks [][2]string) {
	t.Helper()
	for _, c := range checks {
		if !regexp.MustCompile(c[0]).MatchString(out) {
			t.Errorf("%s (no match for %q):\n%s", c[1], c[0], out)
		}
	}
}

// TestBusoffSmoke is the bus-off adversary gate: a rate-1.0 slot-timed
// corruption attack on station 1 with the guardian's slot-targeted
// escalation armed and the lifecycle supervisor owning bus-off recovery.
// The run must show the weapon working (a bus-off entry), the defense
// working (a supervised recovery and the attacker isolated), and every
// chaos trace invariant holding — twice, bit-identically.
func TestBusoffSmoke(t *testing.T) {
	args := []string{"-config", testdata + "scenario-busoff.json", "-chaos", testdata + "chaos-busoff-attack.json"}
	out := report(t, args...)
	mustMatch(t, out, [][2]string{
		{`chaos: bus-off: [1-9][0-9]* event\(s\), [1-9][0-9]* supervised recovery\(ies\)`, "victim never went bus-off or never recovered"},
		{`isolated 1 nodes`, "guardian never isolated the attacker"},
		{`attacker sent 0`, "attacker pulses reached the wire despite the guardian"},
		{`chaos: all trace invariants hold`, "invariant violations"},
	})
	if again := report(t, args...); again != out {
		t.Errorf("campaign is not deterministic:\n%s\nvs\n%s", out, again)
	}
}

// TestAdmissionSmoke is the probabilistic-admission gate. Clean, the
// overcommitted channel must be rejected at announce with the typed
// miss-probability reason while the schedulable channels are admitted and
// nothing is shed; under the bit-error ramp the marginal channel must be
// shed, the surviving admitted SRT channels must keep the target miss
// probability, HRT must stay unaffected and every chaos trace invariant
// must hold — deterministically.
func TestAdmissionSmoke(t *testing.T) {
	clean := report(t, "-config", testdata+"scenario-admission.json")
	mustMatch(t, clean, [][2]string{
		{`admission: 3 admitted, 1 rejected, 0 shed`, "clean run admitted/rejected mix wrong"},
		{`admission: rejected srt 0x382: miss-probability`, "overcommitted channel not rejected with typed reason"},
		{`SRT: .* deadlineMissed 0,`, "admitted channels missed deadlines on a clean bus"},
	})

	args := []string{"-config", testdata + "scenario-admission.json", "-chaos", testdata + "chaos-admission-ramp.json"}
	out := report(t, args...)
	mustMatch(t, out, [][2]string{
		{`admission: 3 admitted, 1 rejected, 1 shed`, "marginal channel not shed under the error ramp"},
		{`admission: rejections by reason: miss-probability`, "typed rejection reason missing"},
		{`chaos: all trace invariants hold`, "invariant violations"},
		{`HRT: .* late 0,`, "HRT deliveries went late under the SRT error ramp"},
	})
	// The surviving admitted channels must keep the 0.02 miss target even
	// under the ramp: measured misses / deliveries <= target.
	m := regexp.MustCompile(`(?m)^SRT: (\d+) delivered, .* deadlineMissed (\d+),`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no SRT line:\n%s", out)
	}
	delivered, _ := strconv.Atoi(m[1])
	missed, _ := strconv.Atoi(m[2])
	if delivered == 0 || float64(missed)/float64(delivered) > 0.02 {
		t.Errorf("admitted SRT channels broke the miss target: %d missed of %d", missed, delivered)
	}
	if again := report(t, args...); again != out {
		t.Errorf("campaign is not deterministic:\n%s\nvs\n%s", out, again)
	}
}

// cartCost extracts the cart loop's accumulated quadratic cost.
func cartCost(t *testing.T, out string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^control cart.* cost (\S+) `).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no cart loop line:\n%s", out)
	}
	cost, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

// TestControlSmoke is the closed-loop control gate: a PID cart loop whose
// controller is station 2 and a bystander thermal loop on stations 4/5,
// clean and under a scripted bus-off attack on the cart's controller. The
// clean run must settle both loops with zero stale ticks; the attacked run
// must show the outage in the quality-of-control measure (strictly higher
// cart cost, stale ticks while the controller is bus-off) yet still
// recover and settle before the horizon, leave the bystander loop
// untouched and hold every chaos trace invariant — twice, bit-identically.
//
// The clean run's stdout, with its last 32 bus events, is pinned as a
// golden.
func TestControlSmoke(t *testing.T) {
	clean := report(t, "-config", testdata+"scenario-control.json", "-trace", "32")
	golden.Check(t, testdata+"golden/canecsim/scenario-control.trace.txt", clean)
	mustMatch(t, clean, [][2]string{
		{`control cart\[SRT\]: .* settled at .* stale 0,`, "cart loop did not settle cleanly on an idle bus"},
		{`control heat\[SRT\]: .* settled at .* stale 0,`, "heat loop did not settle cleanly on an idle bus"},
	})

	args := []string{"-config", testdata + "scenario-control.json", "-chaos", testdata + "chaos-control-attack.json"}
	out := report(t, args...)
	mustMatch(t, out, [][2]string{
		{`chaos: bus-off: [1-9][0-9]* event\(s\), [1-9][0-9]* supervised recovery\(ies\)`, "controller never went bus-off or never recovered"},
		{`chaos: all trace invariants hold`, "invariant violations"},
		{`control cart\[SRT\]: .* stale [1-9][0-9]*,`, "no stale ticks during the controller outage"},
		{`control cart\[SRT\]: .* settled at `, "cart loop never re-settled after the attack"},
		{`control heat\[SRT\]: .* settled at .* stale 0,`, "bystander loop was disturbed by the attack"},
	})
	if a, c := cartCost(t, out), cartCost(t, clean); !(a > c) {
		t.Errorf("attack did not raise cart cost (%v vs %v)", a, c)
	}
	if again := report(t, args...); again != out {
		t.Errorf("campaign is not deterministic:\n%s\nvs\n%s", out, again)
	}
}

// whyRun replays the why-late demo under its bit-error campaign with the
// flight dumps redirected into a fresh directory, and returns the report
// and the SLO breach post-mortem.
func whyRun(t *testing.T) (out string, postmortem []byte) {
	t.Helper()
	dir := t.TempDir()
	data, err := os.ReadFile(testdata + "scenario-why.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc map[string]any
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	sc["flightDir"] = dir
	if data, err = json.Marshal(sc); err != nil {
		t.Fatal(err)
	}
	config := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(config, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out = report(t, "-config", config, "-chaos", testdata+"chaos-why.json")
	dumps, _ := filepath.Glob(filepath.Join(dir, "postmortem-*-slo-srt-miss-rate.jsonl"))
	if len(dumps) == 0 {
		t.Fatalf("SLO breach produced no post-mortem dump:\n%s", out)
	}
	if postmortem, err = os.ReadFile(dumps[0]); err != nil {
		t.Fatal(err)
	}
	return out, postmortem
}

// TestWhySmoke is the root-cause attribution pipeline end to end: a
// scripted bit-error campaign drives an SRT deadline-miss SLO breach, and
// the breach post-mortem must carry the correct top cause on its
// slo_breach record — twice, bit-identically — and match the pinned
// digest. (canecwhy's ranking of the same dump is asserted in
// cmd/canecwhy.)
func TestWhySmoke(t *testing.T) {
	out, pm := whyRun(t)
	golden.Check(t, testdata+"golden/canecsim/scenario-why+chaos-why.postmortem.txt", digest(pm))
	mustMatch(t, out, [][2]string{
		{`slo: srt-miss-rate breached`, "the campaign never breached the SRT miss SLO"},
		{`why: SRT: [1-9][0-9]* late, .* top cause error_retransmit`, "report did not attribute the injected bit errors"},
	})
	if !bytes.Contains(pm, []byte("why: top causes: error_retransmit")) {
		t.Errorf("breach record missing the attributed top cause")
	}
	out2, pm2 := whyRun(t)
	if out2 != out {
		t.Errorf("report is not deterministic:\n%s\nvs\n%s", out, out2)
	}
	if !bytes.Equal(pm, pm2) {
		t.Errorf("post-mortem dumps differ between runs")
	}
}

// TestFromFlagsValidates: whatever mix the flags describe lowers to a
// scenario Validate accepts — or, for a segment too small, rejects.
func TestFromFlagsValidates(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		nodes, hrt                int
		srtLoad                   float64
		bulk, omission, nCtl      int
		wantHRT, wantSRT, wantNRT int
		invalid                   bool
	}{
		{name: "defaults", nodes: 8, hrt: 2, srtLoad: 0.4, bulk: 16384, omission: 1, wantHRT: 2, wantSRT: 8, wantNRT: 1},
		{name: "no hrt", nodes: 8, srtLoad: 0.4, bulk: 16384, omission: 1, wantSRT: 8, wantNRT: 1},
		{name: "no bulk", nodes: 8, hrt: 2, srtLoad: 0.4, omission: 1, wantHRT: 2, wantSRT: 8},
		{name: "no srt", nodes: 8, hrt: 2, bulk: 16384, omission: 1, wantHRT: 2, wantNRT: 1},
		{name: "three loops", nodes: 8, hrt: 2, srtLoad: 0.4, bulk: 16384, omission: 1, nCtl: 3, wantHRT: 2, wantSRT: 8, wantNRT: 1},
		{name: "overload on two nodes", nodes: 2, hrt: 1, srtLoad: 1.5, bulk: 1, omission: 2, nCtl: 4, wantHRT: 1, wantSRT: 2, wantNRT: 1},
		{name: "hrt on every node", nodes: 4, hrt: 4, srtLoad: 0.2, omission: 1, wantHRT: 4, wantSRT: 4},
		{name: "one node", nodes: 1, hrt: 2, srtLoad: 0.4, bulk: 16384, invalid: true},
		{name: "no nodes", nodes: 0, hrt: 2, srtLoad: 0.4, bulk: 16384, nCtl: 1, invalid: true},
		{name: "more hrt than nodes", nodes: 3, hrt: 4, srtLoad: 0.4, invalid: true},
	} {
		sc := fromFlags(tc.nodes, tc.hrt, tc.srtLoad, tc.bulk, 0, tc.omission, tc.nCtl, 2*time.Second, 1, 100)
		err := sc.Validate()
		if tc.invalid {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if len(sc.HRT) != tc.wantHRT || len(sc.SRT) != tc.wantSRT || len(sc.NRT) != tc.wantNRT || len(sc.Control) != tc.nCtl {
			t.Errorf("%s: %d HRT, %d SRT, %d NRT streams, %d loops", tc.name, len(sc.HRT), len(sc.SRT), len(sc.NRT), len(sc.Control))
		}
	}
}

// TestFlagMode: the default mix delivers its 2 × 200 HRT events on time,
// its output is pinned at seeds 1-3 and so is the control-loop mix under
// bus faults, and a one-station segment is refused instead of run with
// publisher = subscriber.
func TestFlagMode(t *testing.T) {
	out := report(t)
	golden.Check(t, testdata+"golden/canecsim/flags-default.txt", out)
	if !regexp.MustCompile(`(?m)^HRT: 400 delivered, .* late 0, missed 0$`).MatchString(out) {
		t.Errorf("default flags:\n%s", out)
	}
	for _, want := range []string{"SRT: ", "NRT: ", "bus: utilization ", "redundancy: 400 copies suppressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("default flags: no %q in\n%s", want, out)
		}
	}
	for _, seed := range []string{"2", "3"} {
		golden.Check(t, testdata+"golden/canecsim/flags-seed"+seed+".txt", report(t, "-seed", seed))
	}
	for _, seed := range []string{"1", "2", "3"} {
		golden.Check(t, testdata+"golden/canecsim/flags-control-seed"+seed+".txt",
			report(t, "-seed", seed, "-control", "3", "-faults", "0.01", "-dur", "1s"))
	}
	code, stdout, stderr := canecsim("-nodes", "1")
	if code == 0 || stdout != "" || !strings.Contains(stderr, "nodes 1 out of range") {
		t.Errorf("-nodes 1: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestExports: one run of the trace scenario writes its stage trace,
// Chrome trace and metrics, each pinned as "sha256 length" in that order.
// The golden holds the digests of the exports canecsim inherited from the
// retired canectrace exporter: never regenerate it with -update. Exporting
// leaves stdout as it is, and an unknown extension is refused before the
// run, with nothing on stdout.
func TestExports(t *testing.T) {
	dir := t.TempDir()
	config := testdata + "scenario-trace.json"
	args := []string{"-config", config}
	names := []string{"t.jsonl", "t.json", "t.prom"}
	for _, name := range names {
		args = append(args, "-export", filepath.Join(dir, name))
	}
	out := report(t, args...)
	var sums strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sums.WriteString(digest(data))
	}
	golden.Check(t, testdata+"golden/canecsim/scenario-trace.exports.txt", sums.String())
	if plain := report(t, "-config", config); plain != out {
		t.Errorf("-export changed stdout:\n%s\nvs\n%s", out, plain)
	}
	code, stdout, stderr := canecsim("-config", config, "-export", filepath.Join(dir, "t.txt"))
	if code == 0 || stdout != "" || !strings.Contains(stderr, "unknown export format") {
		t.Errorf("-export t.txt: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// lineWriter collects canecsim's stdout while it runs and hands out the
// first line matching a pattern as soon as it is written.
type lineWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lineWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestConfigPacedAdmin: a scenario file runs paced with the admin plane
// beside it — /healthz and /channels answer while the run is in progress —
// and still ends with the scenario's report.
func TestConfigPacedAdmin(t *testing.T) {
	var out lineWriter
	done := make(chan int, 1)
	// 1 s of virtual time at pace 1: long enough to query, short enough to wait out.
	go func() {
		done <- run([]string{"-config", testdata + "scenario-automotive.json", "-pace", "1", "-admin", "127.0.0.1:0"}, &out, &out)
	}()
	joined := false
	t.Cleanup(func() {
		if !joined {
			<-done
		}
	})
	addrRe := regexp.MustCompile(`admin on (\S+)`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) || len(done) > 0 {
			t.Fatalf("no admin address:\n%s", out.String())
		}
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v\n%s", path, resp.StatusCode, err, body)
		}
		return string(body)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz not ok:\n%s", body)
	}
	if body := get("/channels"); !strings.Contains(body, `"HRT"`) || !strings.Contains(body, `"SRT"`) {
		t.Errorf("/channels lacks the scenario's channels:\n%s", body)
	}
	code := <-done
	joined = true
	if code != 0 || !strings.Contains(out.String(), `scenario "automotive`) {
		t.Errorf("paced run exited %d:\n%s", code, out.String())
	}
}
