package main

import (
	"context"
	"encoding/json"
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

	"canec/internal/obs"
)

// The two federation gates run both segments as goroutines of the test
// process: nothing is spawned, so nothing can outlive the test, and
// t.Cleanup cancels and joins every daemon however the test ends.

// waitFor bounds every wait on a daemon (start-up lines, deliveries,
// exit); generous because -race on a loaded machine is slow, never
// reached on a healthy run.
const waitFor = 60 * time.Second

// Each segment's scenario file.
const (
	segmentA = "../../testdata/segment-a.json"
	segmentB = "../../testdata/segment-b.json"
)

// daemon is one canecd run() on its own goroutine, with its output
// captured line by line.
type daemon struct {
	name string
	stop context.CancelFunc // a clean shutdown, as on SIGTERM
	done chan struct{}      // closed when run() has returned
	code int                // run()'s return value, valid after done

	mu    sync.Mutex
	out   strings.Builder
	grown chan struct{} // closed and replaced whenever out grows
}

// Write collects stdout and stderr of the daemon; relay goroutines may log
// concurrently with run().
func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.out.Write(p)
	close(d.grown)
	d.grown = make(chan struct{})
	return len(p), nil
}

func (d *daemon) output() (string, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String(), d.grown
}

func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{name: name, stop: cancel, done: make(chan struct{}), grown: make(chan struct{})}
	args = append([]string{"-segment", name, "-flight-dir", t.TempDir()}, args...)
	go func() {
		defer close(d.done)
		d.code = run(ctx, args, d, d)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-d.done:
		case <-time.After(waitFor):
			t.Errorf("segment %s did not stop after cancel", name)
		}
	})
	return d
}

// line waits for an output line matching re and returns its first
// submatch (the whole match when re has no group).
func (d *daemon) line(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.After(waitFor)
	for {
		out, grown := d.output()
		if m := rx.FindStringSubmatch(out); m != nil {
			return m[len(m)-1]
		}
		select {
		case <-grown:
		case <-d.done:
			out, _ = d.output()
			if m := rx.FindStringSubmatch(out); m != nil {
				return m[len(m)-1]
			}
			t.Fatalf("segment %s exited without printing %q:\n%s", d.name, re, out)
		case <-deadline:
			t.Fatalf("segment %s never printed %q:\n%s", d.name, re, out)
		}
	}
}

// wait joins the daemon and returns its exit code.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-d.done:
		return d.code
	case <-time.After(waitFor):
		out, _ := d.output()
		t.Fatalf("segment %s still running:\n%s", d.name, out)
		return -1
	}
}

// TestRelaySmoke is the multi-process federation gate run in-process:
// segment a's scenario streams SRT events on 0x42, and three of them must
// be delivered on segment b with the origin trace intact (trace IDs from
// a's base, a relay_rx record on b) — run() itself verifies all three
// before it prints "expect met" and returns 0. Segment a runs until it is
// cancelled, which is a clean shutdown: exit 0 and its scenario report.
func TestRelaySmoke(t *testing.T) {
	b := startDaemon(t, "b", "-config", segmentB, "-trace-base", "2", "-listen", "127.0.0.1:0",
		"-sub", "0x42", "-announce", "srt:0x42", "-expect", "0x42:3", "-expect-origin", "1",
		"-dur", "30s", "-hb", "100ms", "-v")
	addr := b.line(t, `listening on (\S+)`)
	a := startDaemon(t, "a", "-config", segmentA, "-trace-base", "1", "-uplink", addr,
		"-forward", "srt:0x42", "-dur", "30s", "-hb", "100ms", "-v")

	if code := b.wait(t); code != 0 {
		out, _ := b.output()
		aout, _ := a.output()
		t.Fatalf("segment b exited %d:\n%s\nsegment a:\n%s", code, out, aout)
	}
	met := b.line(t, `expect met: (.*)`)
	if !strings.HasPrefix(met, "3 deliveries on 0x42, trace continuity ok (id=0x1") {
		t.Fatalf("segment b's expectation report = %q", met)
	}
	a.stop()
	if code := a.wait(t); code != 0 {
		out, _ := a.output()
		t.Fatalf("segment a exited %d:\n%s", code, out)
	}
	a.line(t, `scenario "segment-a"`)
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestObsSmoke is the live-introspection gate run in-process: the same
// federation with the admin plane on both segments. Segment a streams and
// segment b counts until the test cancels them, so both stay up for as
// long as the checks take: /healthz ok, /slo carrying the srt-miss-rate
// objective, /profile enabled and a strictly valid /metrics exposition on
// each, after b's own metrics show the relayed events delivered; a's
// /control serves its scenario's control loop, issuing commands.
func TestObsSmoke(t *testing.T) {
	const deliveries = 20
	b := startDaemon(t, "b", "-config", segmentB, "-trace-base", "2", "-listen", "127.0.0.1:0",
		"-admin", "127.0.0.1:0", "-sub", "0x42", "-announce", "srt:0x42", "-expect", "0x42:1000000",
		"-dur", "10m", "-hb", "100ms")
	addr := b.line(t, `listening on (\S+)`)
	adminB := b.line(t, `admin on (\S+)`)
	a := startDaemon(t, "a", "-config", segmentA, "-trace-base", "1", "-uplink", addr,
		"-admin", "127.0.0.1:0", "-forward", "srt:0x42", "-dur", "10m", "-hb", "100ms")
	adminA := a.line(t, `admin on (\S+)`)

	delivered := regexp.MustCompile(`(?m)^canec_events_delivered_total\{class="SRT"\} (\d+)$`)
	for deadline := time.Now().Add(waitFor); ; time.Sleep(20 * time.Millisecond) {
		if m := delivered.FindStringSubmatch(httpGet(t, "http://"+adminB+"/metrics")); m != nil {
			if n, _ := strconv.Atoi(m[1]); n >= deliveries {
				break
			}
		}
		if time.Now().After(deadline) {
			out, _ := b.output()
			t.Fatalf("segment b never delivered %d relayed events:\n%s", deliveries, out)
		}
	}

	for _, admin := range []string{adminA, adminB} {
		if body := httpGet(t, "http://"+admin+"/healthz"); !strings.Contains(body, `"status": "ok"`) {
			t.Errorf("%s /healthz not ok:\n%s", admin, body)
		}
		if body := httpGet(t, "http://"+admin+"/slo"); !strings.Contains(body, `"srt-miss-rate"`) {
			t.Errorf("%s /slo lacks the srt-miss-rate objective:\n%s", admin, body)
		}
		var prof struct{ Enabled bool }
		if body := httpGet(t, "http://"+admin+"/profile"); json.Unmarshal([]byte(body), &prof) != nil || !prof.Enabled {
			t.Errorf("%s /profile not enabled:\n%s", admin, body)
		}
		metrics := httpGet(t, "http://"+admin+"/metrics")
		if !strings.Contains(metrics, "# TYPE canec_events_published_total counter") {
			t.Errorf("%s /metrics lacks canec_events_published_total", admin)
		}
		if err := obs.ValidateExposition(strings.NewReader(metrics)); err != nil {
			t.Errorf("%s /metrics is not a valid exposition: %v", admin, err)
		}
	}
	var ctl struct {
		Enabled bool
		Loops   []struct{ Commands uint64 }
	}
	body := httpGet(t, "http://"+adminA+"/control")
	if err := json.Unmarshal([]byte(body), &ctl); err != nil || !ctl.Enabled ||
		len(ctl.Loops) != 1 || ctl.Loops[0].Commands == 0 {
		t.Errorf("%s /control does not serve a commanding loop (%v):\n%s", adminA, err, body)
	}
	if t.Failed() {
		for _, d := range []*daemon{a, b} {
			out, _ := d.output()
			t.Logf("segment %s:\n%s", d.name, out)
		}
	}
}

// TestConfigErrors: every way the segment's scenario can be unusable ends
// the daemon before it binds anything, exit 1 with the problem on stderr.
func TestConfigErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	missing := filepath.Join(dir, "missing.json")
	for _, tc := range []struct {
		name   string
		config string // "" omits -config
		want   string
	}{
		{"no config", "", "-config is required"},
		{"missing file", missing, missing},
		{"unknown field", write("bogus.json", `{"nodes": 4, "durationMs": 100, "bogus": 1}`), `unknown field "bogus"`},
		{"one node", write("one.json", `{"nodes": 1, "durationMs": 100}`), "nodes 1 out of range"},
		{"too few nodes", write("two.json", `{"nodes": 2, "durationMs": 100}`), "2 nodes cannot host 1 relay bridges"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-segment", "x", "-uplink", "127.0.0.1:1"}
			if tc.config != "" {
				args = append(args, "-config", tc.config)
			}
			var stdout, stderr strings.Builder
			code := run(context.Background(), args, &stdout, &stderr)
			if code == 0 || !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("exit %d, stderr %q; want non-zero naming %q", code, stderr.String(), tc.want)
			}
			if stdout.Len() > 0 {
				t.Errorf("started anyway:\n%s", stdout.String())
			}
		})
	}
}
