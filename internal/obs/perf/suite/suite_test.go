package suite

import (
	"strings"
	"testing"
	"time"

	"canec/internal/obs/perf"
)

// TestCasesRunSmall drives every recordable case at a tiny iteration
// count: the full record path (workload, measurement, result assembly)
// must work for each before canecbench can trust it.
func TestCasesRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark case once")
	}
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			res := perf.Run(c, perf.RunConfig{Iters: 2})
			if res.Name != c.Name {
				t.Fatalf("name: %q", res.Name)
			}
			if res.Iters != 2 || res.NsPerOp <= 0 {
				t.Fatalf("result: %+v", res)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("EndToEndSRT"); !ok {
		t.Fatal("EndToEndSRT not found")
	}
	if _, ok := Find("NoSuchCase"); ok {
		t.Fatal("phantom case found")
	}
}

// TestEndToEndCasesReportLatency checks the quantile plumbing on a real
// workload: the SRT chain must produce a populated latency histogram.
func TestEndToEndCasesReportLatency(t *testing.T) {
	s := endToEndSRT(20)
	if s.Hist == nil || s.Hist.N() == 0 {
		t.Fatal("SRT case recorded no latencies")
	}
	if s.FramesPerOp != 1 {
		t.Fatalf("frames/op: %v", s.FramesPerOp)
	}
}

// TestWaitUntil: the wait returns once its condition holds, and past its
// deadline it panics with the status instead of spinning.
func TestWaitUntil(t *testing.T) {
	polls := 0
	waitUntil(time.Now().Add(time.Minute), func() bool { polls++; return polls == 3 },
		func() string { return "unused" })
	if polls != 3 {
		t.Fatalf("returned after %d polls, want 3", polls)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "got 1, want 2") {
			t.Fatalf("panic = %q, want the got/want status", msg)
		}
	}()
	waitUntil(time.Now().Add(time.Millisecond), func() bool { return false },
		func() string { return "frames: got 1, want 2" })
	t.Fatal("waitUntil returned past its deadline")
}
