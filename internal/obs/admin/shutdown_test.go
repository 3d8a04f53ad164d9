package admin

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/sim"
)

// TestAdminFlightPostAfterStop: once the pacer has stopped, Paced.Call
// runs each closure on its caller's goroutine. Four concurrent POST
// /flight requests must still dump one at a time — under -race a second
// toucher of the flight recorder fails the test — and yield four
// distinct post-mortems.
func TestAdminFlightPostAfterStop(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1,
		Observe: &obs.Config{Trace: true, FlightRecords: 16, FlightDir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	paced := sim.NewPaced(sys.K, 1)
	s, err := Serve("127.0.0.1:0", Host{Segment: "stopped", Sys: sys, InKernel: paced.Call})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		paced.Run(sim.Time(time.Hour))
	}()
	paced.Stop()
	<-ran

	const n = 4
	paths := make([][]string, n)
	var wg sync.WaitGroup
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+s.Addr()+"/flight", "text/plain", nil)
			if err != nil {
				t.Errorf("POST /flight: %v", err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&paths[i]); err != nil {
				t.Errorf("POST /flight: code %d: %v", resp.StatusCode, err)
			}
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, ps := range paths {
		for _, p := range ps {
			seen[p] = true
		}
	}
	if len(seen) != 2*n {
		t.Fatalf("%d distinct dump files, want %d: %v", len(seen), 2*n, paths)
	}
}

// TestAdminCloseWaitsForKernelReads: Close must not return while a
// handler is inside InKernel, or the caller's next kernel access (the
// hosts call Finish right after Close) races the read.
func TestAdminCloseWaitsForKernelReads(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1, Observe: &obs.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s, err := Serve("127.0.0.1:0", Host{Segment: "held", Sys: sys, InKernel: func(fn func()) {
		once.Do(func() {
			close(entered)
			<-release
		})
		fn()
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		defer close(got)
		if resp, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(release)
		t.Fatal("Close returned while an in-kernel read was held")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(closeWait):
		t.Fatal("Close did not return once the read finished")
	}
	<-got
}
