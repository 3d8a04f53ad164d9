package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"canec/internal/control"
	"canec/internal/core"
	"canec/internal/obs"
	"canec/internal/obs/admin"
)

// serve puts sys on an admin plane that closes when the test ends.
func serve(t *testing.T, segment string, sys *core.System, loops ...*control.Loop) *admin.Server {
	t.Helper()
	srv, err := admin.Serve("127.0.0.1:0", admin.Host{Segment: segment, Sys: sys, Loops: loops})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// plainSystem is a two-node system with metrics on and nothing else.
func plainSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{Nodes: 2, Seed: 1, Observe: &obs.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFailedFetchIsUnreachable: every endpoint counts. A daemon whose /why
// answers 404 is UNREACHABLE and fails -once with exit 2, like one whose
// /healthz does.
func TestFailedFetchIsUnreachable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/why":
			http.NotFound(w, r)
		case "/relay":
			fmt.Fprint(w, "[]")
		default:
			fmt.Fprint(w, "{}")
		}
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	targets := poll(&http.Client{Timeout: 2 * time.Second}, []string{addr}, false)
	if targets[0].err == nil || !strings.Contains(targets[0].err.Error(), "/why") {
		t.Fatalf("poll err = %v, want the /why failure", targets[0].err)
	}
	var b strings.Builder
	render(&b, targets)
	if !strings.Contains(b.String(), "UNREACHABLE") {
		t.Fatalf("row not UNREACHABLE:\n%s", b.String())
	}
	if code := fleetStatus(targets); code != 2 {
		t.Fatalf("fleet status %d, want 2", code)
	}
}
