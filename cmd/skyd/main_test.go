package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort reserves an ephemeral port and releases it for the server under
// test. The gap between Close and ListenAndServe is a theoretical race, but
// nothing else in the test process binds ports.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := http.Get(base + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// TestGracefulShutdownDrainsInflight proves the SIGTERM path: a burst that
// is mid-flight when the signal lands must finish with 200 (the listener
// stops accepting, the simulation keeps running until the drain completes)
// and run must exit cleanly.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	addr := freePort(t)
	base := "http://" + addr

	done := make(chan error, 1)
	go func() {
		// Slow pacing (20 virtual seconds per wall second) makes the burst
		// take ~45ms of wall time — a window the signal can land inside.
		// Refresh stays off: after the drain, Close still has to pace out
		// any already-scheduled tick, which at this speedup would stall the
		// exit for seconds without testing anything new.
		done <- run([]string{"-addr", addr, "-speedup", "20"})
	}()
	waitHealthy(t, base)
	// healthz answers as soon as the listener is up; give run a beat to
	// reach signal.Notify before SIGTERM.
	time.Sleep(100 * time.Millisecond)

	// Find any zone to pin the burst to.
	res, err := http.Get(base + "/v1/zones")
	if err != nil {
		t.Fatal(err)
	}
	var zones struct {
		Zones []struct {
			Name string `json:"name"`
		} `json:"zones"`
	}
	if err := json.NewDecoder(res.Body).Decode(&zones); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(zones.Zones) == 0 {
		t.Fatal("no zones")
	}
	az := zones.Zones[0].Name

	burstRes := make(chan error, 1)
	go func() {
		body := fmt.Sprintf(`{"workload":"sha1_hash","strategy":"baseline","az":%q,"n":5}`, az)
		res, err := http.Post(base+"/v1/burst", "application/json", strings.NewReader(body))
		if err != nil {
			burstRes <- err
			return
		}
		defer res.Body.Close()
		buf := new(bytes.Buffer)
		_, _ = buf.ReadFrom(res.Body)
		if res.StatusCode != http.StatusOK {
			burstRes <- fmt.Errorf("burst status %d: %s", res.StatusCode, buf.String())
			return
		}
		burstRes <- nil
	}()

	// Let the burst reach the simulation, then signal mid-flight.
	time.Sleep(20 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-burstRes:
		if err != nil {
			t.Fatalf("in-flight burst not drained: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("burst still pending after shutdown")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean exit", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}

	// The listener must actually be gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestHTTPServerTimeouts checks the listener config bounds every phase of
// a connection: header read, body read, response write and keep-alive idle.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, got)
		}
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadTimeout %v shorter than ReadHeaderTimeout %v", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("server config lost addr or handler: %q %v", srv.Addr, srv.Handler)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-tenants", "/no/such/file.json"}); err == nil {
		t.Fatal("missing tenant file accepted")
	}
}

// TestTenantsFlagAuth boots skyd with -tenants pointing at a JSON file and
// proves the auth boundary end to end: no key → 401 missing_key envelope,
// a loaded key → 200.
func TestTenantsFlagAuth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	blob := `[{"id":"ops","name":"Ops","keys":["sk-test-ops"],"admin":true}]`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	base := "http://" + addr
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-speedup", "1e6", "-tenants", path})
	}()
	defer func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Error("run did not exit after SIGTERM")
		}
	}()
	waitHealthy(t, base)
	time.Sleep(100 * time.Millisecond)

	res, err := http.Get(base + "/v1/zones")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusUnauthorized || env.Error.Code != "missing_key" {
		t.Fatalf("unauthenticated /v1/zones = %d %q, want 401 missing_key", res.StatusCode, env.Error.Code)
	}

	req, _ := http.NewRequest(http.MethodGet, base+"/v1/zones", nil)
	req.Header.Set("Authorization", "Bearer sk-test-ops")
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("keyed /v1/zones = %d, want 200", res.StatusCode)
	}
}
