package skyd

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/core"
	"skyfaas/internal/sim"
)

// virtualNow reads the server's virtual clock through /v1/healthz.
func virtualNow(t *testing.T, s *Server) time.Time {
	t.Helper()
	res, body := do(t, s, "GET", "/v1/healthz", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", res.StatusCode, body)
	}
	var out struct {
		VirtualTime time.Time `json:"virtualTime"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.VirtualTime
}

// TestIdleClockTracksSpeedup checks the pacer holds the configured speed:
// on an idle server, virtual time advances by wall time × speedup, not by
// some fraction of it lost to per-event sleep overshoot.
func TestIdleClockTracksSpeedup(t *testing.T) {
	const speedup = 1000
	s := newPacedServer(t, speedup)
	v0 := virtualNow(t, s)
	w0 := time.Now()
	time.Sleep(300 * time.Millisecond)
	v1 := virtualNow(t, s)
	wall := time.Since(w0)
	ratio := v1.Sub(v0).Seconds() / (wall.Seconds() * speedup)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("virtual clock advanced %v over %v wall at speedup %d: ratio %.3f, want 0.8-1.2",
			v1.Sub(v0), wall, speedup, ratio)
	}
}

// TestCommandStartsOnArrival submits commands while the queue holds only
// far-future events (the drift timeline) at real-time pacing. A command
// must start as soon as it arrives, not when the next event or a polling
// tick falls due.
func TestCommandStartsOnArrival(t *testing.T) {
	s := newPacedServer(t, 1)
	var waits []time.Duration
	for i := 0; i < 5; i++ {
		var wait, gap time.Duration
		submit := time.Now()
		err := s.Exec(func(p *sim.Proc) error {
			wait = time.Since(submit)
			at, ok := p.Env().NextAt()
			if !ok {
				at = math.MaxInt64
			}
			gap = at - p.Env().Elapsed()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if gap < time.Minute {
			t.Fatalf("next queued event only %v away; the test needs a far-future queue", gap)
		}
		waits = append(waits, wait)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[len(waits)/2]; med > 5*time.Millisecond {
		t.Fatalf("median submit-to-start %v (all %v), want within 5ms", med, waits)
	}
}

// TestCloseDrainsDriftTimelinePromptly checks Close on a real-time paced
// server whose queue holds the pre-scheduled drift timeline (days of
// virtual time): the drain runs at full speed instead of pacing it out.
func TestCloseDrainsDriftTimelinePromptly(t *testing.T) {
	s := newPacedServer(t, 1)
	var pending bool
	if err := s.Exec(func(p *sim.Proc) error {
		at, ok := p.Env().NextAt()
		pending = ok && at-p.Env().Elapsed() > time.Hour
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !pending {
		t.Fatal("no far-future event queued; the test needs the drift timeline")
	}
	start := time.Now()
	s.Close()
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("Close took %v, want under 2s", wall)
	}
}

func TestNewRejectsShardedRuntime(t *testing.T) {
	rt := newTestRuntime(t, core.Config{Shards: 2})
	if s, err := New(Config{Runtime: rt}); err == nil {
		s.Close()
		t.Fatal("New accepted a sharded runtime")
	}
}

func TestNewRejectsBadSpeedup(t *testing.T) {
	for _, speedup := range []float64{-1, math.NaN(), math.Inf(1)} {
		rt := newTestRuntime(t, core.Config{})
		if s, err := New(Config{Runtime: rt, Speedup: speedup}); err == nil {
			s.Close()
			t.Fatalf("New accepted speedup %v", speedup)
		}
	}
}

// TestPacingMetrics checks the loop's health series reach /metrics: every
// command's submit-to-start wait lands in the histogram, and the lag gauge
// is exported.
func TestPacingMetrics(t *testing.T) {
	s, reg := newMetricsServer(t)
	for i := 0; i < 3; i++ {
		virtualNow(t, s)
	}
	if n := reg.Histogram("sky_skyd_cmd_wait_ms", "", cmdWaitBuckets).Count(); n != 3 {
		t.Fatalf("cmd wait observations = %d, want 3", n)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sky_skyd_cmd_wait_ms_bucket", "sky_skyd_pacing_lag_ms "} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
