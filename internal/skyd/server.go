// Package skyd is the sky middleware's control plane: an HTTP server over a
// live (real-time paced) sky runtime. It is what an operator deployment of
// the paper's system looks like — characterize zones, inspect the learned
// performance model, and route bursts, all over JSON.
//
// Concurrency model: the simulation kernel is single-threaded by design, so
// the server runs it on one dedicated goroutine, a wall-anchored pacer, and
// bridges HTTP handlers in through a command channel. The pacer holds
// virtual time at Speedup × the wall time since it started: it runs every
// event that has fallen due at full speed, then sleeps until the next
// event's wall deadline or a command's arrival, whichever is first. An
// arriving command starts at once, as a cooperative process at the
// arrival's virtual instant; its handler blocks on a reply channel. No
// handler ever touches the simulation directly.
package skyd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/core"
	"skyfaas/internal/metrics"
	"skyfaas/internal/refresh"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
	"skyfaas/internal/workload"
)

// ErrClosed is returned for commands submitted after Close.
var ErrClosed = errors.New("skyd: server closed")

// Config assembles a Server.
type Config struct {
	// Runtime is the assembled sky runtime to serve (required). It must
	// use the single-queue engine: a sharded group is never paced against
	// the wall clock.
	Runtime *core.Runtime
	// Speedup is the virtual-to-wall time ratio the pacer holds (default
	// 1000: one virtual second per wall millisecond). It must be positive
	// and finite.
	Speedup float64
	// Metrics is the registry /metrics serves and HTTP instrumentation
	// reports into (default: the runtime's registry, so one scrape covers
	// the HTTP layer, the router, and the simulated cloud).
	Metrics *metrics.Registry
	// HealthTimeout bounds how long /healthz waits for the simulation
	// goroutine to answer before reporting the loop stalled (default 5s).
	HealthTimeout time.Duration
	// Refresh, when non-nil, enables the continuous characterization-
	// maintenance control loop on the runtime and starts it with the
	// server; /v1/refresh then inspects and steers it. Nil leaves the
	// endpoints answering 409 (unless the runtime already carries a
	// maintainer, which the server adopts and stops on Close).
	Refresh *refresh.Config
	// WarmPool, when non-nil, enables the predictive pre-warming control
	// loop on the runtime and starts it with the server; /v1/warmpool then
	// inspects and steers it. Nil leaves the endpoints answering 409
	// (unless the runtime already carries a maintainer, which the server
	// adopts and stops on Close).
	WarmPool *warmpool.Config
	// WarmPoolWorkload selects the workload whose admission service-time
	// estimate sizes the warm pools (default Sha1Hash, the catalog's
	// lightest request-shaped workload).
	WarmPoolWorkload workload.ID
	// Admission, when non-nil, enables the overload-control gate on the
	// runtime: burst requests past estimated capacity answer 429 with
	// Retry-After, and /v1/admission inspects and retunes the gate. Nil
	// leaves the endpoints answering 409 (unless the runtime already
	// carries a controller, which the server adopts).
	Admission *admission.Config
	// Tenants, when non-nil, turns authentication on: every /v1 endpoint
	// except /v1/healthz requires an API key resolving to a registered
	// tenant, per-tenant quota/budget governors run in front of the global
	// admission gate, and the /v1/tenants surface administers the registry.
	// Nil is auth-off mode — the full surface stays open and untenanted,
	// preserving zero-config behavior.
	Tenants *tenant.Registry
}

// Server bridges HTTP onto a paced simulation.
type Server struct {
	rt            *core.Runtime
	speedup       float64
	metrics       *metrics.Registry
	queueDepth    *metrics.Gauge
	cmdWait       *metrics.Histogram
	pacingLag     *metrics.Gauge
	healthTimeout time.Duration

	// refresher is the maintenance loop the server owns the lifecycle of
	// (nil when refresh is disabled); Close must stop it or its
	// self-rescheduling tick would keep the event queue alive forever.
	refresher *refresh.Maintainer

	// warmer is the pre-warming loop (nil when warm pooling is disabled);
	// like the refresher it self-reschedules, so Close must stop it.
	warmer *warmpool.Maintainer

	// gate is the overload-control layer in the burst path (nil when
	// admission is disabled). It needs no lifecycle management: it holds no
	// events, only mutex-guarded state.
	gate *admission.Controller

	// tenants is the account registry (nil in auth-off mode). Like the
	// gate it is mutex-guarded state with no lifecycle of its own.
	tenants *tenant.Registry

	mux  *http.ServeMux
	cmds chan func(p *sim.Proc)

	mu sync.Mutex
	// closed records that Close began; guarded by mu.
	closed bool
	stop   chan struct{}
	done   chan struct{}
}

// New builds and starts a server (the simulation goroutine begins
// immediately; call Close to stop it).
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("skyd: nil runtime")
	}
	if cfg.Runtime.Env().Group() != nil {
		return nil, errors.New("skyd: a sharded runtime cannot be paced; serve a single-queue runtime")
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 1000
	}
	if !(cfg.Speedup > 0) || math.IsInf(cfg.Speedup, 1) {
		return nil, fmt.Errorf("skyd: speedup %v, want positive and finite", cfg.Speedup)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Runtime.Metrics()
	}
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = 5 * time.Second
	}
	s := &Server{
		rt:            cfg.Runtime,
		speedup:       cfg.Speedup,
		metrics:       cfg.Metrics,
		healthTimeout: cfg.HealthTimeout,
		mux:           http.NewServeMux(),
		cmds:          make(chan func(p *sim.Proc), 64),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		tenants:       cfg.Tenants,
	}
	s.queueDepth = s.metrics.Gauge("sky_skyd_cmd_queue_depth",
		"commands enqueued for the simulation goroutine but not yet started")
	s.cmdWait = s.metrics.Histogram("sky_skyd_cmd_wait_ms",
		"wall time from Exec submit to the command's process start in milliseconds", cmdWaitBuckets)
	s.pacingLag = s.metrics.Gauge("sky_skyd_pacing_lag_ms",
		"virtual milliseconds the simulation trails its wall-clock target after a catch-up")
	// Arm the maintenance loop before the simulation goroutine starts: the
	// environment is not yet running, so scheduling its first tick here is
	// single-threaded and safe.
	if cfg.Refresh != nil {
		m, err := cfg.Runtime.EnableRefresh(*cfg.Refresh)
		if err != nil {
			return nil, err
		}
		m.Start()
		s.refresher = m
	} else if m := cfg.Runtime.Refresher(); m != nil {
		// Adopt an externally enabled maintainer so Close can stop its tick.
		s.refresher = m
	}
	if cfg.WarmPool != nil {
		w := cfg.WarmPoolWorkload
		if w == 0 {
			w = workload.Sha1Hash
		}
		m, err := cfg.Runtime.EnableWarmPool(*cfg.WarmPool, w)
		if err != nil {
			return nil, err
		}
		m.Start()
		s.warmer = m
	} else if m := cfg.Runtime.WarmPool(); m != nil {
		// Adopt an externally enabled maintainer so Close can stop its tick.
		s.warmer = m
	}
	if cfg.Admission != nil {
		gate, err := cfg.Runtime.EnableAdmission(*cfg.Admission)
		if err != nil {
			return nil, err
		}
		s.gate = gate
	} else if gate := cfg.Runtime.Admission(); gate != nil {
		// Adopt an externally enabled controller.
		s.gate = gate
	}
	s.routes()
	go s.loop()
	return s, nil
}

// loop owns the simulation as a wall-anchored pacer. Virtual time targets
// virt0 + Speedup × (wall time since wall0); each pass runs every event due
// by the target at full speed, so a late wake-up is absorbed by the next
// catch-up instead of accumulating, and an idle server wakes only for real
// events. A model failure ends the loop; pending commands then answer
// ErrClosed.
func (s *Server) loop() {
	defer close(s.done)
	env := s.rt.Env()
	wall0, virt0 := time.Now(), env.Elapsed()
	target := func() time.Duration {
		return virt0 + time.Duration(float64(time.Since(wall0))*s.speedup)
	}
	catchUp := func() error { return env.RunFor(max(target()-env.Elapsed(), 0)) }
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if catchUp() != nil {
			return
		}
		s.pacingLag.Set(float64(target()-env.Elapsed()) / float64(time.Millisecond))
		var due <-chan time.Time
		if at, ok := env.NextAt(); ok {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(wall0.Add(time.Duration(float64(at-virt0) / s.speedup))))
			due = timer.C
		}
		select {
		case fn := <-s.cmds:
			// Start the command at its arrival's virtual instant: first
			// run what fell due before it, then the command itself until
			// it blocks.
			if catchUp() != nil {
				return
			}
			s.queueDepth.Dec()
			env.Go("skyd-cmd", func(p *sim.Proc) error {
				fn(p)
				return nil
			})
			if env.RunFor(0) != nil {
				return
			}
		case <-due:
		case <-s.stop:
			// Outstanding work, including the pre-scheduled drift
			// timeline, drains at full speed.
			_ = env.Run()
			return
		}
	}
}

// Exec runs fn as a simulation process and blocks until it finishes.
func (s *Server) Exec(fn func(p *sim.Proc) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	reply := make(chan error, 1)
	// Inc before the send so the loop's matching Dec can never land first
	// and leave the gauge transiently negative.
	s.queueDepth.Inc()
	submit := time.Now()
	select {
	case s.cmds <- func(p *sim.Proc) {
		s.cmdWait.Observe(float64(time.Since(submit)) / float64(time.Millisecond))
		reply <- fn(p)
	}:
	case <-s.done:
		s.queueDepth.Dec()
		return ErrClosed
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// Close stops accepting commands, lets in-flight work drain, and waits for
// the simulation goroutine to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	// Stop the maintenance tick first (atomic flag, safe cross-thread):
	// the loop's final drain only returns once the event queue empties, and
	// a live self-rescheduling tick would keep it full forever.
	if s.refresher != nil {
		s.refresher.Stop()
	}
	if s.warmer != nil {
		s.warmer.Stop()
	}
	close(s.stop)
	s.mu.Unlock()
	<-s.done
}

// Runtime exposes the underlying runtime (read-only use outside Exec).
func (s *Server) Runtime() *core.Runtime { return s.rt }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// HTTP plumbing

// httpBuckets extends the default layout downward: handlers answering from
// warm state finish in well under a millisecond of wall time.
var httpBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// cmdWaitBuckets spans 10µs to about 0.7s: a command normally starts
// within microseconds of its submit.
var cmdWaitBuckets = metrics.ExpBuckets(0.01, 4, 9)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
