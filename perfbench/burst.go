package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/load"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/skyd"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// The served configuration is `skyd -admission -tenants fixture` at its
// default seed and speedup, with three characterized candidate zones.
const (
	skydSeed    = 42
	skydSpeedup = 1000
	// requestTimeout bounds one request; a request that fails for any
	// reason counts as taking this long.
	requestTimeout = 10 * time.Second
	opsKey         = "sk-ops-0001"
	acmeKey        = "sk-acme-7f3a"
)

// candidates are the zones setup characterizes and every burst names.
// Zero-config hybrid routing answers 502 "picked no zone" until the zones
// it ranks are characterized, so setup characterizes them first.
var candidates = []string{"us-east-1a", "us-west-1a", "eu-west-1a"}

// burstBench is one served-burst workload.
type burstBench struct {
	name string
	n    int    // invocations per burst
	key  string // tenant API key
	// mix is the seeded function mix requests draw from; setup profiles
	// every function in it so hybrid routing can rank and ban CPU kinds.
	mix load.Mix
	// connRPS is the offered rate per connection; one connection per CPU.
	// It is set so the connections are about half busy on the host the
	// benchmark was defined on.
	connRPS float64
}

var (
	// burstSmall crosses every per-request layer once per invocation, with
	// a light mix.
	burstSmall = burstBench{name: "burst-small", n: 1, key: acmeKey, connRPS: 36,
		mix: load.Mix{
			{Workload: workload.Sha1Hash, Weight: 6},
			{Workload: workload.DiskWriter, Weight: 3},
			{Workload: workload.Thumbnailer, Weight: 1},
		}}
	// burstFanout amortizes the per-request layers over 200 invocations.
	// Its two functions run about as long as each other and are CPU
	// sensitive, so hybrid bans slow kinds and the router retries. The ops
	// account has no quota, so a 200-slot burst never sheds there.
	burstFanout = burstBench{name: "burst-fanout", n: 200, key: opsKey, connRPS: 3,
		mix: load.Mix{
			{Workload: workload.Thumbnailer, Weight: 1},
			{Workload: workload.JSONFlattener, Weight: 1},
		}}
)

// server is an in-process skyd on a loopback listener.
type server struct {
	srv     *skyd.Server
	rt      *core.Runtime
	tenants *tenant.Registry
	http    *http.Server
	served  chan error
	base    string
	tr      *http.Transport
	client  *http.Client
	closing sync.Once
}

// startServer builds skyd the way `skyd -admission -tenants fixture` does,
// with its own metrics registry so repeated setups in one process do not
// share counters. A non-nil tracer wraps the handler in a span.
func startServer(tr *tracer) (*server, error) {
	reg := metrics.NewRegistry()
	rt, err := core.New(core.Config{Seed: skydSeed, SkipMesh: true, Metrics: reg})
	if err != nil {
		return nil, err
	}
	tenants := tenant.NewRegistry(tenant.Config{Metrics: reg})
	now := time.Now()
	for _, t := range tenant.Fixture() {
		if err := tenants.Create(t, now); err != nil {
			return nil, err
		}
	}
	srv, err := skyd.New(skyd.Config{
		Runtime:   rt,
		Speedup:   skydSpeedup,
		Admission: &admission.Config{},
		Tenants:   tenants,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{next: srv, tr: tr}
	}
	s := &server{
		srv:     srv,
		rt:      rt,
		tenants: tenants,
		http:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		tr: &http.Transport{
			MaxConnsPerHost:     conns(),
			MaxIdleConnsPerHost: conns(),
			DisableCompression:  true,
		},
	}
	s.client = &http.Client{Transport: s.tr, Timeout: requestTimeout}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, then the simulation, and waits for both. It
// may be called more than once.
func (s *server) close() {
	s.closing.Do(func() {
		s.tr.CloseIdleConnections()
		_ = s.http.Close() // only the listener's close error, irrelevant here
		<-s.served
		s.srv.Close()
	})
}

// Header names the traced run uses to hand its span context to the server.
const (
	hdrRequest = "X-Perfbench-Request"
	hdrParent  = "X-Perfbench-Parent"
)

// tracedHandler records one skyd.handler span around skyd.Server.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := r.Header.Get(hdrRequest)
	if req == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(hdrParent)) // set by this benchmark only
	id := h.tr.open("skyd.handler", req, parent, time.Now())
	h.next.ServeHTTP(w, r)
	// The response is buffered until the handler returns, so this end lies
	// before the client's last byte.
	h.tr.close(id, time.Now())
}

// do sends one request on a load connection and returns the status and
// body.
func (s *server) do(method, path, key string, body []byte, hdr http.Header) (int, []byte, error) {
	return s.doWith(s.client, method, path, key, body, hdr)
}

func (s *server) doWith(c *http.Client, method, path, key string, body []byte, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// characterization is the part of a /v1/characterize answer setup checks.
type characterization struct {
	AZ      string             `json:"az"`
	Samples int                `json:"samples"`
	CostUSD float64            `json:"costUSD"`
	Dist    map[string]float64 `json:"dist"`
}

// zoneSetup is one zone's characterization cost.
type zoneSetup struct {
	wall    time.Duration
	samples int
}

// characterize samples every candidate zone at once through POST
// /v1/characterize, on connections of its own, and checks each answer.
func (s *server) characterize(tr *tracer, parent int) ([]zoneSetup, error) {
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	c := &http.Client{Transport: tp, Timeout: requestTimeout}
	out := make([]zoneSetup, len(candidates))
	errs := make([]error, len(candidates))
	var wg sync.WaitGroup
	for i, az := range candidates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = s.characterizeZone(c, tr, parent, az)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (s *server) characterizeZone(c *http.Client, tr *tracer, parent int, az string) (zoneSetup, error) {
	body, _ := json.Marshal(map[string]string{"az": az}) // a string map always marshals
	start := time.Now()
	code, data, err := s.doWith(c, "POST", "/v1/characterize", opsKey, body, nil)
	end := time.Now()
	tr.add("sampler.characterize", "setup", parent, start, end)
	if err != nil {
		return zoneSetup{}, fmt.Errorf("characterize %s: %w", az, err)
	}
	var ch characterization
	if code != http.StatusOK || json.Unmarshal(data, &ch) != nil {
		return zoneSetup{}, fmt.Errorf("characterize %s: status %d: %s", az, code, data)
	}
	total := 0.0
	for _, v := range ch.Dist {
		total += v
	}
	if ch.AZ != az || ch.Samples <= 0 || ch.CostUSD <= 0 || math.Abs(total-1) > 1e-6 {
		return zoneSetup{}, fmt.Errorf("characterize %s: implausible answer %s", az, data)
	}
	return zoneSetup{wall: end.Sub(start), samples: ch.Samples}, nil
}

// burstBody is the JSON a request sends.
func (b burstBench) burstBody(w workload.ID) []byte {
	body, _ := json.Marshal(map[string]any{ // plain values always marshal
		"strategy":   "hybrid",
		"workload":   w.String(),
		"n":          b.n,
		"candidates": candidates,
	})
	return body
}

// burstAnswer is the part of a /v1/burst answer the benchmark checks.
type burstAnswer struct {
	AZ        string         `json:"az"`
	Completed int            `json:"completed"`
	Attempts  int            `json:"attempts"`
	MeanRunMS float64        `json:"meanRunMS"`
	CostUSD   float64        `json:"costUSD"`
	ElapsedMS float64        `json:"elapsedMS"`
	PerCPU    map[string]int `json:"perCPU"`
}

// validate checks a served burst: every invocation completed in one of the
// candidate zones, the per-CPU tally adds up, and it cost something.
func (a burstAnswer) validate(n int) error {
	if a.Completed != n {
		return fmt.Errorf("completed %d of %d", a.Completed, n)
	}
	inCands := false
	for _, c := range candidates {
		inCands = inCands || a.AZ == c
	}
	if !inCands {
		return fmt.Errorf("zone %q is not a candidate", a.AZ)
	}
	sum := 0
	for _, k := range a.PerCPU {
		sum += k
	}
	if sum != a.Completed {
		return fmt.Errorf("perCPU sums to %d, completed %d", sum, a.Completed)
	}
	if !(a.CostUSD > 0) {
		return fmt.Errorf("cost %v", a.CostUSD)
	}
	return nil
}

// outcome is what one request returned.
type outcome struct {
	status  int
	code    string // error envelope code of a non-200
	invalid bool   // a 200 whose answer failed validation
	answer  burstAnswer
}

func (o outcome) ok() bool { return o.status == http.StatusOK && !o.invalid }

// decode fills o from an HTTP answer.
func (o *outcome) decode(status int, data []byte, n int) {
	o.status = status
	if status != http.StatusOK {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.Unmarshal(data, &env) // a missing code is reported as ""
		o.code = env.Error.Code
		return
	}
	if err := json.Unmarshal(data, &o.answer); err != nil || o.answer.validate(n) != nil {
		o.invalid = true
	}
}

// plan is a phase's requests: due offsets and the function each runs.
type plan struct {
	due []time.Duration
	fns []workload.ID
}

// plan draws the seeded open-loop schedule and mix for d.
func (b burstBench) plan(seed uint64, d time.Duration) plan {
	root := rng.New(seed).Split("perfbench")
	sched := load.Schedule{Pattern: load.Constant, PeakRPS: b.rate(), Duration: d}
	p := plan{due: sched.Arrivals(root.Split("arrivals"))}
	picks := root.Split("mix")
	for range p.due {
		p.fns = append(p.fns, b.mix.Pick(picks))
	}
	return p
}

// split cuts the plan at offset at; the second part is shifted to start at
// zero.
func (p plan) split(at time.Duration) (plan, plan) {
	i := 0
	for i < len(p.due) && p.due[i] < at {
		i++
	}
	rest := plan{fns: p.fns[i:]}
	for _, d := range p.due[i:] {
		rest.due = append(rest.due, d-at)
	}
	return plan{due: p.due[:i], fns: p.fns[:i]}, rest
}

// setup builds a server, characterizes the candidates, requires a
// validated warm-up burst of every mix function, and drains the sampled
// instances before any timing starts.
func (b burstBench) setup(tr *tracer) (*server, []zoneSetup, error) {
	start := time.Now()
	root := tr.open("setup", "setup", 0, start)
	s, err := startServer(tr)
	if err != nil {
		return nil, nil, err
	}
	zones, err := s.characterize(tr, root)
	if err == nil {
		prof := time.Now()
		err = b.profile(s)
		tr.add("setup.profile", "setup", root, prof, time.Now())
	}
	if err == nil {
		warm := time.Now()
		err = b.warmUp(s)
		tr.add("setup.warmup", "setup", root, warm, time.Now())
	}
	if err == nil {
		drain := time.Now()
		err = s.drain()
		tr.add("setup.drain", "setup", root, drain, time.Now())
	}
	tr.close(root, time.Now())
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, zones, nil
}

// profile trains the perf model on every mix function in every candidate
// zone through POST /v1/profile.
func (b burstBench) profile(s *server) error {
	for _, e := range b.mix {
		body, _ := json.Marshal(map[string]any{ // plain values always marshal
			"workload": e.Workload.String(), "zones": candidates, "runs": profileRuns,
		})
		code, data, err := s.do("POST", "/v1/profile", opsKey, body, nil)
		if err != nil {
			return fmt.Errorf("profile %s: %w", e.Workload, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("profile %s: status %d: %s", e.Workload, code, data)
		}
	}
	return nil
}

// profileRuns is the profiling run count per zone and function.
const profileRuns = 100

// drain idles until the instances characterization started have outlived
// the platform keep-alive and been reaped. Their mass expiry stalls the
// simulation for a few hundred milliseconds; it is part of what sampling
// costs, so it lands in setup rather than in the timed run.
func (s *server) drain() error {
	now, err := s.virtualNow()
	if err != nil {
		return err
	}
	until := now.Add(cloudsim.Options{}.WithDefaults().KeepAlive + drainMargin)
	deadline := time.Now().Add(drainTimeout)
	for now.Before(until) {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: virtual clock still at %v after %v, want %v", now, drainTimeout, until)
		}
		time.Sleep(20 * time.Millisecond)
		if now, err = s.virtualNow(); err != nil {
			return err
		}
	}
	return nil
}

const (
	// drainMargin is virtual time past the keep-alive, so the last
	// sampled instance has expired.
	drainMargin = 30 * time.Second
	// drainTimeout bounds the drain in wall time.
	drainTimeout = 60 * time.Second
)

func (b burstBench) warmUp(s *server) error {
	for _, e := range b.mix {
		if o := b.send(s, e.Workload, nil); !o.ok() {
			return fmt.Errorf("warm-up burst of %s: status %d (error %q)", e.Workload, o.status, o.code)
		}
	}
	return nil
}

// conns is the connection (and worker) count: one per CPU.
func conns() int { return max(runtime.NumCPU(), 1) }

func (b burstBench) rate() float64 { return b.connRPS * float64(conns()) }

func (b burstBench) run(cfg config) (*result, *tracer, error) {
	if cfg.trace {
		return b.traced(cfg)
	}
	res := newResult()
	var setups []float64
	var s *server
	for i := range cfg.setupReps {
		start := time.Now()
		next, _, err := b.setup(nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < cfg.setupReps-1 {
			next.close()
			continue
		}
		s = next
	}
	defer s.close()
	p := b.plan(cfg.seed, cfg.seconds)
	cpu0 := cpuTime()
	outs, ts := b.phase(s, p, nil)
	cpu := cpuTime() - cpu0
	ls := summarizeLoad(ts, requestTimeout)
	completed := 0
	for _, o := range outs {
		if o.ok() {
			completed += o.answer.Completed
		}
		res.Correct = res.Correct && !o.invalid
	}
	p50, p90 := median(ls.latencies), quantile(ls.latencies, 0.9)
	res.Attempted, res.Failed = len(outs), ls.failed
	res.set("setup_s", median(setups))
	res.set("latency_p50_ms", p50)
	res.set("latency_p90_ms", p90)
	res.set("inv_per_s", share(float64(completed), ls.wall.Seconds()))
	res.set("cpu_us_per_inv", share(us(cpu), float64(completed)))
	res.set("peak_rss_mb", peakRSSMB())
	logf("%s: %d requests at %.1f rps over %d connections, latency p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, %d failed",
		b.name, len(outs), b.rate(), conns(), p50, p90, quantile(ls.latencies, 0.99), ls.failed)
	return res, nil, nil
}

// phase runs the plan against s and returns every request's outcome and
// timing. With a tracer, the requests rotate through three paths: i%4 == 0
// goes over HTTP with client and handler spans, odd i make the same public
// calls /v1/burst makes with a span around each, and i%4 == 2 goes over
// HTTP untraced, the baseline for the tracing overhead.
func (b burstBench) phase(s *server, p plan, tr *tracer) ([]outcome, []timing) {
	outs := make([]outcome, len(p.due))
	var m *mirror
	if tr != nil {
		m = newMirror(s, b)
	}
	start := time.Now()
	ts := openLoop(p.due, conns(), func(i int, picked time.Time) bool {
		o := &outs[i]
		if tr == nil || i%4 == 2 {
			*o = b.send(s, p.fns[i], nil)
			return o.ok()
		}
		req := "r" + strconv.Itoa(i)
		root := tr.open("request", req, 0, start.Add(p.due[i]))
		tr.add("load.queue", req, root, start.Add(p.due[i]), picked)
		if i%2 == 1 {
			*o = m.burst(tr, req, root, p.fns[i])
		} else {
			hdr := http.Header{hdrRequest: {req}}
			rt := tr.open("http.roundtrip", req, root, time.Now())
			hdr.Set(hdrParent, strconv.Itoa(rt))
			*o = b.send(s, p.fns[i], hdr)
			tr.close(rt, time.Now())
		}
		tr.close(root, time.Now())
		return o.ok()
	})
	return outs, ts
}

// send posts one burst of fn and decodes the answer. A traced request's
// headers name the http.roundtrip span the handler span nests in.
func (b burstBench) send(s *server, fn workload.ID, hdr http.Header) outcome {
	var o outcome
	code, data, err := s.do("POST", "/v1/burst", b.key, b.burstBody(fn), hdr)
	if err == nil {
		o.decode(code, data, b.n)
	}
	return o
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// mirror makes the public calls the /v1/burst handler makes, in its order:
// tenant Acquire, admission Admit and RouteFor, the Exec handoff with the
// DecisionTable build and the routed run, admission Done and RememberRoute,
// tenant Release. It skips only the HTTP decode, auth and encode, which
// the handler span covers.
type mirror struct {
	s    *server
	b    burstBench
	acct string
	gate *admission.Controller
}

func newMirror(s *server, b burstBench) *mirror {
	t, _ := s.tenants.Resolve(b.key) // fixture keys always resolve
	return &mirror{s: s, b: b, acct: t.ID, gate: s.rt.Admission()}
}

func (m *mirror) burst(tr *tracer, req string, parent int, fn workload.ID) outcome {
	var o outcome
	top := tr.open("mirror.burst", req, parent, time.Now())
	defer func() { tr.close(top, time.Now()) }()
	rt := m.s.rt
	strat, err := router.Build(router.StrategySpec{Name: "hybrid"},
		router.WithLocator(router.NewZoneLocator(rt.Cloud())),
		router.WithPricer(router.NewZonePricer(rt.Cloud())))
	if err != nil {
		o.status = http.StatusBadRequest
		return o
	}

	start := time.Now()
	lease, err := m.s.tenants.Acquire(m.acct, m.b.n, start)
	tr.add("tenant.acquire", req, top, start, time.Now())
	if err != nil {
		o.status, o.code = http.StatusTooManyRequests, "tenant"
		return o
	}
	start = time.Now()
	ticket, err := m.gate.Admit(start, fn, m.b.n)
	if err == nil {
		if az, ok := m.gate.RouteFor(fn, time.Now()); ok {
			if pinned, perr := router.Build(router.StrategySpec{Name: "baseline", AZ: az}); perr == nil {
				strat = pinned
			}
		}
	}
	tr.add("admission.admit", req, top, start, time.Now())
	if err != nil {
		m.s.tenants.Release(lease, time.Now(), 0)
		o.status, o.code = http.StatusTooManyRequests, "overloaded"
		return o
	}

	var res router.BurstResult
	submit := time.Now()
	exec := tr.open("skyd.exec", req, top, submit)
	err = m.s.srv.Exec(func(p *sim.Proc) error {
		tr.add("skyd.exec_wait", req, exec, submit, time.Now())
		for _, az := range candidates {
			if _, ok := rt.Cloud().AZ(az); !ok {
				return fmt.Errorf("%w: %q", cloudsim.ErrNoSuchAZ, az)
			}
		}
		start := time.Now()
		router.BuildDecisionTable(strat, router.Decision{
			Workload: fn, Candidates: candidates,
			Store: rt.Store(), Perf: rt.Perf(), Now: p.Env().Now(),
		}, rt.Mesh(), burstMemoryMB, burstHoldMS)
		tr.add("router.decision_table", req, exec, start, time.Now())
		start = time.Now()
		got, err := rt.Run(p, router.BurstSpec{Strategy: strat, Workload: fn, N: m.b.n, Candidates: candidates})
		tr.add("router.run", req, exec, start, time.Now())
		res = got
		return err
	})
	tr.close(exec, time.Now())

	start = time.Now()
	m.gate.Done(ticket, start, res.MeanRunMS(), err == nil && res.Completed > 0)
	if err == nil && res.AZ != "" {
		m.gate.RememberRoute(fn, res.AZ, time.Now())
	}
	tr.add("admission.done", req, top, start, time.Now())
	start = time.Now()
	m.s.tenants.Release(lease, start, res.CostUSD)
	tr.add("tenant.release", req, top, start, time.Now())
	if err != nil {
		o.status = http.StatusBadGateway
		return o
	}
	o.status = http.StatusOK
	o.answer = burstAnswer{
		AZ: res.AZ, Completed: res.Completed, Attempts: res.Attempts,
		MeanRunMS: res.MeanRunMS(), CostUSD: res.CostUSD,
		ElapsedMS: ms(res.Elapsed), PerCPU: map[string]int{},
	}
	for k, n := range res.PerCPU {
		o.answer.PerCPU[k.String()] = n
	}
	o.invalid = o.answer.validate(m.b.n) != nil
	return o
}

// The router's BurstSpec defaults, which the handler's bursts run with.
const (
	burstMemoryMB = 4096
	burstHoldMS   = 150
)

// scrape reads the server's /metrics.json.
func (s *server) scrape() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	code, data, err := s.do("GET", "/metrics.json", "", nil, nil)
	if err != nil {
		return snap, err
	}
	if code != http.StatusOK {
		return snap, fmt.Errorf("metrics.json: status %d", code)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("metrics.json: %w", err)
	}
	return snap, nil
}

// counter sums every series of a counter family.
func counter(snap metrics.Snapshot, name string) float64 {
	total := 0.0
	for _, f := range snap.Metrics {
		if f.Name == name {
			for _, s := range f.Series {
				total += s.Value
			}
		}
	}
	return total
}

// virtualNow reads the simulation clock from /v1/healthz.
func (s *server) virtualNow() (time.Time, error) {
	var h struct {
		VirtualTime time.Time `json:"virtualTime"`
	}
	code, data, err := s.do("GET", "/v1/healthz", "", nil, nil)
	if err != nil {
		return time.Time{}, err
	}
	if code != http.StatusOK {
		return time.Time{}, fmt.Errorf("healthz: status %d", code)
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return time.Time{}, fmt.Errorf("healthz: %w", err)
	}
	return h.VirtualTime, nil
}

// traced is the traced run: one setup, an untraced half that gives the
// counter, runtime and generator figures, then a traced half with spans at
// every layer boundary. The tracing overhead is the latency p50 of the
// traced half's traced HTTP requests minus that of its untraced ones.
func (b burstBench) traced(cfg config) (*result, *tracer, error) {
	res := newResult()
	tr := newTracer()
	s, zones, err := b.setup(tr)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	var samples, charWall float64
	var charWalls []float64
	for _, z := range zones {
		charWalls = append(charWalls, z.wall.Seconds())
		samples += float64(z.samples)
		charWall += z.wall.Seconds()
	}
	res.set("sampler.characterize_s", median(charWalls))
	res.set("sampler.samples_per_s", share(samples, charWall))

	planA, planB := b.plan(cfg.seed, cfg.seconds).split(cfg.seconds / 2)

	before, err := s.scrape()
	if err != nil {
		return nil, nil, err
	}
	v0, err := s.virtualNow()
	if err != nil {
		return nil, nil, err
	}
	w0 := time.Now()
	gs := startGoStats()
	outsA, tsA := b.phase(s, planA, nil)
	gs.end(res, float64(len(outsA)))
	v1, err := s.virtualNow()
	if err != nil {
		return nil, nil, err
	}
	res.set("sim.pacing_ratio", share(v1.Sub(v0).Seconds(), time.Since(w0).Seconds()*skydSpeedup))
	after, err := s.scrape()
	if err != nil {
		return nil, nil, err
	}
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }

	lsA := summarizeLoad(tsA, requestTimeout)
	res.set("load.late_p99_ms", quantile(lsA.late, 0.99))
	res.set("load.conn_wait_p50_ms", median(lsA.connWait))
	res.set("load.error_share", share(float64(lsA.failed), float64(len(tsA))))
	tShed := delta("sky_tenant_shed_total")
	res.set("tenant.shed_share", share(tShed, tShed+delta("sky_tenant_admitted_total")))
	aShed, admitted := delta("sky_admission_shed_total"), delta("sky_admission_admitted_total")
	res.set("admission.shed_share", share(aShed, aShed+admitted))
	res.set("admission.route_reuse_share", share(delta("sky_admission_route_reuse_total"), admitted))
	res.set("cloudsim.cold_start_share", share(delta("sky_cloudsim_cold_starts_total"), delta("sky_cloudsim_invocations_total")))
	res.set("cloudsim.saturation_events", counter(after, "sky_cloudsim_saturation_events_total"))
	var runMS, cost, completed float64
	for _, o := range outsA {
		if o.ok() {
			runMS += o.answer.MeanRunMS * float64(o.answer.Completed)
			cost += o.answer.CostUSD
			completed += float64(o.answer.Completed)
		}
		res.Correct = res.Correct && !o.invalid
	}
	res.set("router.mean_run_ms", share(runMS, completed))
	res.set("router.usd_per_kinv", share(1000*cost, completed))

	outsB, tsB := b.phase(s, planB, tr)
	handlers := map[string]time.Duration{}
	for _, sp := range tr.spans {
		if sp.Name == "skyd.handler" {
			handlers[sp.Req] = sp.dur()
		}
	}
	var attempts, done float64
	var virt, inflation, handlerMS, traced, untraced []float64
	for i, o := range outsB {
		res.Correct = res.Correct && !o.invalid
		switch i % 4 {
		case 0:
			traced = append(traced, ms(tsB[i].latency(requestTimeout)))
		case 2:
			untraced = append(untraced, ms(tsB[i].latency(requestTimeout)))
		}
		if !o.ok() {
			continue
		}
		attempts += float64(o.answer.Attempts)
		done += float64(o.answer.Completed)
		virt = append(virt, o.answer.ElapsedMS)
		if h, ok := handlers["r"+strconv.Itoa(i)]; ok {
			handlerMS = append(handlerMS, ms(h))
			inflation = append(inflation, share(ms(h), o.answer.ElapsedMS/skydSpeedup))
		}
	}
	res.set("sim.burst_virtual_ms_p50", median(virt))
	res.set("router.attempts_per_completion", share(attempts, done))
	res.set("sim.burst_inflation_p50", median(inflation))
	res.set("skyd.handler_p50_ms", median(handlerMS))
	res.set("skyd.handler_p99_ms", quantile(handlerMS, 0.99))
	res.set("skyd.exec_wait_p50_ms", median(msOf(tr.durations("skyd.exec_wait"))))
	res.set("skyd.exec_self_p50_us", median(usOf(tr.selfDurations("skyd.exec"))))
	res.set("http.client_self_p50_ms", median(msOf(tr.selfDurations("http.roundtrip"))))
	res.set("tenant.acquire_release_us", median(tr.perRequestUS("tenant.acquire", "tenant.release")))
	res.set("admission.admit_done_us", median(tr.perRequestUS("admission.admit", "admission.done")))
	res.set("router.decision_table_us", median(usOf(tr.durations("router.decision_table"))))
	res.set("router.run_wall_p50_ms", median(msOf(tr.durations("router.run"))))
	untracedP50, tracedP50 := median(untraced), median(traced)
	res.set("trace.overhead_ms", tracedP50-untracedP50)
	res.set("trace.overhead_share", share(tracedP50-untracedP50, untracedP50))

	s.close()
	microbench(res, tr)
	res.Attempted = len(outsA) + len(outsB)
	res.Failed = lsA.failed + summarizeLoad(tsB, requestTimeout).failed
	return res, tr, nil
}
