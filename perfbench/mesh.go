package main

import (
	"fmt"
	"strconv"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/experiments"
	"skyfaas/internal/mesh"
	"skyfaas/internal/sim"
)

const (
	// meshShards is the sharded engine's width.
	meshShards = 4
	// meshInvocations is one replay round: RunMeshLoad over the full
	// catalog with this many invocations.
	meshInvocations = 20000
	// meshRefSeed is the seed every run replays once, before timing, to
	// compare against its pinned checksum.
	meshRefSeed = 1
)

// meshPins are RunMeshLoad checksums by (seed, invocations). They do not
// depend on the engine width. A seed outside the table is held to its own
// first round, and every run also replays meshRefSeed against its pin.
var meshPins = map[[2]uint64]uint64{
	{1, 2000}:   2083648076843350099,
	{2, 2000}:   9009480104674440,
	{3, 2000}:   8158149484761275579,
	{4, 2000}:   1002909080760039849,
	{1, 20000}:  15027561643046429213,
	{2, 20000}:  14308238178407933995,
	{3, 20000}:  15068413901066789808,
	{4, 20000}:  2376870241851056617,
	{5, 20000}:  10047899661240211861,
	{6, 20000}:  217066253308221868,
	{7, 20000}:  13256733338672198101,
	{8, 20000}:  12580015462922716319,
	{9, 20000}:  1365725891981860583,
	{10, 20000}: 12090232275915628096,
	{11, 20000}: 17540956119128983334,
	{12, 20000}: 7105857981808476821,
	{13, 20000}: 17739669329073515206,
	{14, 20000}: 925178427818099238,
	{15, 20000}: 16403353852874705712,
	{16, 20000}: 3545381887432354333,
	{17, 20000}: 8073213899312256375,
	{18, 20000}: 16485774447312254010,
	{19, 20000}: 9571079838394382341,
	{20, 20000}: 9203372911610158200,
	{21, 20000}: 343327951664376835,
	{22, 20000}: 17056363305121571353,
	{23, 20000}: 16028638122528959480,
	{24, 20000}: 3343366210132822707,
	{25, 20000}: 13134667973503716235,
	{26, 20000}: 11712936175373044619,
	{27, 20000}: 15292526579682064500,
	{28, 20000}: 2838791729620968826,
	{29, 20000}: 5585762669737261511,
	{30, 20000}: 9725124070478240669,
	{31, 20000}: 14168281209513790086,
	{32, 20000}: 9965434445673731937,
}

// replay is one timed RunMeshLoad call.
type replay struct {
	stats experiments.MeshLoadStats
	total time.Duration
	cpu   time.Duration // process CPU time over the call
}

// setup is the world and mesh construction: the call's time outside the
// simulation run.
func (r replay) setup() time.Duration { return r.total - r.stats.Wall }

func runReplay(seed uint64, shards, invocations int) (replay, error) {
	cpu0, start := cpuTime(), time.Now()
	st, err := experiments.RunMeshLoad(experiments.MeshLoadConfig{
		Seed: seed, Shards: shards, Invocations: invocations,
	})
	return replay{stats: st, total: time.Since(start), cpu: cpuTime() - cpu0}, err
}

// meshChecker holds a run's checksum expectation.
type meshChecker struct {
	want  uint64 // the pin, or the first round's checksum
	known bool
}

// newMeshChecker replays the reference seed once and compares it with its
// pin, then seeds the expectation for seed from the pin table.
func newMeshChecker(seed uint64, invocations int) (*meshChecker, error) {
	ref, err := runReplay(meshRefSeed, meshShards, invocations)
	if err != nil {
		return nil, err
	}
	pin, ok := meshPins[[2]uint64{meshRefSeed, uint64(invocations)}]
	if !ok {
		return nil, fmt.Errorf("no pinned checksum for seed %d, %d invocations", meshRefSeed, invocations)
	}
	if ref.stats.Checksum != pin || ref.stats.Invocations != invocations {
		return nil, fmt.Errorf("reference replay (seed %d): checksum %d over %d invocations, pinned %d over %d",
			meshRefSeed, ref.stats.Checksum, ref.stats.Invocations, pin, invocations)
	}
	c := &meshChecker{}
	c.want, c.known = meshPins[[2]uint64{seed, uint64(invocations)}]
	return c, nil
}

// ok reports whether a round's checksum is the expected one; the first
// round of an unpinned seed sets the expectation for the rest.
func (c *meshChecker) ok(r replay) bool {
	if !c.known {
		c.want, c.known = r.stats.Checksum, true
	}
	return r.stats.Checksum == c.want
}

// meshPhase replays rounds on the sharded engine until d has passed.
type meshPhase struct {
	rounds    []replay
	completed int
	correct   bool
}

func runMeshPhase(seed uint64, invocations int, d time.Duration, c *meshChecker) (meshPhase, error) {
	ph := meshPhase{correct: true}
	start := time.Now()
	for len(ph.rounds) == 0 || time.Since(start) < d {
		r, err := runReplay(seed, meshShards, invocations)
		if err != nil {
			return ph, err
		}
		ph.correct = ph.correct && c.ok(r)
		ph.rounds = append(ph.rounds, r)
		ph.completed += r.stats.Invocations
	}
	return ph, nil
}

func (ph meshPhase) attempted(invocations int) int { return len(ph.rounds) * invocations }

// roundMS returns each replay's simulation run time in milliseconds.
func roundMS(rs []replay) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, ms(r.stats.Wall))
	}
	return out
}

func runMesh(cfg config) (*result, *tracer, error) {
	check, err := newMeshChecker(cfg.seed, cfg.meshInvocations)
	if err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		return meshTraced(cfg, check)
	}
	ph, err := runMeshPhase(cfg.seed, cfg.meshInvocations, cfg.seconds, check)
	if err != nil {
		return nil, nil, err
	}
	res := newResult()
	res.Correct = ph.correct
	res.Attempted = ph.attempted(cfg.meshInvocations)
	res.Failed = res.Attempted - ph.completed
	// Per-round figures and their medians: a stretch of host contention
	// moves fewer of them than it moves a run total.
	var setups, rates, cpus []float64
	for _, r := range ph.rounds {
		setups = append(setups, r.setup().Seconds())
		rates = append(rates, share(float64(r.stats.Invocations), r.stats.Wall.Seconds()))
		cpus = append(cpus, share(us(r.cpu), float64(r.stats.Invocations)))
	}
	lat := roundMS(ph.rounds)
	p50, p90 := median(lat), quantile(lat, 0.9)
	res.set("setup_s", median(setups))
	res.set("latency_p50_ms", p50)
	res.set("latency_p90_ms", p90)
	res.set("inv_per_s", median(rates))
	res.set("cpu_us_per_inv", median(cpus))
	res.set("peak_rss_mb", peakRSSMB())
	logf("mesh-sharded: %d rounds of %d invocations on %d shards, round p50 %.2f ms, p90 %.2f ms, checksum %d",
		len(ph.rounds), cfg.meshInvocations, meshShards, p50, p90, check.want)
	return res, nil, nil
}

// meshTraced is the traced run: world and mesh builds timed apart, an
// untraced half on the sharded engine for the runtime figures, then a
// traced half alternating the sharded and single-queue engines on the same
// load, whose checksums must agree.
func meshTraced(cfg config, check *meshChecker) (*result, *tracer, error) {
	res := newResult()
	tr := newTracer()
	var builds []float64
	for i := range 3 {
		b, err := timeMeshBuild(cfg.seed, tr, "build"+strconv.Itoa(i))
		if err != nil {
			return nil, nil, err
		}
		builds = append(builds, b.Seconds())
	}
	res.set("mesh.build_s", median(builds))

	gs := startGoStats()
	phA, err := runMeshPhase(cfg.seed, cfg.meshInvocations, cfg.seconds/2, check)
	if err != nil {
		return nil, nil, err
	}
	gs.end(res, float64(phA.completed))
	res.Correct = phA.correct

	// Each cycle replays the load three times: sharded and single-queue
	// with spans, then sharded without, the baseline for the overhead.
	var sharded, single, plain []replay
	start := time.Now()
	for i := 0; len(plain) == 0 || time.Since(start) < cfg.seconds/2; i++ {
		for _, run := range []struct {
			shards int
			traced bool
		}{{meshShards, true}, {1, true}, {meshShards, false}} {
			r, err := runReplay(cfg.seed, run.shards, cfg.meshInvocations)
			if err != nil {
				return nil, nil, err
			}
			res.Correct = res.Correct && check.ok(r)
			switch {
			case !run.traced:
				plain = append(plain, r)
				continue
			case run.shards == 1:
				single = append(single, r)
			default:
				sharded = append(sharded, r)
			}
			req := fmt.Sprintf("m%d-s%d", i, run.shards)
			end := time.Now()
			begin := end.Add(-r.total)
			root := tr.add("mesh.round", req, 0, begin, end)
			tr.add("mesh.setup", req, root, begin, end.Add(-r.stats.Wall))
			tr.add("sim.run", req, root, end.Add(-r.stats.Wall), end)
		}
	}
	res.set("sim.sharded_speedup", share(invPerS(sharded), invPerS(single)))
	untracedP50, tracedP50 := median(roundMS(plain)), median(roundMS(sharded))
	res.set("trace.overhead_ms", tracedP50-untracedP50)
	res.set("trace.overhead_share", share(tracedP50-untracedP50, untracedP50))
	microbench(res, tr)
	res.Attempted, res.Failed = phA.attempted(cfg.meshInvocations), phA.attempted(cfg.meshInvocations)-phA.completed
	for _, r := range append(append(sharded, single...), plain...) {
		res.Attempted += cfg.meshInvocations
		res.Failed += cfg.meshInvocations - r.stats.Invocations
	}
	return res, tr, nil
}

func invPerS(rs []replay) float64 {
	var inv int
	var wall time.Duration
	for _, r := range rs {
		inv += r.stats.Invocations
		wall += r.stats.Wall
	}
	return share(float64(inv), wall.Seconds())
}

// timeMeshBuild builds the load world RunMeshLoad builds (same catalog,
// options and engine width) and returns how long mesh.Build took.
func timeMeshBuild(seed uint64, tr *tracer, req string) (time.Duration, error) {
	opts := cloudsim.Options{HorizonDays: 2, IntraCloudRTT: 8 * time.Millisecond}.WithDefaults()
	epoch := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	start := time.Now()
	root := tr.open("mesh.world", req, 0, start)
	group := sim.NewSharded(epoch, meshShards, opts.IntraCloudRTT/2)
	defer group.Shutdown()
	cloud := cloudsim.New(group.Control(), seed, cloudsim.DefaultCatalog(), opts)
	built := time.Now()
	tr.add("cloudsim.new", req, root, start, built)
	_, err := mesh.Build(cloud, mesh.Config{})
	end := time.Now()
	tr.add("mesh.build", req, root, built, end)
	tr.close(root, end)
	return end.Sub(built), err
}
