package cloudsim

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/saaf"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

var updateLifecycle = flag.Bool("update", false, "rewrite testdata/lifecycle.golden")

// oddBehavior is a Behavior the platform does not know how to run; it drives
// the unknown-behavior branch of the invocation lifecycle.
type oddBehavior struct{}

func (oddBehavior) isBehavior() {}

// lifecycleWorld is a two-region sky exercising every invocation outcome:
// gl-1a hosts the deployments, gl-1b is a two-slot zone that saturates, and
// gl-2a (in the second region) carries the injected faults.
func lifecycleWorld(t *testing.T, env *sim.Env, log *[]string) *Cloud {
	t.Helper()
	catalog := []RegionSpec{
		{Provider: AWS, Name: "gl-1", Loc: geo.Coord{Lat: 40, Lon: -80}, AZs: []AZSpec{
			{Name: "gl-1a", PoolFIs: 4096, ArmPoolFIs: 256, Mix: mix(0.4, 0.2, 0.3, 0.1)},
			{Name: "gl-1b", PoolFIs: 2, HostFIs: 2, Mix: mix(1, 0, 0, 0)},
		}},
		{Provider: IBM, Name: "gl-2", Loc: geo.Coord{Lat: 50, Lon: 8}, AZs: []AZSpec{
			{Name: "gl-2a", PoolFIs: 1024, Mix: map[cpu.Kind]float64{cpu.IBMCascade24: 0.5, cpu.IBMCascade25: 0.5}},
		}},
	}
	opts := Options{
		HorizonDays: 1,
		Quota:       4,
		OnResponse: func(req Request, resp Response) {
			*log = append(*log, fmt.Sprintf("tap %s %s/%s err=%v", req.Account, req.AZ, req.Function, resp.Err))
		},
	}
	c := New(env, 7, catalog, opts)

	deploy := func(az, fn string, cfg DeployConfig) {
		t.Helper()
		if _, err := c.Deploy(az, fn, cfg); err != nil {
			t.Fatal(err)
		}
	}
	all := cpu.MaskOf(cpu.Kinds()...)
	// One sleep deployment per vCPU count the platform grants (1..6).
	for _, mb := range []int{512, 3538, 5307, 7076, 8845, 10240} {
		deploy("gl-1a", fmt.Sprintf("sleep-%d", mb), DeployConfig{MemoryMB: mb, Behavior: SleepBehavior{D: 40 * time.Millisecond}})
	}
	deploy("gl-1a", "work", DeployConfig{MemoryMB: 2048, Behavior: WorkBehavior{Workload: workload.Zipper, Scale: 0.5, ExtraMS: 3}})
	deploy("gl-1a", "work-arm", DeployConfig{MemoryMB: 2048, Arch: cpu.ARM, Behavior: WorkBehavior{Workload: workload.Sha1Hash}})
	deploy("gl-1a", "probe-decline", DeployConfig{MemoryMB: 1769, Behavior: ProbeBehavior{Work: WorkBehavior{Workload: workload.GraphBFS}, Banned: all}})
	deploy("gl-1a", "probe-keep", DeployConfig{MemoryMB: 1769, Behavior: ProbeBehavior{Work: WorkBehavior{Workload: workload.GraphBFS}, Banned: all, HoldMS: 60, KeepOnDecline: true}})
	deploy("gl-1a", "probe-run", DeployConfig{MemoryMB: 1769, Behavior: ProbeBehavior{Work: WorkBehavior{Workload: workload.GraphBFS}}})
	deploy("gl-1a", "handler", DeployConfig{MemoryMB: 4096, Behavior: HandlerBehavior{Fn: func(ctx *Ctx, req Request) (any, error) {
		info := ctx.CPUInfo()
		prof, err := saaf.Collect(info, ctx.FIID(), ctx.HostID(), ctx.Cold(), 0)
		if err != nil {
			return nil, err
		}
		ctx.Sleep(5 * time.Millisecond)
		child := ctx.Invoke(Request{Account: req.Account, AZ: "gl-1a", Function: "sleep-512"})
		ev := ctx.InvokeAsync(Request{Account: req.Account, AZ: "gl-2a", Function: "work"})
		far := ctx.Wait(ev)
		d := ctx.Compute(WorkBehavior{Workload: workload.MathService})
		hit := ctx.CacheHas("h")
		ctx.CachePut("h")
		return fmt.Sprintf("len=%d kind=%v vcpus=%d child=%s/%v far=%s/%v compute=%v cached=%v",
			len(info), prof.Kind, prof.VCPUs, child.FI, child.Err, far.FI, far.Err, d, hit), nil
	}}})
	deploy("gl-1a", "handler-err", DeployConfig{MemoryMB: 1024, Behavior: HandlerBehavior{Fn: func(ctx *Ctx, req Request) (any, error) {
		ctx.Sleep(3 * time.Millisecond)
		return "partial", errors.New("handler exploded")
	}}})
	deploy("gl-1a", "dyn", DeployConfig{MemoryMB: 2048, Dynamic: true, Behavior: SleepBehavior{D: 10 * time.Millisecond}})
	deploy("gl-1a", "nobehavior", DeployConfig{MemoryMB: 1024})
	deploy("gl-1a", "odd", DeployConfig{MemoryMB: 1024, Behavior: oddBehavior{}})
	deploy("gl-1b", "sleep", DeployConfig{MemoryMB: 1024, Behavior: SleepBehavior{D: 100 * time.Millisecond}})
	deploy("gl-2a", "work", DeployConfig{MemoryMB: 1024, Behavior: WorkBehavior{Workload: workload.JSONFlattener}})
	deploy("gl-2a", "sleep", DeployConfig{MemoryMB: 1024, Behavior: SleepBehavior{D: 20 * time.Millisecond}})
	return c
}

// formatResponse renders every Response field in a stable, exact form.
func formatResponse(epoch time.Time, r Response) string {
	at := func(t time.Time) string {
		if t.IsZero() {
			return "0"
		}
		return strconv.FormatInt(int64(t.Sub(epoch)), 10)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("fi=%s host=%s cpu=%v cold=%v cached=%v sent=%s started=%s ended=%s billed=%s cost=%s profile=%+v value=%#v err=%v",
		r.FI, r.Host, r.CPU, r.Cold, r.PayloadCached, at(r.Sent), at(r.Started), at(r.Ended),
		f(r.BilledMS), f(r.CostUSD), r.Profile, r.Value, r.Err)
}

// runLifecycleScenario drives the seeded scenario on env (the control
// environment of the run) and returns the delivery log.
func runLifecycleScenario(t *testing.T, env *sim.Env) []string {
	t.Helper()
	var log []string
	c := lifecycleWorld(t, env, &log)
	client := geo.Coord{Lat: 37, Lon: -122}
	var accounts []string
	// Each call bills its own account unless the scenario shares one, so
	// the per-region quota only bites where a case means it to.
	issue := func(at time.Duration, label string, req Request) {
		if req.Account == "" {
			req.Account = label
		}
		accounts = append(accounts, req.Account)
		env.Schedule(at, func() {
			c.StartInvoke(req, func(r Response) {
				log = append(log, label+" "+formatResponse(testEpoch, r))
			})
		})
	}
	ms := time.Millisecond

	// Sleep on every vCPU count, cold then warm, one from a client location.
	for i, mb := range []int{512, 3538, 5307, 7076, 8845, 10240} {
		fn := fmt.Sprintf("sleep-%d", mb)
		issue(time.Duration(i)*ms, "sleep-cold/"+fn, Request{AZ: "gl-1a", Function: fn})
		issue(500*ms+time.Duration(i)*ms, "sleep-warm/"+fn, Request{AZ: "gl-1a", Function: fn, ClientLoc: &client})
	}
	issue(20*ms, "work", Request{AZ: "gl-1a", Function: "work", ClientLoc: &client})
	issue(21*ms, "work-arm", Request{AZ: "gl-1a", Function: "work-arm"})
	issue(700*ms, "work-warm", Request{AZ: "gl-1a", Function: "work"})
	issue(30*ms, "probe-decline", Request{AZ: "gl-1a", Function: "probe-decline"})
	issue(31*ms, "probe-keep", Request{AZ: "gl-1a", Function: "probe-keep"})
	issue(32*ms, "probe-run", Request{AZ: "gl-1a", Function: "probe-run"})
	issue(900*ms, "probe-keep-again", Request{AZ: "gl-1a", Function: "probe-keep"})
	issue(40*ms, "handler", Request{AZ: "gl-1a", Function: "handler"})
	issue(1500*ms, "handler-warm", Request{AZ: "gl-1a", Function: "handler"})
	issue(41*ms, "handler-err", Request{AZ: "gl-1a", Function: "handler-err"})
	issue(50*ms, "dyn-miss", Request{AZ: "gl-1a", Function: "dyn", PayloadHash: "p1"})
	issue(300*ms, "dyn-hit", Request{AZ: "gl-1a", Function: "dyn", PayloadHash: "p1"})
	issue(301*ms, "dyn-override", Request{AZ: "gl-1a", Function: "dyn", Work: WorkBehavior{Workload: workload.Sha1Hash}})
	issue(60*ms, "override-rejected", Request{AZ: "gl-1a", Function: "sleep-512", Work: SleepBehavior{D: ms}})
	issue(61*ms, "no-behavior", Request{AZ: "gl-1a", Function: "nobehavior"})
	issue(62*ms, "odd-behavior", Request{AZ: "gl-1a", Function: "odd"})
	issue(63*ms, "no-such-function", Request{AZ: "gl-1a", Function: "missing"})
	issue(64*ms, "no-such-az", Request{AZ: "nowhere", Function: "sleep"})
	// Quota is 4: the fifth and sixth concurrent calls are throttled.
	for i := 0; i < 6; i++ {
		issue(100*ms, fmt.Sprintf("quota-%d", i), Request{Account: "quota", AZ: "gl-2a", Function: "sleep"})
	}
	// gl-1b has two slots: the third concurrent call saturates.
	for i := 0; i < 3; i++ {
		issue(200*ms, fmt.Sprintf("saturate-%d", i), Request{Account: fmt.Sprintf("s%d", i), AZ: "gl-1b", Function: "sleep"})
	}

	// Chaos on gl-2a, scheduled on the zone's own shard.
	az, _ := c.AZ("gl-2a")
	az.Env().Schedule(1000*ms, func() { az.SetOutage(true) })
	az.Env().Schedule(1100*ms, func() { az.SetOutage(false); az.SetThrottleStorm(1) })
	az.Env().Schedule(1200*ms, func() { az.SetThrottleStorm(0); az.SetExtraRTT(30 * ms); az.SetColdStartSpike(3) })
	az.Env().Schedule(1400*ms, func() { az.SetExtraRTT(0); az.SetColdStartSpike(1) })
	issue(1050*ms, "outage", Request{AZ: "gl-2a", Function: "sleep"})
	issue(1150*ms, "storm", Request{AZ: "gl-2a", Function: "sleep"})
	issue(1250*ms, "extra-rtt", Request{AZ: "gl-2a", Function: "sleep", ClientLoc: &client})
	issue(1251*ms, "extra-rtt-cold", Request{Account: "c2", AZ: "gl-2a", Function: "work"})

	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(accounts)
	for i, acct := range accounts {
		if i > 0 && accounts[i-1] == acct {
			continue
		}
		log = append(log, fmt.Sprintf("meter %s %s", acct, strconv.FormatFloat(c.Meter().Total(acct), 'g', -1, 64)))
	}
	for _, name := range []string{"gl-1a", "gl-1b", "gl-2a"} {
		z, _ := c.AZ(name)
		log = append(log, fmt.Sprintf("zone %s live=%d inflight=%d", name, z.LiveFIs(), c.Inflight("quota", z.Region().Name())))
	}
	return log
}

// TestInvocationLifecycleGolden pins every Response field of a seeded
// scenario covering each invocation outcome (sleep, work, probe declined
// and ran, handler with nested calls, throttled, saturated, chaos-rejected,
// unknown endpoint, rejected work override). The single-queue engine and a
// three-shard group must both reproduce it. Regenerate with -update only
// for a change meant to alter simulated behavior.
func TestInvocationLifecycleGolden(t *testing.T) {
	render := func(env *sim.Env) string {
		return strings.Join(runLifecycleScenario(t, env), "\n") + "\n"
	}
	got := render(sim.NewEnv(testEpoch))
	path := filepath.Join("testdata", "lifecycle.golden")
	if *updateLifecycle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	for _, run := range []struct {
		name string
		log  string
	}{
		{"single-queue", got},
		{"sharded3", render(sim.NewSharded(testEpoch, 3, time.Millisecond).Control())},
	} {
		if run.log == string(want) {
			continue
		}
		gl, wl := strings.Split(run.log, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: lifecycle diverges from golden at line %d:\n got: %s\nwant: %s", run.name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: lifecycle has %d lines, golden %d", run.name, len(gl), len(wl))
	}
}
