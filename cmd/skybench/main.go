// Command skybench regenerates the paper's tables and figures on the
// simulated sky.
//
// Usage:
//
//	skybench -ex all                 # every experiment at paper scale
//	skybench -ex ex3,ex5 -scale reduced
//	skybench -ex table1              # Table 1 (workload catalog) only
//	skybench -ex ex5 -seed 7 -profile-runs 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skyfaas/internal/experiments"
	"skyfaas/internal/metrics"
	"skyfaas/internal/router"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		os.Exit(1)
	}
}

// experimentNames lists the registry in run order.
func experimentNames() []string {
	exps := experiments.All()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// exUsage derives the -ex flag's help text from the registry, so the two
// can never drift apart again.
func exUsage() string {
	return "experiments to run: all | " + strings.Join(experimentNames(), ",")
}

func run(args []string) error {
	names := experimentNames()
	fs := flag.NewFlagSet("skybench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	exFlag := fs.String("ex", "all", exUsage())
	ex6Strategies := fs.String("ex6-strategies", "", "extra EX-6 arms: comma-separated strategy names (see router.Names), run with default resilience")
	seed := fs.Uint64("seed", 42, "simulation seed (equal seeds replay exactly)")
	scale := fs.String("scale", "full", "full | reduced")
	profileRuns := fs.Int("profile-runs", 0, "EX-5/EX-11 profiling executions per workload per zone (0 = the scale's default)")
	days := fs.Int("days", 0, "EX-4 rounds and EX-5 evaluation days (0 = the scale's default; the paper's is 14)")
	csvDir := fs.String("csvdir", "", "also write each figure's dataset as CSV into this directory")
	dumpMetrics := fs.Bool("metrics", false, "dump a Prometheus-text metrics snapshot covering all experiments after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale != "full" && *scale != "reduced" {
		return fmt.Errorf("unknown scale %q", *scale)
	}

	valid := map[string]bool{}
	for _, name := range names {
		valid[name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exFlag, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !valid[name] {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	all := want["all"]

	o := experiments.Options{
		Seed:        *seed,
		Reduced:     *scale == "reduced",
		ProfileRuns: *profileRuns,
		Days:        *days,
	}
	if *ex6Strategies != "" {
		o.EX6Arms = experiments.DefaultEX6Arms()
		for _, name := range strings.Split(*ex6Strategies, ",") {
			name = strings.TrimSpace(name)
			// Validate up front so a typo fails with the registry's name
			// listing instead of mid-experiment; the placeholder AZ
			// satisfies pinned strategies and is re-resolved to the chaos
			// target inside each cell.
			if _, err := router.Build(router.StrategySpec{Name: name, AZ: "us-west-1b"}); err != nil {
				return err
			}
			o.EX6Arms = append(o.EX6Arms, experiments.EX6Arm{
				Label:      name,
				Strategy:   router.StrategySpec{Name: name},
				Resilience: router.DefaultResilience(),
			})
		}
	}
	for _, e := range experiments.All() {
		if !all && !want[e.Name] {
			continue
		}
		start := time.Now()
		res, err := e.Run(o)
		if err == nil && *csvDir != "" {
			err = res.WriteCSV(*csvDir)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("==== %s (%s, seed %d, %.1fs) ====\n%s\n", e.Name, *scale, *seed, time.Since(start).Seconds(), res.Render())
	}

	if *dumpMetrics {
		// Every runtime the experiments built reported into the process
		// default registry, so one snapshot covers the whole run.
		fmt.Println("==== metrics snapshot ====")
		return metrics.Default().WritePrometheus(os.Stdout)
	}
	return nil
}
