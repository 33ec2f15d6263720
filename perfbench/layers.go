package main

import (
	"fmt"
	"runtime"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/saaf"
)

// microIters is the call count per catalog kind in microbench.
const microIters = 2000

// microVCPUs are the instance sizes the catalog deploys.
var microVCPUs = []int{1, 2}

// microbench times the two calls cloudsim makes on every invocation, for
// each catalog CPU kind and instance size: saaf.Collect over the rendered
// cpuinfo (the completion path) and cpu.ParseCPUInfo over it (the probe
// path). It runs with the workload stopped, so the allocation count is the
// calls' own. Each figure is the median over kinds.
func microbench(r *result, tr *tracer) {
	var collectUS, collectAllocs, parseUS []float64
	for _, k := range cpu.Kinds() {
		for _, v := range microVCPUs {
			req := fmt.Sprintf("micro/%s/%d", k, v)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := range microIters {
				if _, err := saaf.Collect(cpu.CPUInfo(k, v), "fi", "host", i%2 == 0, 100); err != nil {
					panic(err) // the catalog renders only parseable cpuinfo
				}
			}
			end := time.Now()
			runtime.ReadMemStats(&after)
			tr.add("saaf.collect", req, 0, start, end)
			collectUS = append(collectUS, us(end.Sub(start))/microIters)
			collectAllocs = append(collectAllocs, float64(after.Mallocs-before.Mallocs)/microIters)

			start = time.Now()
			for range microIters {
				if _, _, err := cpu.ParseCPUInfo(cpu.CPUInfo(k, v)); err != nil {
					panic(err)
				}
			}
			end = time.Now()
			tr.add("cpu.parse", req, 0, start, end)
			parseUS = append(parseUS, us(end.Sub(start))/microIters)
		}
	}
	r.set("saaf.collect_us", median(collectUS))
	r.set("saaf.collect_allocs", median(collectAllocs))
	r.set("cpu.parse_us", median(parseUS))
}
