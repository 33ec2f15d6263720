package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). It sorts
// xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share is num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goStats reads the Go runtime's allocation and GC counters around a run
// phase and samples the live heap while it runs.
type goStats struct {
	samples  []metrics.Sample
	begin    [4]float64
	heapPeak float64
	stop     chan struct{}
	wg       sync.WaitGroup
}

var goStatNames = [...]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// startGoStats snapshots the counters and starts sampling the heap every
// 20 ms until end is called.
func startGoStats() *goStats {
	g := &goStats{stop: make(chan struct{})}
	for _, name := range goStatNames {
		g.samples = append(g.samples, metrics.Sample{Name: name})
	}
	g.begin = g.read()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		heap := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			g.heapPeak = max(g.heapPeak, float64(heap[0].Value.Uint64()))
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

func (g *goStats) read() [4]float64 {
	metrics.Read(g.samples)
	var out [4]float64
	for i, s := range g.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// end stops the sampler and reports the phase's figures per op into r.
func (g *goStats) end(r *result, ops float64) {
	close(g.stop)
	g.wg.Wait()
	now := g.read()
	r.set("go.allocs_per_op", share(now[0]-g.begin[0], ops))
	r.set("go.bytes_per_op", share(now[1]-g.begin[1], ops))
	r.set("go.gc_cpu_share", share(now[2]-g.begin[2], now[3]-g.begin[3]))
	r.set("go.heap_peak_mb", g.heapPeak/(1<<20))
}

func msOf(ds []time.Duration) []float64 { return convert(ds, ms) }
func usOf(ds []time.Duration) []float64 { return convert(ds, us) }

func convert(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}
